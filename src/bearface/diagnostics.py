"""Warning categories used across the package.

Recoverable contract violations (out-of-range intensities, numerical
repairs, out-of-frame crops) are reported through the standard `warnings`
machinery with one of these categories, so callers can filter, escalate or
silence them per category.
"""

import os
import sys
import warnings


class BearfaceWarning(UserWarning):
    """Base category for all package warnings."""


class ClampWarning(BearfaceWarning):
    """An input was outside its documented range and was clamped."""


def clamped(value: float, what: str) -> float:
    """`value` clamped to [0, 1]. A value outside, NaN included (which
    becomes 0), issues a ClampWarning naming `what` at the caller's caller."""
    if not 0.0 <= value <= 1.0:
        warnings.warn(f"{what} {value} clamped to [0, 1]", ClampWarning, stacklevel=3)
        value = min(1.0, max(0.0, value))
    return value


class NumericsWarning(BearfaceWarning):
    """A numerical repair was applied (jitter, iteration cap, ...)."""


class CropBoundsWarning(BearfaceWarning):
    """A resampling window reached outside the source image."""


class VoteRangeWarning(BearfaceWarning):
    """A vote count exceeded the one-vs-one maximum of P - 1."""


def verbose() -> bool:
    """True when the BEARFACE_VERBOSE environment variable is set non-zero."""
    value = os.environ.get("BEARFACE_VERBOSE", "")
    return value.strip() not in ("", "0")


def progress(message: str) -> None:
    """Print a progress line to stderr when verbose mode is on."""
    if verbose():
        print(message, file=sys.stderr)

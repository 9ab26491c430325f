"""Run configuration: one validated, versioned key-value file.

Every tunable of the pipeline lives here, and every report echoes the
resolved configuration so results stay reproducible. Unknown keys are
rejected rather than ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .expressions import Mode
from .kernels import AutoRbf, KernelPlan, PolyKernel, RbfKernel
from .modelio import FeatureParams
from .multiclass import CV_SCHEMES
from .records import boolean, content_lines, located, place, typed, write_atomic


class ConfigError(ValueError):
    pass


# Imitation builds every frame of a command in memory, frame_rate of them per
# second, so durations (s) and the frame rate are bounded; the mouth display
# runs at 80-90 fps.
MAX_DURATION, MAX_FRAME_RATE = 60.0, 240.0


def check_duration(name: str, value: float) -> None:
    """The rule of every duration: finite, positive and at most MAX_DURATION."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ConfigError(f"{name} must be positive")
    if value > MAX_DURATION:
        raise ConfigError(f"{name} must be at most {MAX_DURATION:g} s, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved pipeline settings; defaults make a runnable configuration."""

    seed: int = 0
    descriptors: tuple[str, ...] = ("lbph", "hog")
    grid: int = 8                    # windows per image side
    hog_bins: int = 59
    pca_energy: float = 0.95
    kernels: tuple[str, ...] = ("rbf", "poly")
    rbf_gamma: float | str = "auto"  # positive float or 'auto'
    poly_degree: int = 2
    poly_offset: float = 1.0
    poly_scale: float = 1.0
    svm_c: float = 10.0
    include_bias: bool = True
    cv_folds: int = 10
    cv_scheme: str = "random"
    frame_rate: float = 85.0
    bandwidth_scale: float = 1.0
    closure_margin: float = 0.4
    mode: str = "au-animal"
    viseme_table: str = "builtin"
    templates: str = "builtin"
    debounce: int = 3
    transition_duration: float = 1.5
    hold_duration: float = 1.0
    preview_frames: bool = False

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite, got {value!r}")
        if any(k not in ("rbf", "poly") for k in self.kernels) or not self.kernels:
            raise ConfigError(f"kernels must be from rbf/poly, got {self.kernels}")
        if isinstance(self.rbf_gamma, str) and self.rbf_gamma != "auto":
            raise ConfigError(f"rbf_gamma must be a number or 'auto', got {self.rbf_gamma!r}")
        if self.cv_scheme not in CV_SCHEMES:
            raise ConfigError(f"cv_scheme must be {' or '.join(CV_SCHEMES)}")
        if self.mode not in {m.value for m in Mode}:
            raise ConfigError(f"mode must be {' or '.join(Mode)}, got {self.mode!r}")
        for name in ("pca_energy", "svm_c", "frame_rate", "bandwidth_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("transition_duration", "hold_duration"):
            check_duration(name, getattr(self, name))
        if self.frame_rate > MAX_FRAME_RATE:
            raise ConfigError(
                f"frame_rate must be at most {MAX_FRAME_RATE:g} fps, got {self.frame_rate!r}"
            )
        if not (0.0 < self.pca_energy <= 1.0):
            raise ConfigError("pca_energy must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be at least 2")
        if self.debounce < 1:
            raise ConfigError("debounce must be at least 1")
        if self.closure_margin < 0:
            raise ConfigError("closure_margin must be nonnegative")
        # The kernel classes and FeatureParams check their own parameters,
        # so that a value fails whatever the kernel set and the order of the
        # lines, and a store's settings follow the same rule.
        try:
            for kind in ("rbf", "poly"):
                self._kernel(kind)
            self.feature_params()
        except ValueError as error:
            raise ConfigError(str(error)) from None

    def _kernel(self, kind: str) -> KernelPlan:
        if kind == "poly":
            return PolyKernel(
                degree=self.poly_degree, offset=self.poly_offset, scale=self.poly_scale
            )
        return AutoRbf() if self.rbf_gamma == "auto" else RbfKernel(float(self.rbf_gamma))

    def feature_params(self) -> FeatureParams:
        return FeatureParams(self.descriptors, self.grid, self.hog_bins)

    def kernel_plans(self) -> list[tuple[str, KernelPlan]]:
        """(block, kernel) bank entries: every kernel on every descriptor."""
        return [(block, self._kernel(kind)) for block in self.descriptors for kind in self.kernels]

    def to_lines(self) -> list[str]:
        """Canonical echo of every setting, in declaration order."""
        out = ["bearface-config 1"]
        for spec in fields(self):
            value = getattr(self, spec.name)
            out.append(f"{spec.name} = {_format_value(value)}")
        return out


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Value parsers by declared field type; rbf_gamma also takes 'auto'.
_KINDS = {"int": int, "float": float, "str": str, "bool": boolean,
          "tuple[str, ...]": lambda text: tuple(text.split()), "float | str": float}


def parse_config(text: str, origin: str | None = None) -> RunConfig:
    """`text`'s settings over the defaults; ConfigErrors name `origin:line`."""
    kinds = {spec.name: _KINDS[spec.type] for spec in fields(RunConfig)}
    config, seen = RunConfig(), set()
    try:
        for number, line in content_lines(text, "config", origin):
            where = place(origin, number)
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep:
                raise ValueError(f"{where}: expected 'key = value'")
            if key not in kinds:
                raise ValueError(f"{where}: unknown configuration key {key!r}")
            if key in seen:
                raise ValueError(f"{where}: duplicate key {key!r}")
            seen.add(key)
            if key != "rbf_gamma" or value != "auto":
                value = typed(kinds[key], key, value, where)
            # Every check of RunConfig concerns one field, so checking each
            # line as it is applied names the line at fault.
            with located(where):
                config = replace(config, **{key: value})
    except ValueError as error:
        raise ConfigError(str(error)) from None
    return config


def load_config(path: str | Path | None = None) -> RunConfig:
    """Config from a file, or the defaults when no path is given."""
    if path is None:
        return RunConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"), str(path))


def save_config(config: RunConfig, path: str | Path) -> None:
    write_atomic(path, "\n".join(config.to_lines()) + "\n")

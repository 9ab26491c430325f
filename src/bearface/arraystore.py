"""Versioned text container for arrays, scalars and strings.

Models and feature caches persist through this one format: a magic first
line, then one entry per record. Numeric arrays are stored as raw
little-endian bytes in base64, so every value round-trips bit-exactly.
Stores are written atomically (`write_atomic`), so an interrupted write
never leaves a half-written store that later loads.

    bearface-store 1
    int seed 42
    float svm_c 10.0
    str classes anger surprise ...
    array mean f8 1,3776
    <one base64 line>
"""

from __future__ import annotations

import base64
import math
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .records import check_header, located, place, typed, write_atomic

_DTYPES = {"f8": "<f8", "i8": "<i8", "u1": "|u1"}
# The writer's side of the same map: the code of each native-order dtype,
# which is converted to the stored little-endian one.
_CODES = {np.dtype(stored).newbyteorder("="): code for code, stored in _DTYPES.items()}


def _check_name(name: str) -> None:
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"bad store entry name {name!r}")


def dump_store(entries: Mapping[str, object]) -> str:
    lines = ["bearface-store 1"]
    for name, value in entries.items():
        _check_name(name)
        if isinstance(value, (int, np.integer)):  # a bool is an int
            lines.append(f"int {name} {int(value)}")
        elif isinstance(value, (float, np.floating)):
            lines.append(f"float {name} {float(value)!r}")
        elif isinstance(value, str):
            # parse_store splits on every line boundary of str.splitlines,
            # not only on a newline.
            if value.splitlines() not in ([value], []):
                raise ValueError(f"string entry {name!r} contains a line break")
            lines.append(f"str {name} {value}")
        elif isinstance(value, np.ndarray):
            code = _CODES.get(value.dtype)
            if code is None:
                raise ValueError(
                    f"array entry {name!r} has unsupported dtype {value.dtype}"
                )
            shape = ",".join(str(s) for s in value.shape) or "0"
            payload = base64.b64encode(
                np.ascontiguousarray(value).astype(_DTYPES[code]).tobytes()
            ).decode("ascii")
            lines.append(f"array {name} {code} {shape}")
            lines.append(payload)
        else:
            raise ValueError(f"entry {name!r} has unsupported type {type(value)!r}")
    return "\n".join(lines) + "\n"


def parse_store(text: str, origin: str | None = None) -> dict[str, object]:
    """The entries of a store's text; errors name `origin:line`.

    The body has its own loop, not `records.content_lines`: a string entry
    may hold '#', and an array's payload is the line after its header.
    """
    lines = text.splitlines()
    check_header(lines, "store", origin)
    entries: dict[str, object] = {}
    index = 1
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.strip():
            continue
        where = place(origin, index)
        kind, _, rest = line.partition(" ")
        name, _, tail = rest.partition(" ")
        if name in entries:
            raise ValueError(f"{where}: duplicate store entry {name!r}")
        if kind in ("int", "float"):
            entries[name] = typed(int if kind == "int" else float, name, tail, where)
        elif kind == "str":
            entries[name] = tail
        elif kind == "array":
            code, _, shape_text = tail.partition(" ")
            if code not in _DTYPES:
                raise ValueError(f"{where}: entry {name!r}: unknown dtype code {code!r}")
            shape = tuple(typed(int, "shape", s, where) for s in shape_text.split(",") if s)
            if index >= len(lines):
                raise ValueError(f"{where}: entry {name!r}: missing payload line")
            try:
                raw = base64.b64decode(lines[index], validate=True)
            except ValueError as error:  # binascii.Error is a ValueError
                raise ValueError(
                    f"{place(origin, index + 1)}: entry {name!r}: bad base64 payload: {error}"
                ) from None
            index += 1
            dtype = np.dtype(_DTYPES[code])
            if any(s < 0 for s in shape):
                raise ValueError(
                    f"{where}: entry {name!r}: negative dimension in shape {shape_text}"
                )
            needed = math.prod(shape) * dtype.itemsize
            if len(raw) != needed:
                raise ValueError(
                    f"{where}: entry {name!r}: payload holds {len(raw)} bytes, "
                    f"shape {shape_text} of {code} needs {needed}"
                )
            array = np.frombuffer(raw, dtype=dtype).reshape(shape)
            entries[name] = array.copy()
        else:
            raise ValueError(f"{where}: unknown store entry kind {kind!r}")
    return entries


# The kind of store line that `parse_store` reads as each Python type.
_KIND_OF = {int: "int", float: "float", str: "str", np.ndarray: "array"}


class StoreEntries(dict):
    """Entries read from one store file.

    Looking up an entry the file lacks raises a `ValueError` that names the
    file, the kind of store and the entry, not a bare `KeyError`; so does
    `typed` for an entry stored as another kind.
    """

    def __init__(self, entries: Mapping[str, object], path: "str | Path") -> None:
        super().__init__(entries)
        self.path = path

    def __missing__(self, name: str) -> object:
        kind = self.get("kind", "untyped")
        raise ValueError(f"{self.path}: {kind} store lacks the {name!r} entry")

    def typed(self, name: str, kind: type) -> Any:
        """The entry `name`, which must be stored as `kind` (int, float, str, np.ndarray)."""
        value = self[name]
        if type(value) is not kind:
            raise ValueError(f"{self.path}: {name}: stored as {_KIND_OF[type(value)]}, "
                             f"expected {_KIND_OF[kind]}")
        return value

    def build(self, make: Callable, *args: object, **kwargs: object) -> Any:
        """`make(*args, **kwargs)`; a ValueError it raises names this store."""
        with located(self.path):
            return make(*args, **kwargs)


def write_store(entries: Mapping[str, object], path: "str | Path") -> None:
    write_atomic(path, dump_store(entries))


def read_store(path: "str | Path") -> StoreEntries:
    return StoreEntries(parse_store(Path(path).read_text(encoding="utf-8"), str(path)), path)

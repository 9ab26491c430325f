"""Versioned container for arrays, scalars and strings.

Models and feature caches persist through this one format: a magic first
line, then one entry per record. An array's header line is followed by its
values as raw little-endian bytes, exactly prod(shape) x itemsize of them,
and one `\\n`, so every value round-trips bit-exactly; the payload counts
as one line in the line numbers that errors name. Every other line ends at
`\\n` (or the end of the file) and is UTF-8 text: any other line break, a
`\\r` before the `\\n` included, is an error at its line, and the writer
refuses a string holding one. An array has at least one dimension.
`write_store` streams `dump_store`'s chunks, each array without a copy,
into `write_atomic` (so an interrupted write never leaves a half-written
store that later loads); `parse_store` walks the file's bytes with one
cursor and slices each payload by its length.

    bearface-store 2
    int seed 42
    array mean f8 1,3776
    <30208 bytes>
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .records import check_header, located, place, typed, write_atomic

_DTYPES = {"f8": "<f8", "i8": "<i8", "u1": "|u1"}
# The writer's side of the same map: the code of each native-order dtype,
# which is converted to the stored little-endian one.
_CODES = {np.dtype(stored).newbyteorder("="): code for code, stored in _DTYPES.items()}


def _check_name(name: str) -> None:
    """The one rule of an entry name, for the writer and the reader alike."""
    if not name or any(ch.isspace() for ch in name):
        raise ValueError(f"bad store entry name {name!r}")


def dump_store(entries: Mapping[str, object]) -> Iterator[bytes | memoryview]:
    """The store's bytes: each header line, then each array's payload and its '\\n'.

    A C-ordered little-endian array's payload is a view of its own memory.
    """
    yield b"bearface-store 2\n"
    for name, value in entries.items():
        _check_name(name)
        if isinstance(value, (int, np.integer)):  # a bool is an int
            yield f"int {name} {int(value)}\n".encode()
        elif isinstance(value, (float, np.floating)):
            yield f"float {name} {float(value)!r}\n".encode()
        elif isinstance(value, str):
            # parse_store rejects every line break of str.splitlines but '\\n'.
            if value.splitlines() not in ([value], []):
                raise ValueError(f"string entry {name!r} contains a line break")
            yield f"str {name} {value}\n".encode()
        elif isinstance(value, np.ndarray):
            code = _CODES.get(value.dtype)
            if code is None:
                raise ValueError(f"array entry {name!r} has unsupported dtype {value.dtype}")
            if value.ndim == 0:
                raise ValueError(f"array entry {name!r} has no dimensions")
            yield f"array {name} {code} {','.join(map(str, value.shape))}\n".encode()
            yield memoryview(np.ascontiguousarray(value, _DTYPES[code]))
            yield b"\n"
        else:
            raise ValueError(f"entry {name!r} has unsupported type {type(value)!r}")


def _line_end(data: bytes, start: int) -> int:
    """Where the line from `start` ends: at its '\\n', or at the end of the data."""
    end = data.find(b"\n", start)
    return len(data) if end < 0 else end


def _text(line: memoryview, where: str) -> str:
    """A line that is not a payload, as text."""
    with located(where):
        text = str(line, "utf-8")
    if text.splitlines() not in ([text], []):
        raise ValueError(f"{where}: a line break other than '\\n' inside the line")
    return text


def parse_store(data: bytes, origin: str | None = None) -> dict[str, object]:
    """The entries of a store's bytes; errors name `origin:line`.

    The body has its own loop, not `records.content_lines`: a string entry
    may hold '#', and an array's payload is the bytes after its header.
    """
    view = memoryview(data)
    end = _line_end(data, 0)
    first = _text(view[:end], place(origin, 1))
    if first.split() == ["bearface-store", "1"]:
        raise ValueError(f"{place(origin, 1)}: a format-1 store (base64 arrays) is no longer "
                         "read; rebuild it with 'bearface extract' or 'bearface train'")
    check_header([first], "store", origin, version=2)
    entries: dict[str, object] = {}
    number, start = 1, end + 1
    while start < len(data):
        number += 1
        where = place(origin, number)
        end = _line_end(data, start)
        text = _text(view[start:end], where)
        start = end + 1
        if not text.strip():
            continue
        kind, _, rest = text.partition(" ")
        name, _, tail = rest.partition(" ")
        if kind not in ("int", "float", "str", "array"):
            raise ValueError(f"{where}: unknown store entry kind {kind!r}")
        with located(where):
            _check_name(name)
        if name in entries:
            raise ValueError(f"{where}: duplicate store entry {name!r}")
        if kind in ("int", "float"):
            entries[name] = typed(int if kind == "int" else float, name, tail, where)
        elif kind == "str":
            entries[name] = tail
        else:
            code, _, shape_text = tail.partition(" ")
            if code not in _DTYPES:
                raise ValueError(f"{where}: entry {name!r}: unknown dtype code {code!r}")
            fields = shape_text.split(",")
            if not all(field.isascii() and field.isdigit() for field in fields):
                raise ValueError(f"{where}: entry {name!r}: shape must be counts joined "
                                 f"by ',', got {shape_text!r}")
            with located(f"{where}: entry {name!r}"):  # past int()'s digit limit
                shape = tuple(map(int, fields))
            dtype = np.dtype(_DTYPES[code])
            needed = math.prod(shape) * dtype.itemsize
            payload = view[start:start + needed]
            if len(payload) < needed:
                raise ValueError(
                    f"{where}: entry {name!r}: payload holds {len(payload)} bytes, "
                    f"shape {shape_text} of {code} needs {needed}"
                )
            end = start + needed
            if data[end:end + 1] != b"\n":
                raise ValueError(f"{where}: entry {name!r}: the {needed}-byte payload "
                                 "is not followed by a line end")
            number, start = number + 1, end + 1
            with located(f"{where}: entry {name!r}"):
                entries[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
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
    return StoreEntries(parse_store(Path(path).read_bytes(), str(path)), path)

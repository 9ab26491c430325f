"""The on-disk conventions of the small text formats, and atomic writes.

Every text file bearface reads goes through this module:

- configurations (`bearface-config 1`, `key = value` lines);
- dataset manifests (`bearface-manifest 1`, a `classes = ...` line, then
  tab-separated rows);
- viseme tables (`bearface-visemes 1`, `id labial phoneme...` lines);
- expression templates (`bearface-templates 1`, then `[section]` headers
  and `key = value` lines);
- stores (`bearface-store 2`, then entries, each array followed by its raw
  bytes; see `arraystore`);
- transcripts, landmark files, expression tracks and vote logs, which have
  no header and one whitespace-separated record per line.

The rules are the same for all of them:

- **Header.** A versioned format starts with the line `bearface-<kind> 1`,
  or `bearface-store 2` for stores (`check_header`).
- **Line ends.** A store ends a line at `\\n` only, because its payloads
  are raw bytes; the text formats also take `\\r\\n`.
- **Comments and blank lines.** `#` starts a comment that runs to the end
  of the line; trailing whitespace goes with it, and lines left blank are
  skipped (`content_lines`). Leading whitespace stays, because manifest
  fields are tab-separated. Stores keep their own body rule, because a
  store string may hold `#`.
- **Places.** Every error names its place: `path:line` when the text came
  from a file, `line N` otherwise (`place`, `typed`); `located` puts the
  place in front of a ValueError that a record's own checks raise.

Every record holds its arrays as read-only, C-ordered copies of its own
(`frozen`): the caller's array stays writable, and writing to it later
leaves the record as it was. A record whose arrays hold numbers checks
them for NaN and inf when it is built (`check_finite`), so data is
checked once, where it enters, and a bad store names its file.

Every artifact the command line writes goes through `write_atomic`, so an
interrupted run leaves the previous file or the whole new one.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Fields = Sequence[tuple[str, Callable[[str], object]]]

_FLAGS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def place(origin: str | None, number: int) -> str:
    """`path:line` for a file, `line N` for text without one."""
    return f"{origin}:{number}" if origin is not None else f"line {number}"


@contextmanager
def located(where: object) -> Iterator[None]:
    """Prefix a ValueError raised inside with `where: `; other errors pass."""
    try:
        yield
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None


def frozen(value: object, dtype: object = None) -> np.ndarray:
    """A read-only, C-ordered copy of `value`, which the caller keeps writable."""
    array = np.array(value, dtype=dtype, order="C")
    array.setflags(write=False)
    return array


def check_finite(array: np.ndarray, what: str) -> None:
    """Reject an array holding NaN or inf with `non-finite <what> <i>`, where
    i is the first row (the first entry of a vector) that holds one."""
    finite = np.isfinite(array)
    if not finite.all():
        index = int(np.nonzero(~finite.all(axis=tuple(range(1, finite.ndim))))[0][0])
        raise ValueError(f"non-finite {what} {index}")


def check_header(
    lines: Sequence[str], kind: str, origin: str | None = None, version: int = 1
) -> None:
    """Reject text whose first line is not `bearface-<kind> <version>`."""
    if not lines or lines[0].split() != [f"bearface-{kind}", str(version)]:
        raise ValueError(
            f"{place(origin, 1)}: a {kind} file must start with 'bearface-{kind} {version}'"
        )


def content_lines(
    text: str, kind: str | None = None, origin: str | None = None
) -> list[tuple[int, str]]:
    """(line number, content) of each line that is not blank or a comment.

    With `kind`, the first line must be the `bearface-<kind> 1` header and
    is not returned. Content loses its comment and trailing whitespace.
    """
    lines = text.splitlines()
    first = 1
    if kind is not None:
        check_header(lines, kind, origin)
        lines, first = lines[1:], 2
    stripped = (
        (number, raw.partition("#")[0].rstrip()) for number, raw in enumerate(lines, first)
    )
    return [(number, line) for number, line in stripped if line]


def boolean(text: str) -> bool:
    """A yes/no value: true/yes/on/1 or false/no/off/0, in any case."""
    try:
        return _FLAGS[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def count(text: str) -> int:
    """A nonnegative int, such as a vote count."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def finite(text: str) -> float:
    """A float that is neither NaN nor infinite, such as a vote time."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def typed(kind: Callable[[str], object], name: str, value: str, where: str) -> object:
    """`kind(value)`, or a ValueError naming the place, the field and the value."""
    try:
        return kind(value)
    except ValueError:
        if kind is finite:  # a text that is no number at all is named a float
            typed(float, name, value, where)
        raise ValueError(f"{where}: {name} must be {kind.__name__}, got {value!r}") from None


def parse_records(
    text: str, fields: Fields, origin: str | None = None, kind: str | None = None,
    rest: bool = False,
) -> list[tuple[int, tuple]]:
    """(line number, record) for each record line of `text`.

    `fields` holds a (name, type) per column; with `rest`, the last one
    takes the rest of the line (one or more values) as a list. `kind`
    names the header the text must start with, if any. A wrong field
    count or a value its type rejects raises ValueError naming the place.
    Each value goes through its type alone; only a line that fails is
    converted again through `typed`, which names the place and the field.
    """
    layout = " ".join(name for name, _ in fields) + ("..." if rest else "")
    kinds = [k for _, k in fields]
    last = len(fields) - 1
    records = []
    for number, line in content_lines(text, kind, origin):
        texts: list = line.split()
        if len(texts) != len(fields) and not (rest and len(texts) > len(fields)):
            raise ValueError(f"{place(origin, number)}: expected '{layout}', "
                             f"got {len(texts)} fields")
        if rest:
            texts[last:] = [texts[last:]]
        try:
            record = tuple([k(v) for k, v in zip(kinds, texts)])
        except ValueError:
            where = place(origin, number)
            record = tuple(typed(k, n, v, where) for (n, k), v in zip(fields, texts))
        records.append((number, record))
    return records


def read_records(path: str | Path, fields: Fields) -> list[tuple]:
    """The records of a UTF-8 file; errors name `path:line`."""
    text = Path(path).read_text(encoding="utf-8")
    return [record for _, record in parse_records(text, fields, str(path))]


def packaged_text(name: str) -> str:
    """A UTF-8 file shipped in the package's `data` directory."""
    return resources.files("bearface").joinpath(f"data/{name}").read_text(encoding="utf-8")


def write_atomic(path: str | Path, data: str | bytes | Iterable[bytes | memoryview]) -> None:
    """Write text (as UTF-8), bytes or byte chunks so readers see the old file or the new.

    The data goes to a temporary file in the same directory, which then
    replaces `path` in one `os.replace`. A write that fails midway, a chunk
    that raises included, leaves the previous file and removes the temporary
    file. There is no fsync: this guards against an interrupted process, not a power loss.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    # O_EXCL: never write into a file that is already there; 0o666 lets
    # the umask set the permissions, as for any other created file.
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        binary = not isinstance(data, str)
        with open(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as out:
            out.writelines([data] if isinstance(data, (str, bytes)) else data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def csv_text(columns: Sequence[str], table) -> str:
    """A header line, then each row of a 2-D float array, values as '%.9g'
    (which is `format(v, '.9g')` for every float). A column whose values all
    have the same bits is formatted once; the rest fill one row template."""
    header = ",".join(columns) + "\n"
    if not len(table):
        return header
    bits = table.view("int64")
    varying = (bits != bits[0]).any(axis=0)
    cells = ["%.9g" if vary else "%.9g" % value for value, vary in zip(table[0].tolist(), varying)]
    rows = (",".join(cells) + "\n") * len(table)
    return header + rows % tuple(table[:, varying].ravel().tolist())


# What json.dumps(r, sort_keys=True) builds for every call, built once.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """One JSON object per line, keys sorted, written atomically."""
    write_atomic(path, "".join(_JSON_ENCODER.encode(r) + "\n" for r in records))

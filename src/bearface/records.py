"""One reader for the small whitespace-separated record files.

Transcripts, landmark files, expression tracks and vote logs hold one
record per line, fields separated by whitespace, with '#' starting a
comment and blank lines skipped. Every error names the place: `path:line`
when the text came from a file, `line N` otherwise.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

Fields = Sequence[tuple[str, Callable[[str], object]]]


def place(origin: str | None, number: int) -> str:
    """`path:line` for a file, `line N` for text without one."""
    return f"{origin}:{number}" if origin is not None else f"line {number}"


def parse_records(
    text: str, fields: Fields, origin: str | None = None
) -> list[tuple[int, tuple]]:
    """(line number, record) for each record line of `text`.

    `fields` holds a (name, type) per column. A wrong field count or a
    value its type rejects raises ValueError naming the place.
    """
    layout = " ".join(name for name, _ in fields)
    records = []
    for number, raw in enumerate(text.splitlines(), 1):
        texts = raw.split("#", 1)[0].split()
        if not texts:
            continue
        if len(texts) != len(fields):
            raise ValueError(
                f"{place(origin, number)}: expected '{layout}', got {len(texts)} fields"
            )
        record = []
        for (name, kind), value in zip(fields, texts):
            try:
                record.append(kind(value))
            except ValueError:
                raise ValueError(
                    f"{place(origin, number)}: {name} must be "
                    f"{kind.__name__}, got {value!r}"
                ) from None
        records.append((number, tuple(record)))
    return records


def read_records(path: str | Path, fields: Fields) -> list[tuple]:
    """The records of a UTF-8 file; errors name `path:line`."""
    text = Path(path).read_text(encoding="utf-8")
    return [record for _, record in parse_records(text, fields, str(path))]

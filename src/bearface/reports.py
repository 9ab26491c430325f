"""Confusion-matrix reports in plain text and CSV.

Rows and columns follow the fixed expression order (Anger, Surprise,
Disgust, Fear, Joy, Sadness, Neutral); cells are row-normalized
percentages. Every text report embeds the resolved configuration so a
result can always be traced to its settings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .records import write_atomic
from .multiclass import CvResult

_ABBREV = {
    "anger": "Ag",
    "surprise": "Sp",
    "disgust": "Dg",
    "fear": "Fr",
    "joy": "Jy",
    "sadness": "Sd",
    "neutral": "Nt",
}


def class_abbrev(name: str) -> str:
    return _ABBREV.get(name, name[:2].capitalize())


def confusion_text(result: CvResult) -> str:
    names = result.class_names
    pct = result.percentages
    label_width = max(len(n) for n in names) + 1
    header = "%".ljust(label_width) + "".join(
        class_abbrev(n).rjust(7) for n in names
    )
    lines = [header]
    for i, name in enumerate(names):
        row = name.ljust(label_width) + "".join(
            f"{pct[i, j]:7.1f}" for j in range(len(names))
        )
        lines.append(row)
    return "\n".join(lines)


def report_text(result: CvResult, config_lines: Sequence[str]) -> str:
    lines = [
        "bearface evaluation report",
        "",
        f"scheme: {result.scheme}, folds: {result.folds}",
        f"samples evaluated: {int(result.counts.sum())}",
        f"overall recognition rate: {result.overall_rate:.1f}%",
        "",
        "confusion matrix (rows: true, columns: predicted, row %):",
        confusion_text(result),
    ]
    if result.fold_notes:
        lines += ["", "fold diagnostics:"]
        lines += [f"  {note}" for note in result.fold_notes]
    lines += ["", "configuration:"]
    lines += [f"  {line}" for line in config_lines]
    return "\n".join(lines) + "\n"


def report_csv(result: CvResult) -> str:
    names = result.class_names
    pct = result.percentages
    lines = ["true\\predicted," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(f"{pct[i, j]:.1f}" for j in range(len(names))))
    lines.append(f"overall,{result.overall_rate:.1f}")
    return "\n".join(lines) + "\n"


def write_report(
    result: CvResult,
    config_lines: Sequence[str],
    text_path: str | Path,
    csv_path: str | Path,
) -> None:
    write_atomic(text_path, report_text(result, config_lines))
    write_atomic(csv_path, report_csv(result))

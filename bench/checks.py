"""Independent checks of the program's outputs.

Every checker returns a list of problems; an empty list means the output
passed. The checkers recompute what they need from the inputs or from
required properties (vote arithmetic, the servo protocol, dual
feasibility, smoothing invariants) and never compare against stored
copies of earlier output. They read only what the public entry points
return: vote results, binary MKL solutions and the files the command
line writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

SET_TARGET = 0x84
AXES = 10


@dataclass
class Outcome:
    """What one workload run measured and how many operations failed."""

    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    raw_s: list[float] = field(default_factory=list)  # measured ops as timed
    op_s: list[float] = field(default_factory=list)   # the same at reference speed
    model_bytes: int = 0
    reference_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems[:2])


def intensity_for(votes: int, class_count: int) -> float:
    """(2v - P + 1) / (P - 1), clamped to [0, 1]."""
    value = (2.0 * votes - class_count + 1.0) / (class_count - 1.0)
    return min(1.0, max(0.0, value))


def check_vote(
    winner: str,
    votes: int,
    tally: Sequence[int],
    class_names: Sequence[str],
    expected: str | None = None,
) -> list[str]:
    """Max-wins voting: P(P-1)/2 votes in all, the winner holds the most."""
    problems = []
    P = len(class_names)
    if len(tally) != P:
        return [f"tally has {len(tally)} entries for {P} classes"]
    if sum(tally) != P * (P - 1) // 2:
        problems.append(f"tally {list(tally)} does not sum to {P * (P - 1) // 2}")
    if winner not in class_names:
        return problems + [f"winner {winner!r} is not a class"]
    held = tally[list(class_names).index(winner)]
    if held != votes:
        problems.append(f"winner {winner!r} holds {held} votes, result says {votes}")
    if held != max(tally):
        problems.append(f"winner {winner!r} holds {held} votes, fewer than {max(tally)}")
    if expected is not None and winner != expected:
        problems.append(f"winner {winner!r}, expected {expected!r}")
    return problems


def check_intensity(votes: int, class_count: int, intensity: float) -> list[str]:
    expected = intensity_for(votes, class_count)
    if abs(intensity - expected) > 1e-12:
        return [f"intensity {intensity!r} for {votes} votes, expected {expected!r}"]
    return []


def decode_servo(data: bytes) -> tuple[list[tuple[int, int]], list[str]]:
    """The 4-byte set-target protocol: 0x84, channel, low 7 bits, high 7 bits."""
    if len(data) % 4:
        return [], [f"servo stream of {len(data)} bytes is not whole commands"]
    commands = []
    problems = []
    for offset in range(0, len(data), 4):
        opcode, channel, low, high = data[offset : offset + 4]
        if opcode != SET_TARGET:
            problems.append(f"byte {offset}: opcode 0x{opcode:02X}")
        if (channel | low | high) & 0x80:
            problems.append(f"byte {offset}: data byte with the high bit set")
        commands.append((channel, (high << 7) | low))
    return commands, problems


def check_servo(
    data: bytes, frames: int, lo: int = 4000, hi: int = 8000
) -> list[str]:
    """`frames` blocks of ten commands, channels 0..9, targets in [lo, hi]."""
    commands, problems = decode_servo(data)
    if problems:
        return problems[:3]
    if len(commands) != frames * AXES:
        return [f"{len(commands)} servo commands, expected {frames} x {AXES}"]
    for index, (channel, target) in enumerate(commands):
        if channel != index % AXES:
            return [f"command {index}: channel {channel}, expected {index % AXES}"]
        if not lo <= target <= hi:
            return [f"command {index}: target {target} outside [{lo}, {hi}]"]
    return []


def check_binary_solution(
    alphas: Sequence[float],
    labels: Sequence[float],
    C: float,
    kernel_weights: Sequence[float],
    history_objectives: Sequence[float],
) -> list[str]:
    """Dual box and equality feasibility, simplex weights, monotone objective."""
    problems = []
    if any(a < -1e-12 or a > C + 1e-12 for a in alphas):
        problems.append(f"dual variable outside [0, {C}]")
    balance = math.fsum(a * y for a, y in zip(alphas, labels))
    if abs(balance) > 1e-8:
        problems.append(f"|alpha'y| = {abs(balance):.3e} exceeds 1e-8")
    if any(d < 0.0 for d in kernel_weights):
        problems.append("negative kernel weight")
    if abs(math.fsum(kernel_weights) - 1.0) > 1e-10:
        problems.append(f"kernel weights sum to {math.fsum(kernel_weights)!r}")
    for before, after in zip(history_objectives, history_objectives[1:]):
        if after > before + 1e-12 * (1.0 + abs(before)):
            problems.append(f"objective rises from {before!r} to {after!r}")
            break
    return problems


def check_timeline(
    times: Sequence[float],
    rows: Sequence[Sequence[float]],
    segments: Sequence[tuple[float, float, str]],
    labial_phonemes: frozenset[str],
    labial_column: int,
    frame_rate: float,
) -> list[str]:
    """Frame count, normalisation and lips closed in every labial segment.

    `rows` hold the viseme weights of each frame, `segments` the transcript
    as (start, end, phoneme).
    """
    start = min(s for s, _, _ in segments)
    span = max(e for _, e, _ in segments) - start
    count = int(math.floor(span * frame_rate)) + 1
    if len(rows) != count:
        return [f"{len(rows)} timeline frames, expected {count}"]
    problems = []
    for index, row in enumerate(rows):
        if min(row) < 0.0:
            problems.append(f"frame {index}: negative viseme weight")
            break
        total = math.fsum(row)
        if total > 0.0 and abs(total - 1.0) > 1e-6:
            problems.append(f"frame {index}: viseme weights sum to {total!r}")
            break
    period = 1.0 / frame_rate
    for seg_start, seg_end, phoneme in segments:
        if phoneme not in labial_phonemes or seg_end - seg_start <= 2 * period:
            continue
        inside = [
            row[labial_column]
            for t, row in zip(times, rows)
            if seg_start <= t <= seg_end
        ]
        if not inside or max(inside) < 0.99:
            problems.append(
                f"labial segment {phoneme!r} at {seg_start:.3f} s never "
                f"reaches 0.99 lips-closed"
            )
            break
    return problems


def check_confusion(
    percent_rows: Mapping[str, Sequence[float]],
    class_counts: Mapping[str, int],
    samples_evaluated: int,
) -> list[str]:
    """Row percentages that come from whole counts covering every sample once."""
    problems = []
    total = sum(class_counts.values())
    if samples_evaluated != total:
        problems.append(f"{samples_evaluated} samples evaluated, expected {total}")
    if set(percent_rows) != set(class_counts):
        return problems + [
            f"confusion rows {sorted(percent_rows)} do not match classes "
            f"{sorted(class_counts)}"
        ]
    for name, row in percent_rows.items():
        n = class_counts[name]
        counts = [p * n / 100.0 for p in row]
        # Percentages are printed to 0.1, so each count is known to
        # within n / 2000 of a whole number.
        if any(abs(c - round(c)) > n / 2000.0 + 1e-9 for c in counts):
            problems.append(f"row {name!r}: {list(row)} is not whole counts of {n}")
            continue
        if sum(round(c) for c in counts) != n:
            problems.append(f"row {name!r} covers {sum(round(c) for c in counts)} of {n}")
    return problems


def expected_emissions(
    results: Sequence[tuple[str, int]], debounce: int
) -> list[tuple[int, str, int]]:
    """(index, winner, votes) of every result the debounced session acts on.

    A session re-targets after `debounce` identical winners in a row, and
    only when the winner differs from the expression it last showed.
    """
    out = []
    streak_winner = None
    streak = 0
    current = None
    for index, (winner, votes) in enumerate(results):
        if winner == streak_winner:
            streak += 1
        else:
            streak_winner, streak = winner, 1
        if streak >= debounce and winner != current:
            out.append((index, winner, votes))
            current = winner
    return out

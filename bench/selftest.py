"""Fast self-test of the benchmark's checkers.

    python3 bench/selftest.py

Hands every checker one correct and one deliberately wrong output and
confirms that the correct one passes and the wrong one is counted as a
failed operation. Exits 0 when every checker behaves, 1 otherwise. Runs in
well under a second and does not import the program.
"""

from __future__ import annotations

import sys

import checks

P = 7
NAMES = tuple(f"c{i}" for i in range(P))
GOOD_TALLY = (6, 5, 4, 3, 2, 1, 0)          # sums to P(P-1)/2 = 21


def servo_block(targets: list[int]) -> bytes:
    out = bytearray()
    for channel, target in enumerate(targets):
        out += bytes((0x84, channel, target & 0x7F, (target >> 7) & 0x7F))
    return bytes(out)


def timeline_case(row_fix=None):
    """A one-segment labial transcript rendered correctly, optionally broken."""
    rate = 10.0
    segments = [(0.0, 0.5, "m")]
    times = [k / rate for k in range(6)]
    rows = [[0.0, 1.0, 0.0] for _ in times]
    if row_fix is not None:
        row_fix(rows)
    return times, rows, segments, frozenset({"m"}), 1, rate


def cases():
    """(name, problems for a correct output, problems for a wrong output)."""
    good_servo = servo_block([6000] * 10) * 2
    high_bit = bytearray(good_servo)
    high_bit[2] |= 0x80
    wrong_sum = checks.check_vote("c0", 6, (6, 5, 4, 3, 2, 1, 1), NAMES)
    yield "vote tally sums to P(P-1)/2", checks.check_vote("c0", 6, GOOD_TALLY, NAMES), wrong_sum
    yield (
        "vote winner holds the most votes",
        checks.check_vote("c0", 6, GOOD_TALLY, NAMES),
        checks.check_vote("c1", 5, GOOD_TALLY, NAMES),
    )
    yield (
        "vote winner is the expected label",
        checks.check_vote("c0", 6, GOOD_TALLY, NAMES, "c0"),
        checks.check_vote("c0", 6, GOOD_TALLY, NAMES, "c2"),
    )
    yield (
        "intensity is (2v-P+1)/(P-1) clamped",
        checks.check_intensity(5, P, 4.0 / 6.0) + checks.check_intensity(1, P, 0.0),
        checks.check_intensity(5, P, 5.0 / 6.0),
    )
    yield (
        "servo byte with the high bit set",
        checks.check_servo(good_servo, 2),
        checks.check_servo(bytes(high_bit), 2),
    )
    yield (
        "servo target out of range",
        checks.check_servo(good_servo, 2),
        checks.check_servo(servo_block([6000] * 9 + [9000]), 1),
    )
    yield (
        "servo block count",
        checks.check_servo(good_servo, 2),
        checks.check_servo(good_servo, 3),
    )
    good_solution = checks.check_binary_solution(
        [0.5, 0.5, 1.0], [1.0, 1.0, -1.0], 10.0, [0.25, 0.75], [-1.0, -2.0]
    )
    yield (
        "dual variable outside [0, C]",
        good_solution,
        checks.check_binary_solution(
            [5.5, 5.5, 11.0], [1.0, 1.0, -1.0], 10.0, [0.25, 0.75], [-1.0, -2.0]
        ),
    )
    yield (
        "dual equality alpha'y = 0",
        good_solution,
        checks.check_binary_solution(
            [0.5, 0.6, 1.0], [1.0, 1.0, -1.0], 10.0, [0.25, 0.75], [-1.0, -2.0]
        ),
    )
    yield (
        "kernel weights on the simplex",
        good_solution,
        checks.check_binary_solution(
            [0.5, 0.5, 1.0], [1.0, 1.0, -1.0], 10.0, [0.5, 0.75], [-1.0, -2.0]
        ),
    )
    yield (
        "objective history non-increasing",
        good_solution,
        checks.check_binary_solution(
            [0.5, 0.5, 1.0], [1.0, 1.0, -1.0], 10.0, [0.25, 0.75], [-2.0, -1.0]
        ),
    )

    def unnormalised(rows):
        rows[3] = [0.1, 0.8, 0.0]

    def open_lips(rows):
        for row in rows:
            row[:] = [0.2, 0.8, 0.0]

    def negative(rows):
        rows[2] = [-0.1, 1.1, 0.0]

    yield "timeline row sums to 1", checks.check_timeline(*timeline_case()), checks.check_timeline(*timeline_case(unnormalised))
    yield "timeline lips closed in labial segments", [], checks.check_timeline(*timeline_case(open_lips))
    yield "timeline weights non-negative", [], checks.check_timeline(*timeline_case(negative))
    yield "timeline frame count", [], checks.check_timeline(*timeline_case(lambda rows: rows.pop()))
    counts = {"a": 3, "b": 2}
    yield (
        "confusion covers each sample once",
        checks.check_confusion({"a": [100.0, 0.0], "b": [50.0, 50.0]}, counts, 5),
        checks.check_confusion({"a": [100.0, 0.0], "b": [50.0, 50.0]}, counts, 6),
    )
    yield (
        "confusion rows are whole counts",
        checks.check_confusion({"a": [66.7, 33.3], "b": [0.0, 100.0]}, counts, 5),
        checks.check_confusion({"a": [60.0, 40.0], "b": [0.0, 100.0]}, counts, 5),
    )


def main() -> int:
    bad = 0
    for name, good, wrong in cases():
        outcome = checks.Outcome()
        outcome.record(good)
        outcome.record(wrong)
        ok = (outcome.attempted, outcome.failed) == (2, 1)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {wrong[:1]}")
        bad += not ok
    print(f"{bad} checker(s) misbehaved" if bad else "all checkers behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

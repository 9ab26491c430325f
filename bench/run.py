"""Benchmark of the bearface program: one workload per run.

    python3 bench/run.py --workload frame|train|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`
directory. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end figures (times at reference speed, see
calib.py); with `--trace 1` they are per-layer figures from a traced run
of the same workload. Scratch files go to `.bench_work/` in the checkout
and are removed when the run ends. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SOURCE = CHECKOUT / "src"
sys.path.insert(0, str(SOURCE))


def _program_from_checkout() -> bool:
    """True when `bearface` imports from this checkout's sources."""
    try:
        import bearface
    except ImportError:
        return False
    return Path(bearface.__file__).resolve().is_relative_to(SOURCE.resolve())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("frame", "train", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _program_from_checkout():
        print(f"bearface sources not found under {SOURCE}", file=sys.stderr)
        return 2

    from calib import REFERENCE_NOMINAL_S
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    work_root = CHECKOUT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        tracer.install()
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, work, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        tracer.write(work_root / f"spans-{args.workload}.csv")
        scale = REFERENCE_NOMINAL_S / statistics.median(outcome.reference_s)
        metrics = layer_metrics(tracer, len(outcome.raw_s), scale)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": outcome.setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
            "op_ms_p50": {"value": statistics.median(outcome.op_s) * 1e3, "unit": "ms"},
            "model_bytes": {"value": outcome.model_bytes, "unit": "bytes"},
        }
    print(
        f"{args.workload}: {len(outcome.raw_s)} measured operations, median "
        f"{statistics.median(outcome.op_s) * 1e3:.2f} ms at reference speed, "
        f"{statistics.median(outcome.raw_s) * 1e3:.2f} ms as timed; reference "
        f"operation median {statistics.median(outcome.reference_s) * 1e3:.3f} ms; "
        f"{outcome.attempted} attempted, {outcome.failed} failed",
        file=sys.stderr,
    )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

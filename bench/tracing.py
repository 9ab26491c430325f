"""Span tracer for the traced run, patched in at the program's call sites.

A layer function is wrapped at the module name its caller looks it up
under (for instance `bearface.mkl.solve_svm_dual`, which the MKL trainer
calls, or `bearface.cli.classify`). Each call records a span (name,
start, end, parent) in memory; spans of one operation share the
operation's index. A site whose function no longer exists is skipped and
reports nothing, so later refactors of the program do not break the
traced run.

Layer times are self times: a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


# Counters derive a number from a call's bound arguments and its result.
# `_calls` only counts and needs neither, so it skips argument binding.


def _calls(arguments, result) -> int:
    return 1


def _iterations(arguments, result) -> int:
    return int(getattr(result, "iterations", 0))


def _unconverged(arguments, result) -> int:
    """Inner solves that return with a KKT violation above their tolerance."""
    return int(getattr(result, "kkt_violation", 0.0) > arguments.get("tol", float("inf")))


def _outer_steps(arguments, result) -> int:
    return max(0, len(getattr(result, "history", ())) - 1)


def _emitted(arguments, result) -> int:
    return int(result is not None)


def _file_size(arguments, result) -> int:
    return os.path.getsize(list(arguments.values())[1])


# Layer span name -> (call sites, counters derived from each call).
LAYERS: dict[str, tuple[tuple[str, ...], dict[str, Callable]]] = {
    "imaging.read_pnm": (("bearface.extraction:read_pnm", "bearface.cli:read_pnm"), {}),
    "registration.read_landmarks": (
        ("bearface.extraction:read_landmarks", "bearface.cli:read_landmarks"),
        {},
    ),
    "registration.register_and_crop": (("bearface.extraction:register_and_crop",), {}),
    "lbp.lbph": (("bearface.extraction:lbph",), {}),
    "hog.hog": (("bearface.extraction:hog",), {}),
    "pca.fit_pca": (("bearface.multiclass:fit_pca",), {}),
    "kernels.kernel_matrix": (
        ("bearface.multiclass:kernel_matrix", "bearface.kernels:kernel_matrix"),
        {"kernels.kernel_matrix_calls": _calls},
    ),
    "kernels.combine_grams": (
        ("bearface.mkl:combine_grams",),
        {"kernels.combine_grams_calls": _calls},
    ),
    "svm.ensure_psd": (
        ("bearface.mkl:ensure_psd", "bearface.svm:ensure_psd"),
        {"svm.ensure_psd_calls": _calls},
    ),
    "svm.solve_svm_dual": (
        ("bearface.mkl:solve_svm_dual",),
        {
            "svm.solve_svm_dual_calls": _calls,
            "svm.smo_iterations": _iterations,
            "svm.unconverged_solves": _unconverged,
        },
    ),
    "mkl.train_binary_mkl": (
        ("bearface.multiclass:train_binary_mkl",),
        {"mkl.outer_steps": _outer_steps},
    ),
    "multiclass.classify": (
        ("bearface.multiclass:classify", "bearface.cli:classify"),
        {"multiclass.classify_calls": _calls},
    ),
    "imitation.consume": (
        ("bearface.imitation:ImitationSession.consume",),
        {"imitation.commands": _emitted},
    ),
    "servo.trajectory_to_servo_commands": (
        ("bearface.servo:trajectory_to_servo_commands",),
        {},
    ),
    "lipsync.render_timeline": (("bearface.cli:render_timeline",), {}),
    "arraystore.read_store": (
        ("bearface.extraction:read_store", "bearface.modelio:read_store"),
        {},
    ),
    "arraystore.write_store": (
        ("bearface.extraction:write_store", "bearface.modelio:write_store"),
        {"arraystore.bytes_written": _file_size},
    ),
}

#: Spans the benchmark opens itself around each command-line call.
CLI_SPANS = ("cli.extract", "cli.train", "cli.eval", "cli.classify",
             "cli.animate", "cli.imitate", "cli.export_servo")


def _resolve(site: str):
    """(owner object, attribute name, current value) or None if gone."""
    module_name, _, attr_path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """In-memory spans and counters; recording only while `active`."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled    # whether this run traces at all
        self.active = False       # whether spans are being recorded now
        self.operation = -1
        # (name, start, end, parent index, operation index)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.operation))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, operation = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, operation)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, function, counters):
        tracer = self
        signature = inspect.signature(function)
        binds = any(derive is not _calls for derive in counters.values())

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            arguments = {}
            if binds:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            for counter, derive in counters.items():
                tracer.counts[counter] += derive(arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every call site that exists."""
        for name, (sites, counters) in LAYERS.items():
            for site in sites:
                found = _resolve(site)
                if found is None:
                    continue
                owner, attr, function = found
                self._patched.append((owner, attr, function))
                setattr(owner, attr, self._wrap(name, function, counters))

    def uninstall(self) -> None:
        for owner, attr, function in reversed(self._patched):
            setattr(owner, attr, function)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def write(self, path: Path) -> None:
        """Spans as CSV: name, start, end, parent index, operation index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_s,end_s,parent,operation\n")
            for name, start, end, parent, operation in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent},{operation}\n")


def layer_metrics(tracer: Tracer, operations: int, scale: float) -> dict[str, dict]:
    """Per-operation layer figures for the JSON result.

    Times are self times per operation, scaled to reference speed by
    `scale`; counts are per operation. A layer the workload never reaches
    reads 0.
    """
    selfs = tracer.self_times()
    ops = max(1, operations)
    out: dict[str, dict] = {}
    for name in LAYERS:
        out[name + "_ms"] = {"value": selfs.get(name, 0.0) * scale / ops * 1e3, "unit": "ms"}
    for name in CLI_SPANS:
        out[name + "_s"] = {"value": selfs.get(name, 0.0) * scale / ops, "unit": "s"}
    for _, counters in LAYERS.values():
        for name in counters:
            unit = "bytes" if name.endswith("bytes_written") else "count"
            out[name] = {"value": tracer.counts.get(name, 0) / ops, "unit": unit}
    return out


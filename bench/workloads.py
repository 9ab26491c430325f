"""The three workloads: the online frame loop, repeated training, the CLI.

Each workload sets up several times and reports the median set-up time,
runs warm-up operations that are not timed, then runs whole operations
until its time is up. A fixed reference operation runs next to every
timed operation, and every timing is reported at reference speed (see
calib.py). Outputs are checked after each operation, outside the timed
region; an operation with any problem counts as failed.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bearface import cli, extraction, modelio, multiclass, registration, servo
from bearface.config import RunConfig, parse_config
from bearface.expressions import Expression, load_templates
from bearface.imitation import ImitationSession
from bearface.modelio import FeatureParams, ModelBundle
from bearface.visemes import load_viseme_table

import checks
import inputs
from calib import Reference, windowed
from tracing import Tracer

SETUP_REPEATS = 3
REFERENCE_BURST = 20      # reference runs before and after a long operation

FRAME_SEQUENCES = 10      # 7 classes, 240 training faces
FRAME_SEGMENT = 25        # frames per expression segment of the stream
FRAME_WARMUP = 60
FRAME_WINDOW = 25         # reference runs on each side of a frame

TRAIN_SEQUENCES = 10      # the same 240-face set, about 1 s per training
TRAIN_WARMUP = 1
TRAIN_CHECK_ROWS = 2      # training rows per class classified after each fit
TRAIN_WINDOW = 2          # trainings on each side whose reference runs count

CLI_SEQUENCES = 3         # 72 faces
CLI_CONFIG = "bearface-config 1\ncv_folds = 3\n"   # defaults otherwise
CLI_TRANSCRIPT_SEGMENTS = 120
CLI_VOTE_RUNS = 40
CLI_VOTE_RUN_LENGTH = 8
CLI_SERVO_DURATION = 10.0
CLI_WARMUP = 1
CLI_SETUP_REPEATS = 5     # writing the inputs is short, so repeat it more
CLI_REFERENCE_BURST = 10  # reference runs after each command
CLI_WINDOW = 2            # passes on each side whose reference runs count


def timed(ref: Reference, work):
    """Run `work()` between two reference bursts.

    Returns its time without the reference runs it ticked, the reference
    runs around and inside it, and its result.
    """
    ref.ticks.clear()
    before = ref.burst(REFERENCE_BURST)
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start - sum(ref.ticks)
    inside = list(ref.ticks)
    return elapsed, before + inside + ref.burst(REFERENCE_BURST), result


def timed_setup(ref: Reference, build, repeats: int = SETUP_REPEATS):
    """Median calibrated time of `build()` over several runs, and its result.

    Every run is calibrated by the reference runs around and inside all of
    them.
    """
    raw = []
    refs = []
    result = None
    for _ in range(repeats):
        elapsed, runs, result = timed(ref, build)
        raw.append(elapsed)
        refs.append(runs)
    return statistics.median(windowed(raw, refs, repeats)), result


def describe_faces(faces, config: RunConfig, tick):
    """Registration reference and stacked descriptor blocks of a face set.

    `tick` runs after every face.
    """
    reference = registration.mean_reference([face.landmarks for face in faces])
    params = FeatureParams(config.descriptors, config.grid, config.hog_bins)
    rows: dict[str, list[np.ndarray]] = {}
    for face in faces:
        described = extraction.describe_image(face.image, face.landmarks, reference, params)
        for name, vector in described.items():
            rows.setdefault(name, []).append(vector)
        tick()
    blocks = {name: np.vstack(vectors) for name, vectors in rows.items()}
    return reference, params, blocks


def train(blocks, labels, config: RunConfig):
    return multiclass.train_multiclass(
        blocks,
        labels,
        config.kernel_plans(),
        config.svm_c,
        pca_energy=config.pca_energy,
        include_bias=config.include_bias,
    )


def vote_problems(result, expected: str | None) -> list[str]:
    return checks.check_vote(
        result.winner, result.votes, result.tally, result.class_names, expected
    )


def trajectory_frames(config: RunConfig) -> int:
    """Frames of one imitation: the transition sweep plus the hold."""
    sweep = max(2, math.floor(config.transition_duration * config.frame_rate) + 1)
    return sweep + int(config.hold_duration * config.frame_rate)


# ---------------------------------------------------------------------------
# frame: the robot's online loop
# ---------------------------------------------------------------------------


def motion_problems(result, motion, payload, config: RunConfig) -> list[str]:
    frames, morphs = motion
    problems = []
    if len(frames) != trajectory_frames(config):
        problems.append(f"{len(frames)} pose frames, expected {trajectory_frames(config)}")
    if result.winner == Expression.NEUTRAL.value:
        if any(frame.expressions for frame in morphs):
            problems.append("neutral imitation carries an expression offset")
    else:
        for frame in morphs:
            problems += checks.check_intensity(
                result.votes,
                len(result.class_names),
                frame.expressions.get(result.winner, -1.0),
            )
            if problems:
                break
    problems += checks.check_servo(payload, len(frames))
    return problems


def frame_stream(faces, seed: int):
    """Endless stream of training faces in single-expression segments.

    Consecutive segments differ in expression, so the debounced imitation
    session emits one motion per segment.
    """
    by_label: dict[str, list] = {}
    for face in faces:
        by_label.setdefault(face.label, []).append(face)
    labels = sorted(by_label)
    rng = np.random.default_rng([seed, 1])
    previous = None
    while True:
        label = labels[int(rng.integers(len(labels)))]
        if label == previous:
            continue
        previous = label
        pool = by_label[label]
        for _ in range(FRAME_SEGMENT):
            yield pool[int(rng.integers(len(pool)))]


def run_frame(seed: int, seconds: float, work: Path, tracer: Tracer) -> checks.Outcome:
    config = RunConfig()
    ref = Reference()
    outcome = checks.Outcome()
    faces = inputs.make_faces(seed, FRAME_SEQUENCES)
    labels = [face.label for face in faces]
    model_path = work / "model.store"

    def build():
        reference, params, blocks = describe_faces(faces, config, ref.tick)
        with pair_ticks(ref):
            model = train(blocks, labels, config)
        modelio.save_model(ModelBundle(model, reference, params), model_path)
        return reference, params, model

    outcome.setup_s, (reference, params, model) = timed_setup(ref, build)
    outcome.model_bytes = model_path.stat().st_size

    session = ImitationSession(
        load_templates(),
        debounce=config.debounce,
        frame_rate=config.frame_rate,
        transition_duration=config.transition_duration,
        hold_duration=config.hold_duration,
    )
    calibration = servo.default_calibration()
    raw: list[float] = []
    refs: list[list[float]] = []
    stream = frame_stream(faces, seed)
    deadline = None
    index = 0
    while deadline is None or time.perf_counter() < deadline:
        if index == FRAME_WARMUP:
            deadline = time.perf_counter() + seconds
        face = next(stream)
        tracer.operation = index
        tracer.active = tracer.enabled and deadline is not None
        start = time.perf_counter()
        with tracer.span("frame"):
            blocks = extraction.describe_image(face.image, face.landmarks, reference, params)
            result = multiclass.classify(model, blocks)
            motion = session.consume(result, index / config.frame_rate)
            payload = (
                servo.trajectory_to_servo_commands(motion[0], calibration)
                if motion is not None
                else None
            )
        elapsed = time.perf_counter() - start
        tracer.active = False
        reference_s = ref.run()
        if index >= FRAME_WARMUP:
            raw.append(elapsed)
            refs.append([reference_s])
        problems = vote_problems(result, face.label)
        if motion is not None:
            problems += motion_problems(result, motion, payload, config)
        outcome.record(problems)
        index += 1
    outcome.raw_s = raw
    outcome.op_s = windowed(raw, refs, FRAME_WINDOW)
    outcome.reference_s = [r for runs in refs for r in runs]
    return outcome


# ---------------------------------------------------------------------------
# train: train_multiclass repeated on a fixed feature set
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def pair_ticks(ref: Reference):
    """Tick the reference after every pairwise training of train_multiclass.

    Wraps `bearface.multiclass.train_binary_mkl` at the name its caller
    uses, so the reference samples the machine throughout a training and
    not only around it; if that name no longer exists, only around it.
    """
    function = getattr(multiclass, "train_binary_mkl", None)
    if function is None:
        yield
        return

    def ticked(*args, **kwargs):
        result = function(*args, **kwargs)
        ref.tick()
        return result

    multiclass.train_binary_mkl = ticked
    try:
        yield
    finally:
        multiclass.train_binary_mkl = function


class SolutionObserver:
    """Keeps what the binary solver returns during a training.

    Wraps `bearface.multiclass.train_binary_mkl` at the name its caller
    uses; if that name no longer exists nothing is observed, and the
    training is still checked through `classify` and the store round trip.

    Inner solves are not checked here: the SMO loop can stop on a step that
    moves nothing while its KKT violation is far above tolerance, on some
    seeds only, so the traced run counts such solves instead
    (`svm.unconverged_solves`).
    """

    def __init__(self) -> None:
        self.binary: list[tuple[float, object]] = []   # (C, solution)
        self._original = None

    def install(self) -> None:
        function = getattr(multiclass, "train_binary_mkl", None)
        if function is None:
            return
        signature = inspect.signature(function)

        def observed(*args, **kwargs):
            result = function(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.binary.append((float(bound.arguments["C"]), result))
            return result

        self._original = function
        multiclass.train_binary_mkl = observed

    def uninstall(self) -> None:
        if self._original is not None:
            multiclass.train_binary_mkl = self._original
            self._original = None

    def problems(self) -> list[str]:
        problems = []
        for C, solution in self.binary:
            problems += checks.check_binary_solution(
                solution.alphas.tolist(),
                solution.labels.tolist(),
                C,
                solution.kernel_weights.tolist(),
                [objective for _, objective in solution.history],
            )
        return problems


def model_problems(model, blocks, labels, rows, model_path: Path) -> list[str]:
    """Training rows classify to their labels, also after a store round trip."""
    problems = []
    samples = [{name: data[i] for name, data in blocks.items()} for i in rows]
    first = [multiclass.classify(model, sample) for sample in samples]
    for i, result in zip(rows, first):
        problems += vote_problems(result, labels[i])
    modelio.save_model(ModelBundle(model), model_path)
    loaded = modelio.load_model(model_path).model
    for sample, before in zip(samples, first):
        after = multiclass.classify(loaded, sample)
        if (after.winner, after.tally, dict(after.decisions)) != (
            before.winner,
            before.tally,
            dict(before.decisions),
        ):
            problems.append("reloaded model classifies differently")
            break
    return problems


def run_train(seed: int, seconds: float, work: Path, tracer: Tracer) -> checks.Outcome:
    config = RunConfig()
    ref = Reference()
    outcome = checks.Outcome()
    faces = inputs.make_faces(seed, TRAIN_SEQUENCES)
    labels = [face.label for face in faces]
    outcome.setup_s, (_, _, blocks) = timed_setup(
        ref, lambda: describe_faces(faces, config, ref.tick)
    )

    rng = np.random.default_rng([seed, 2])
    rows = []
    for label in sorted(set(labels)):
        members = [i for i, name in enumerate(labels) if name == label]
        rows += sorted(rng.choice(members, TRAIN_CHECK_ROWS, replace=False).tolist())
    model_path = work / "model.store"

    def traced_train():
        with tracer.span("train"):
            return train(blocks, labels, config)

    raw: list[float] = []
    refs: list[list[float]] = []
    observer = SolutionObserver()
    observer.install()
    try:
        with pair_ticks(ref):
            deadline = None
            index = 0
            while deadline is None or time.perf_counter() < deadline:
                if index == TRAIN_WARMUP:
                    deadline = time.perf_counter() + seconds
                observer.binary.clear()
                tracer.operation = index
                tracer.active = tracer.enabled and deadline is not None
                elapsed, op_refs, model = timed(ref, traced_train)
                tracer.active = False
                if index >= TRAIN_WARMUP:
                    raw.append(elapsed)
                    refs.append(op_refs)
                problems = observer.problems()
                problems += model_problems(model, blocks, labels, rows, model_path)
                outcome.model_bytes = model_path.stat().st_size
                outcome.record(problems)
                index += 1
    finally:
        observer.uninstall()
    outcome.raw_s = raw
    outcome.op_s = windowed(raw, refs, TRAIN_WINDOW)
    outcome.reference_s = [r for runs in refs for r in runs]
    return outcome


# ---------------------------------------------------------------------------
# cli: the whole command line, pass after pass
# ---------------------------------------------------------------------------


@dataclass
class CliInputs:
    faces: list
    manifest: Path
    transcript: list
    transcript_path: Path
    votes: list
    votes_path: Path
    expression: str
    config_path: Path


def write_cli_inputs(seed: int, faces, root: Path, tick) -> CliInputs:
    manifest = inputs.write_dataset(faces, root / "dataset", tick)
    transcript = inputs.make_transcript(seed, CLI_TRANSCRIPT_SEGMENTS)
    transcript_path = root / "speech.align"
    inputs.write_transcript(transcript, transcript_path)
    votes = inputs.make_votes(seed, CLI_VOTE_RUNS, CLI_VOTE_RUN_LENGTH)
    votes_path = root / "votes.txt"
    inputs.write_votes(votes, votes_path)
    expression = inputs.BASIC_CLASSES[seed % len(inputs.BASIC_CLASSES)]
    config_path = root / "bench.config"
    config_path.write_text(CLI_CONFIG, encoding="utf-8")
    return CliInputs(
        faces, manifest, transcript, transcript_path, votes, votes_path, expression, config_path
    )


def cli_commands(data: CliInputs, out: Path) -> list[tuple[str, list[str]]]:
    commands = [
        ("cli.extract", ["extract", "--manifest", str(data.manifest), "--out", str(out)]),
        ("cli.train", ["train", "--out", str(out)]),
        ("cli.eval", ["eval", "--out", str(out)]),
        (
            "cli.classify",
            ["classify", "--manifest", str(data.manifest),
             "--model", str(out / "model.store"), "--out", str(out / "classify")],
        ),
        (
            "cli.animate",
            ["animate", "--transcript", str(data.transcript_path),
             "--expression", data.expression, "--intensity", "0.6",
             "--out", str(out / "animate")],
        ),
        ("cli.imitate", ["imitate", "--votes", str(data.votes_path), "--out", str(out / "imitate")]),
        (
            "cli.export_servo",
            ["export-servo", "--expression", data.expression, "--intensity", "1.0",
             "--duration", repr(CLI_SERVO_DURATION), "--out", str(out / "servo")],
        ),
    ]
    return [(span, argv + ["--config", str(data.config_path)]) for span, argv in commands]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def eval_problems(data: CliInputs, out: Path) -> list[str]:
    report = (out / "report.txt").read_text(encoding="utf-8")
    evaluated = -1
    for line in report.splitlines():
        if line.startswith("samples evaluated:"):
            evaluated = int(line.split(":", 1)[1])
    class_counts: dict[str, int] = {}
    for face in data.faces:
        class_counts[face.label] = class_counts.get(face.label, 0) + 1
    _, rows = _read_csv(out / "confusion.csv")
    percent_rows = {row[0]: [float(v) for v in row[1:]] for row in rows if row[0] != "overall"}
    return checks.check_confusion(percent_rows, class_counts, evaluated)


def classify_problems(data: CliInputs, out: Path) -> list[str]:
    expected = {face.stem: face.label for face in data.faces}
    problems = []
    seen = 0
    for line in (out / "classify" / "classifications.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        seen += 1
        names = list(record["tally"])
        tally = [record["tally"][name] for name in names]
        stem = Path(record["image"]).stem
        problems += checks.check_vote(
            record["winner"], record["votes"], tally, names, expected.get(stem)
        )
        problems += checks.check_intensity(record["votes"], len(names), record["intensity"])
        if problems:
            break
    if seen != len(expected):
        problems.append(f"{seen} classifications for {len(expected)} images")
    return problems


def animate_problems(data: CliInputs, out: Path, config: RunConfig) -> list[str]:
    table = load_viseme_table()
    labial_ids = table.labial_ids()
    labial = frozenset(p for _, _, p in data.transcript if table.class_id(p) in labial_ids)
    header, rows = _read_csv(out / "animate" / "timeline.csv")
    viseme_columns = [i for i, name in enumerate(header) if name.startswith("viseme_")]
    labial_column = header.index(f"viseme_{min(labial_ids):02d}") - viseme_columns[0]
    times = [float(row[0]) for row in rows]
    weights = [[float(row[i]) for i in viseme_columns] for row in rows]
    problems = checks.check_timeline(
        times, weights, data.transcript, labial, labial_column, config.frame_rate
    )
    column = header.index(data.expression)
    if any(float(row[column]) != 0.6 for row in rows):
        problems.append(f"expression channel {data.expression!r} is not 0.6 throughout")
    return problems


def imitate_problems(data: CliInputs, out: Path, config: RunConfig) -> list[str]:
    expected = checks.expected_emissions(
        [(winner, votes) for _, winner, votes in data.votes], config.debounce
    )
    lines = (out / "imitate" / "imitation_log.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if len(records) != len(expected):
        return [f"{len(records)} imitation commands, expected {len(expected)}"]
    P = len(inputs.CLASS_NAMES)
    problems = []
    for number, (record, (index, winner, votes)) in enumerate(zip(records, expected)):
        if (record["t"], record["winner"], record["votes"]) != (data.votes[index][0], winner, votes):
            problems.append(f"command {number}: {record} does not match vote line {index}")
            break
        problems += checks.check_intensity(votes, P, record["intensity"])
        _, pose_rows = _read_csv(out / "imitate" / f"command_{number:03d}_pose.csv")
        if len(pose_rows) != trajectory_frames(config):
            problems.append(f"command {number}: {len(pose_rows)} pose frames")
        if problems:
            break
    return problems


def servo_problems(out: Path, config: RunConfig) -> list[str]:
    frames = max(2, math.floor(CLI_SERVO_DURATION * config.frame_rate) + 1)
    return checks.check_servo((out / "servo" / "servo.bin").read_bytes(), frames)


def run_cli(seed: int, seconds: float, work: Path, tracer: Tracer) -> checks.Outcome:
    config = parse_config(CLI_CONFIG)
    ref = Reference()
    outcome = checks.Outcome()
    faces = inputs.make_faces(seed, CLI_SEQUENCES)
    outcome.setup_s, data = timed_setup(
        ref, lambda: write_cli_inputs(seed, faces, work / "inputs", ref.tick), CLI_SETUP_REPEATS
    )
    out = work / "run"
    verify = {
        "cli.eval": lambda: eval_problems(data, out),
        "cli.classify": lambda: classify_problems(data, out),
        "cli.animate": lambda: animate_problems(data, out, config),
        "cli.imitate": lambda: imitate_problems(data, out, config),
        "cli.export_servo": lambda: servo_problems(out, config),
    }
    previous: dict[str, bytes] = {}
    raw: list[float] = []
    refs: list[list[float]] = []
    deadline = None
    index = 0
    while deadline is None or time.perf_counter() < deadline:
        if index == CLI_WARMUP:
            deadline = time.perf_counter() + seconds
        tracer.operation = index
        pass_s = 0.0
        pass_refs: list[float] = []
        pass_problems: dict[str, list[str]] = {}
        for span, argv in cli_commands(data, out):
            tracer.active = tracer.enabled and deadline is not None
            with tracer.span(span), contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                pass_s += time.perf_counter() - start
            tracer.active = False
            pass_refs += ref.burst(CLI_REFERENCE_BURST)
            pass_problems[span] = [] if code == 0 else [f"{span} exited {code}"]
        for span, verifier in verify.items():
            if not pass_problems[span]:
                pass_problems[span] = verifier()
        for name, span in (("report.txt", "cli.eval"), ("model.store", "cli.train")):
            current = (out / name).read_bytes()
            if name in previous and previous[name] != current:
                pass_problems[span].append(f"{name} differs from the previous pass")
            previous[name] = current
        for problems in pass_problems.values():
            outcome.record(problems)
        outcome.model_bytes = (out / "model.store").stat().st_size
        if index >= CLI_WARMUP:
            raw.append(pass_s)
            refs.append(pass_refs)
        index += 1
    outcome.raw_s = raw
    outcome.op_s = windowed(raw, refs, CLI_WINDOW)
    outcome.reference_s = [r for runs in refs for r in runs]
    return outcome


WORKLOADS = {"frame": run_frame, "train": run_train, "cli": run_cli}

"""Command-line pipeline: extract, train, eval, classify, animate, imitate.

Every command reads an optional configuration file, writes its artifacts
under the output directory and exits nonzero with a one-line JSON error
record on stderr when something is wrong. Outputs are deterministic for
identical inputs, configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, check_duration, load_config, save_config
from .dof import ALL_DOFS, Trajectory, dof_label
from .expressions import Expression, Mode, load_templates, pose_for, trajectory
from .extraction import describe_faces, extract_dataset, load_features, save_features
from .imitation import ImitationSession, vote_to_intensity, write_imitation_log
from .lipsync import render_timeline, write_preview_pgms, write_timeline_csv, write_timeline_jsonl
from .manifest import read_manifest, training_labels
from .modelio import ModelBundle, load_model, save_model
from .multiclass import VoteResult, cross_validate, decision_values, train_multiclass, vote
from .records import count, csv_text, read_records, typed, write_atomic, write_jsonl
from .registration import read_landmarks
from .reports import write_report
from .visemes import bundled_transcript, load_viseme_table, read_transcript


class CliError(RuntimeError):
    """User-facing failure with an actionable message."""


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None) is not None:
        overrides["mode"] = args.mode
    if getattr(args, "scheme", None) is not None:
        overrides["cv_scheme"] = args.scheme
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path, artifact: str, command: str) -> Path:
    if not path.is_file():
        raise CliError(
            f"{artifact} not found at {path}; run 'bearface {command}' first "
            f"or point at it explicitly"
        )
    return path


_TRACK_FIELDS = (("time", float), ("expression", Expression), ("level", float))
_VOTE_FIELDS = (("time", float), ("winner", Expression), ("votes", count))


def _expression(args: argparse.Namespace) -> Expression:
    return typed(Expression, "expression", args.expression, "--expression")


def _templates(config: RunConfig):
    path = None if config.templates == "builtin" else config.templates
    return load_templates(path)


def _viseme_table(config: RunConfig):
    path = None if config.viseme_table == "builtin" else config.viseme_table
    return load_viseme_table(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    manifest = read_manifest(args.manifest)
    features = extract_dataset(manifest, config.feature_params())
    save_features(features, out / "features.store")
    save_config(config, out / "resolved_config.txt")
    for note in features.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    print(f"extracted {len(features)} samples -> {out / 'features.store'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    features_path = Path(args.features) if args.features else out / "features.store"
    features = load_features(_require(features_path, "feature cache", "extract"))
    model = train_multiclass(
        features.blocks,
        list(features.labels),
        config.kernel_plans(),
        config.svm_c,
        pca_energy=config.pca_energy,
        include_bias=config.include_bias,
    )
    bundle = ModelBundle(
        model=model, reference=features.reference, feature=features.feature
    )
    save_model(bundle, out / "model.store")
    print(
        f"trained {len(model.pairs)} pairwise classifiers over "
        f"{len(model.class_names)} classes -> {out / 'model.store'}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    features_path = Path(args.features) if args.features else out / "features.store"
    features = load_features(_require(features_path, "feature cache", "extract"))
    result = cross_validate(
        features.blocks,
        list(features.labels),
        config.kernel_plans(),
        config.svm_c,
        folds=config.cv_folds,
        scheme=config.cv_scheme,
        subjects=list(features.subjects),
        seed=config.seed,
        pca_energy=config.pca_energy,
        include_bias=config.include_bias,
    )
    write_report(result, config.to_lines(), out / "report.txt", out / "confusion.csv")
    print(f"overall recognition rate: {result.overall_rate:.1f}%")
    print(f"report -> {out / 'report.txt'}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    model_path = Path(args.model) if args.model else out / "model.store"
    bundle = load_model(_require(model_path, "model", "train"))
    if bundle.reference is None or bundle.feature is None:
        raise CliError("model bundle lacks extraction context; retrain from features")
    manifest = read_manifest(args.manifest)
    faces = [(entry.image, read_landmarks(entry.landmarks)) for entry in manifest.entries]
    rows = []
    if faces:  # a manifest of no images scores nothing
        blocks = describe_faces(faces, bundle.reference, bundle.feature)
        rows = decision_values(bundle.model, blocks)
    records = []
    for entry, row in zip(manifest.entries, rows):
        result = vote(bundle.model, row)
        records.append(
            {
                "image": str(entry.image),
                "label": entry.label,
                "winner": result.winner,
                "votes": result.votes,
                "intensity": vote_to_intensity(
                    result.votes, len(result.class_names)
                ),
                "tally": dict(zip(result.class_names, result.tally)),
            }
        )
    path = out / "classifications.jsonl"
    write_jsonl(path, records)
    expected = training_labels(manifest)
    correct = sum(1 for r, label in zip(records, expected) if r["winner"] == label)
    print(f"classified {len(records)} images ({correct} match their labels) -> {path}")
    return 0


def cmd_animate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    table = _viseme_table(config)
    if args.transcript:
        transcript = read_transcript(args.transcript)
    else:
        transcript = bundled_transcript()
    if args.track:
        track = read_records(args.track, _TRACK_FIELDS)
    elif args.expression:
        track = [(0.0, _expression(args), args.intensity)]
    else:
        track = []
    frames = render_timeline(
        transcript,
        track,
        table,
        frame_rate=config.frame_rate,
        bandwidth_scale=config.bandwidth_scale,
        closure_margin=config.closure_margin,
    )
    write_timeline_csv(frames, out / "timeline.csv")
    write_timeline_jsonl(frames, out / "timeline.jsonl")
    if config.preview_frames:
        write_preview_pgms(frames, out / "preview")
    print(f"rendered {len(frames)} frames -> {out / 'timeline.csv'}")
    return 0


def cmd_imitate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    templates = _templates(config)
    class_names = tuple(e.value for e in Expression)
    session = ImitationSession(
        templates,
        mode=Mode(config.mode),
        debounce=config.debounce,
        frame_rate=config.frame_rate,
        transition_duration=config.transition_duration,
        hold_duration=config.hold_duration,
    )
    emitted = 0
    for time, winner, votes in read_records(args.votes, _VOTE_FIELDS):
        result = VoteResult(
            winner=winner.value,
            votes=votes,
            tally=(),
            decisions={},
            class_names=class_names,
        )
        motion = session.consume(result, time)
        if motion is None:
            continue
        frames, morphs = motion
        write_trajectory_csv(frames, out / f"command_{emitted:03d}_pose.csv")
        write_timeline_csv(morphs, out / f"command_{emitted:03d}_morph.csv")
        emitted += 1
    write_imitation_log(session.records, out / "imitation_log.jsonl")
    print(f"emitted {emitted} commands -> {out / 'imitation_log.jsonl'}")
    return 0


def cmd_export_servo(args: argparse.Namespace) -> int:
    from .servo import default_calibration, to_servo_commands, trajectory_to_servo_commands

    if args.duration is not None:
        check_duration("--duration", args.duration)
    config = _config_from_args(args)
    templates = _templates(config)
    pose = pose_for(templates.get(_expression(args), Mode(config.mode)), args.intensity)
    calibration = default_calibration()
    if args.duration is None:
        payload = to_servo_commands(pose, calibration)
    else:
        frames = trajectory(templates.neutral_pose, pose, args.duration, config.frame_rate)
        payload = trajectory_to_servo_commands(frames, calibration)
    if args.out:
        out = _out_dir(args)
        path = out / "servo.bin"
        write_atomic(path, payload)
        print(f"wrote {len(payload)} bytes -> {path}")
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def write_trajectory_csv(frames: Trajectory, path) -> None:
    columns = ["t"] + [dof_label(d) for d in ALL_DOFS]
    write_atomic(path, csv_text(columns, np.column_stack([frames.times, frames.poses])))


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, out_default: str | None = "bearface-out") -> None:
    sub.add_argument("--config", help="configuration file (defaults when omitted)")
    sub.add_argument("--seed", type=int, help="override the configured seed")
    sub.add_argument("--mode", choices=("au", "au-animal"), help="expression mode")
    where = "output directory" if out_default else "output directory (omit for stdout)"
    sub.add_argument("--out", default=out_default, help=where)


class _Parser(argparse.ArgumentParser):
    """Raises a CliError for a malformed command line instead of exiting,
    so it reaches the one-line JSON record. Subcommand parsers inherit it."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bearface",
        description="Desk-scale expressive face pipeline: features, training, "
        "evaluation, lip-sync animation and imitation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("extract", help="extract descriptors from a dataset")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="dataset manifest file")

    p = commands.add_parser("train", help="train the expression classifier")
    _add_common(p)
    p.add_argument("--features", help="feature cache (default: <out>/features.store)")

    p = commands.add_parser("eval", help="cross-validate and write a report")
    _add_common(p)
    p.add_argument("--features", help="feature cache (default: <out>/features.store)")
    p.add_argument(
        "--scheme", choices=("random", "person-independent"), help="fold scheme"
    )

    p = commands.add_parser("classify", help="classify manifest images with a model")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="manifest of images to classify")
    p.add_argument("--model", help="model bundle (default: <out>/model.store)")

    p = commands.add_parser("animate", help="render a mouth timeline for a transcript")
    _add_common(p)
    p.add_argument("--transcript", help="aligned transcript (default: bundled demo)")
    p.add_argument("--expression", help="constant expression channel to blend in")
    p.add_argument("--intensity", type=float, default=1.0, help="expression level")
    p.add_argument("--track", help="expression track file: 'time expression level'")

    p = commands.add_parser("imitate", help="replay recognition votes into motion")
    _add_common(p)
    p.add_argument("--votes", required=True, help="votes file: 'time winner votes'")

    p = commands.add_parser("export-servo", help="emit servo command bytes for a pose")
    _add_common(p, out_default=None)
    p.add_argument("--expression", required=True, help="expression to pose")
    p.add_argument("--intensity", type=float, default=1.0, help="expression level")
    p.add_argument(
        "--duration", type=float, help="export a timed sweep from neutral instead"
    )

    return parser


_HANDLERS = {
    "extract": cmd_extract,
    "train": cmd_train,
    "eval": cmd_eval,
    "classify": cmd_classify,
    "animate": cmd_animate,
    "imitate": cmd_imitate,
    "export-servo": cmd_export_servo,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except (CliError, OSError, ValueError, KeyError, OverflowError) as error:
        record = {"error": str(error), "kind": type(error).__name__}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

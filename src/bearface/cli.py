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
from .extraction import FeatureSet, describe_faces, extract_dataset, load_features, save_features
from .imitation import ImitationSession, vote_to_intensity, write_imitation_log
from .lipsync import render_timeline, write_preview_pgms, write_timeline_csv, write_timeline_jsonl
from .manifest import read_manifest, training_labels
from .modelio import ModelBundle, load_model, save_model
from .multiclass import CLASS_NAMES, CV_SCHEMES, VoteResult, cross_validate, decision_values
from .multiclass import train_multiclass, vote
from .records import count, csv_text, finite, located, read_records, typed, write_atomic
from .records import write_jsonl
from .registration import read_landmarks
from .reports import write_report
from .visemes import bundled_transcript, load_viseme_table, read_transcript


class CliError(RuntimeError):
    """User-facing failure with an actionable message."""


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The configuration file's settings, overridden by any `--seed`, `--mode` or `--scheme`."""
    overrides = {key: getattr(args, key) for key in ("seed", "mode", "cv_scheme")
                 if getattr(args, key, None) is not None}
    config = load_config(args.config)
    with located("command line"):
        return dataclasses.replace(config, **overrides)


def _out_dir(args: argparse.Namespace) -> Path:
    """The output directory, created; a command calls it once its inputs are read,
    so a run that fails on its inputs leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(given: str | None, default: Path, artifact: str, command: str) -> Path:
    path = Path(given) if given else default
    if not path.is_file():
        raise CliError(
            f"{artifact} not found at {path}; run 'bearface {command}' first "
            f"or point at it explicitly"
        )
    return path


_TRACK_FIELDS = (("time", float), ("expression", Expression), ("level", float))
_VOTE_FIELDS = (("time", finite), ("winner", Expression), ("votes", count))


def _expression(args: argparse.Namespace) -> Expression:
    return typed(Expression, "expression", args.expression, "--expression")


def _packaged_or(load, setting: str):
    """`load` of the file a setting names, or of the packaged file for 'builtin'."""
    return load(None if setting == "builtin" else setting)


def _features(args: argparse.Namespace) -> tuple[Path, FeatureSet]:
    path = _require(args.features, Path(args.out) / "features.store", "feature cache", "extract")
    return path, load_features(path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    manifest = read_manifest(args.manifest)
    features = extract_dataset(manifest, config.feature_params())
    out = _out_dir(args)
    save_features(features, out / "features.store")
    save_config(config, out / "resolved_config.txt")
    for note in features.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    print(f"extracted {len(features)} samples -> {out / 'features.store'}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    path, features = _features(args)
    with located(path):  # a training error names the features it read
        model = train_multiclass(
            features.blocks,
            list(features.labels),
            config.kernel_plans(),
            config.svm_c,
            pca_energy=config.pca_energy,
            include_bias=config.include_bias,
        )
    # A query is described by the blocks the bank reads, and no others.
    feature = dataclasses.replace(features.feature, descriptors=tuple(model.pool))
    out = _out_dir(args)
    save_model(ModelBundle(model, features.reference, feature), out / "model.store")
    print(
        f"trained {len(model.pairs)} pairwise classifiers over "
        f"{len(model.class_names)} classes -> {out / 'model.store'}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    path, features = _features(args)
    with located(path):  # a training error names the features it read
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
    out = _out_dir(args)
    write_report(result, config.to_lines(), out / "report.txt", out / "confusion.csv")
    print(f"overall recognition rate: {result.overall_rate:.1f}%")
    print(f"report -> {out / 'report.txt'}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    bundle = load_model(_require(args.model, Path(args.out) / "model.store", "model", "train"))
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
    path = _out_dir(args) / "classifications.jsonl"
    write_jsonl(path, records)
    expected = training_labels(manifest)
    correct = sum(1 for r, label in zip(records, expected) if r["winner"] == label)
    print(f"classified {len(records)} images ({correct} match their labels) -> {path}")
    return 0


def cmd_animate(args: argparse.Namespace) -> int:
    if args.intensity is not None and not args.expression:
        raise CliError(
            "bearface animate: argument --intensity: not allowed without argument --expression"
        )
    config = _config_from_args(args)
    table = _packaged_or(load_viseme_table, config.viseme_table)
    transcript = read_transcript(args.transcript) if args.transcript else bundled_transcript()
    if args.track:
        track = read_records(args.track, _TRACK_FIELDS)
    elif args.expression:
        track = [(0.0, _expression(args), 1.0 if args.intensity is None else args.intensity)]
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
    out = _out_dir(args)
    write_timeline_csv(frames, out / "timeline.csv")
    write_timeline_jsonl(frames, out / "timeline.jsonl")
    if config.preview_frames:
        write_preview_pgms(frames, out / "preview")
    print(f"rendered {len(frames)} frames -> {out / 'timeline.csv'}")
    return 0


def cmd_imitate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    templates = _packaged_or(load_templates, config.templates)
    rows = read_records(args.votes, _VOTE_FIELDS)
    session = ImitationSession(
        templates,
        mode=Mode(config.mode),
        debounce=config.debounce,
        frame_rate=config.frame_rate,
        transition_duration=config.transition_duration,
        hold_duration=config.hold_duration,
    )
    out = _out_dir(args)
    emitted = 0
    for time, winner, votes in rows:
        result = VoteResult(
            winner=winner.value,
            votes=votes,
            tally=(),
            decisions={},
            class_names=CLASS_NAMES,
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
    templates = _packaged_or(load_templates, config.templates)
    pose = pose_for(templates.get(_expression(args), Mode(config.mode)), args.intensity)
    calibration = default_calibration()
    if args.duration is None:
        payload = to_servo_commands(pose, calibration)
    else:
        frames = trajectory(templates.neutral_pose, pose, args.duration, config.frame_rate)
        payload = trajectory_to_servo_commands(frames, calibration)
    if args.out:
        path = _out_dir(args) / "servo.bin"
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


def _add_command(commands, name: str, run, about: str, out_default: str | None = "bearface-out"):
    """The parser of one command, with the two options every command takes."""
    sub = commands.add_parser(name, help=about)
    sub.set_defaults(run=run)
    sub.add_argument("--config", help="configuration file (defaults when omitted)")
    where = "output directory" if out_default else "output directory (omit for stdout)"
    sub.add_argument("--out", default=out_default, help=where)
    return sub


class _Parser(argparse.ArgumentParser):
    """Raises a CliError for a malformed command line instead of exiting,
    so it reaches the one-line JSON record. Subcommand parsers inherit it,
    and take no abbreviations: `classify --mode` is not read as `--model`."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bearface",
        description="Desk-scale expressive face pipeline: features, training, "
        "evaluation, lip-sync animation and imitation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    modes = [m.value for m in Mode]

    p = _add_command(commands, "extract", cmd_extract, "extract descriptors from a dataset")
    p.add_argument("--manifest", required=True, help="dataset manifest file")

    p = _add_command(commands, "train", cmd_train, "train the expression classifier")
    p.add_argument("--features", help="feature cache (default: <out>/features.store)")

    p = _add_command(commands, "eval", cmd_eval, "cross-validate and write a report")
    p.add_argument("--features", help="feature cache (default: <out>/features.store)")
    p.add_argument("--scheme", dest="cv_scheme", choices=CV_SCHEMES, help="fold scheme")
    p.add_argument("--seed", type=int, help="override the configured seed")

    p = _add_command(commands, "classify", cmd_classify, "classify manifest images with a model")
    p.add_argument("--manifest", required=True, help="manifest of images to classify")
    p.add_argument("--model", help="model bundle (default: <out>/model.store)")

    p = _add_command(commands, "animate", cmd_animate, "render a mouth timeline for a transcript")
    p.add_argument("--transcript", help="aligned transcript (default: bundled demo)")
    channel = p.add_mutually_exclusive_group()
    channel.add_argument("--expression", help="constant expression channel to blend in")
    channel.add_argument("--track", help="expression track file: 'time expression level'")
    p.add_argument("--intensity", type=float, help="level of --expression (default 1.0)")

    p = _add_command(commands, "imitate", cmd_imitate, "replay recognition votes into motion")
    p.add_argument("--votes", required=True, help="votes file: 'time winner votes'")
    p.add_argument("--mode", choices=modes, help="expression mode")

    p = _add_command(
        commands, "export-servo", cmd_export_servo, "emit servo command bytes for a pose", None
    )
    p.add_argument("--mode", choices=modes, help="expression mode")
    p.add_argument("--expression", required=True, help="expression to pose")
    p.add_argument("--intensity", type=float, default=1.0, help="expression level")
    p.add_argument(
        "--duration", type=float, help="export a timed sweep from neutral instead"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (CliError, OSError, ValueError, KeyError, OverflowError) as error:
        record = {"error": str(error), "kind": type(error).__name__}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

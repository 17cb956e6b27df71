"""Command-line front end.

Exit codes: 0 on success, 2 on usage errors (argparse's default), 3 when
decoding finds no feasible path or a clip shows no transition, 1 on other
domain errors (bad files, malformed inputs).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from . import fileio, keyframes, summarize
from .emission import binarize_stream, fit_channel_emissions
from .errors import (
    BadArgument,
    FormatError,
    NoFeasiblePath,
    NoTransitionDetected,
    PoseHsmmError,
)
from .inference import HsmmModel, fit_durations, fit_transitions, hsmm_viterbi
from .keyframes import select_keyframes
from .simulate import (
    PRESETS,
    ScenarioConfig,
    preset_config,
    sample_sequence,
    sample_transition_clip,
)
from .states import PoseLabel, RotationDirection, build_initial_distribution
from .summarize import (
    build_transition_library,
    classify_transition,
    frame_accuracy,
    history_from_segments,
    summarize_history,
    window_detection_rate,
)

_POSE_CHOICES = [p.value for p in PoseLabel]
_DIR_CHOICES = [d.value for d in RotationDirection]

#: The simulate flags' dests, each the ``ScenarioConfig`` field it sets.
_SCENARIO_FLAGS = (
    "seed", "t_target", "d_max", "duration_mean", "duration_std", "noise",
    "dropout", "scene_switch", "transition_hold", "transition_ramp",
)

_KEYFRAME_FLAGS = ("--k-max", "--th", "--stage2-th")


def _scenario_from_args(args) -> ScenarioConfig:
    fields = {key: getattr(args, key) for key in _SCENARIO_FLAGS}
    return preset_config(args.preset, **{k: v for k, v in fields.items() if v is not None})


def _cmd_simulate(args) -> int:
    config = _scenario_from_args(args)
    if args.transition is not None:
        try:
            from_pose, to_pose = map(PoseLabel, args.transition[:2])
            direction = RotationDirection(args.transition[2])
        except ValueError as exc:
            raise BadArgument(f"--transition: {exc}") from None
        stream, truth = sample_transition_clip(from_pose, to_pose, direction, config)
    else:
        stream, truth = sample_sequence(config)
    if args.binarize:
        stream = binarize_stream(stream)
    fileio.write_stream(stream, args.out)
    print(f"wrote {stream.T} ticks x {len(stream.channels)} channels to {args.out}")
    if args.truth_out:
        fileio.write_truth(
            truth.generating_model.states, truth.segmentation, truth.scene_track,
            args.truth_out, transition=truth.transition,
        )
        print(f"wrote truth sidecar to {args.truth_out}")
    return 0


def fit_hsmm(streams, segmentations, space, d_max=None) -> HsmmModel:
    """The supervised fit ``train`` runs: pooled counts over the labeled
    sequences and one emission model per channel any stream carries.

    ``d_max`` defaults to three times the longest labeled run, capped at
    the longest sequence.
    """
    n = len(space)
    A = fit_transitions(segmentations, n)
    if d_max is None:
        longest = max(max(seg.d for seg in s) for s in segmentations)
        d_max = min(3 * longest, max(s.T for s in segmentations))
    durations = fit_durations(segmentations, n, d_max)
    channels = sorted({c for s in streams for c in s.channels})
    emissions = {c: fit_channel_emissions(streams, segmentations, c, n) for c in channels}
    return HsmmModel(build_initial_distribution(space), A, durations, emissions, space)


def _cmd_train(args) -> int:
    streams, truths = [], []
    for stream_path, truth_path in args.data:
        stream = fileio.read_stream(stream_path)
        truth = fileio.read_truth(truth_path)
        if args.binarize:
            stream = binarize_stream(stream)
        if stream.T != truth.segmentation.T:
            raise FormatError(
                f"{stream_path}: stream has T={stream.T} but truth covers "
                f"T={truth.segmentation.T}"
            )
        if streams and stream.F != streams[0].F:
            raise FormatError(f"{stream_path}: stream has F={stream.F}, expected {streams[0].F}")
        streams.append(stream)
        truths.append(truth)

    space = truths[0].space
    if any(truth.space != space for truth in truths):
        raise FormatError("all truth sidecars must share one state table")
    segmentations = [truth.segmentation for truth in truths]
    model = fit_hsmm(streams, segmentations, space, args.d_max)
    fileio.write_model(model, args.out)
    print(f"trained {len(space)}-state model on {len(streams)} sequence(s); wrote {args.out}")
    return 0


def _check_channels(stream, path, modelled, source) -> None:
    """``FormatError`` naming ``path`` and ``source`` unless a channel the
    stream makes available at some tick is in ``modelled``."""
    if not set(stream.channels) & set(modelled):
        raise FormatError(
            f"{path}: no channel of {' '.join(map(str, stream.channels))} is modelled "
            f"by {source} ({' '.join(map(str, sorted(modelled)))})"
        )


def _load_pair(args):
    model = fileio.read_model(args.model)
    stream = fileio.read_stream(args.stream)
    widths = {m.F for m in model.emissions.values()}
    if widths and stream.F not in widths:
        raise FormatError(
            f"{args.stream}: stream has F={stream.F}, model {args.model} has "
            f"F={widths.pop()}"
        )
    _check_channels(stream, args.stream, model.emissions, f"model {args.model}")
    if args.binarize:
        stream = binarize_stream(stream)
    return model, stream


def _cmd_decode(args) -> int:
    model, stream = _load_pair(args)
    result = hsmm_viterbi(stream, model)
    print(f"log_prob {format(result.log_prob, '.17g')}")
    for seg in result.segmentation:
        if model.states is not None:
            s = model.states[seg.y]
            print(f"segment {seg.b} {seg.d} {fileio._pose_scene(s.pose, s.scene)}")
        else:
            print(f"segment {seg.b} {seg.d} state{seg.y}")
    if args.out:
        fileio.write_decoded(result.segmentation, result.log_prob, args.out, model.states)
    return 0


def _cmd_summarize(args) -> int:
    summarize.check_history_params(
        args.sample_every, args.window, args.consistency,
        ("--sample-every", "--window", "--consistency"),
    )
    # a NaN or infinite value fails the comparison too
    if not 0.0 < args.tick_seconds < math.inf:
        raise BadArgument(
            f"--tick-seconds must be a finite number > 0, got {args.tick_seconds}"
        )
    model, stream = _load_pair(args)
    if not math.isfinite(stream.T * args.tick_seconds):
        raise BadArgument(
            f"--tick-seconds {args.tick_seconds} times T={stream.T} ticks is not finite"
        )
    if model.states is None:
        raise FormatError(
            f"{args.model}: model has no state lines, so its states have no pose names"
        )
    records = summarize_history(
        stream, model, args.sample_every, args.window, args.consistency
    )
    s = args.tick_seconds
    for rec in records:
        t0 = (rec.window_start - 1) * s
        t1 = (rec.window_start - 1 + rec.window_len) * s
        scene = rec.scene.value if rec.scene is not None else "-"
        print(
            f"[{t0:8.1f}s, {t1:8.1f}s)  {rec.label.display_symbol:>3}  "
            f"{rec.label.value:<10}  {scene:<2}  {rec.confidence:.2f}"
        )
    if args.out:
        fileio.write_history(
            records,
            args.out,
            {
                "sample_every": args.sample_every,
                "window": args.window,
                "consistency": args.consistency,
                "tick_seconds": args.tick_seconds,
            },
        )
    return 0


def _cmd_keyframes(args) -> int:
    keyframes.check_keyframe_params(args.k_max, args.th, args.stage2_th, _KEYFRAME_FLAGS)
    stream = fileio.read_stream(args.stream)
    keyframes.check_clip(stream, args.stream)
    if args.binarize:
        stream = binarize_stream(stream)
    kfs = select_keyframes(stream, args.k_max, args.th, args.stage2_th)
    if kfs.static:
        print("static clip: endpoints only")
    for kf in kfs:
        channel = str(kf.channel) if kf.channel is not None else "-"
        print(f"keyframe {kf.frame_index} {channel} {kf.score:.6f} stage{kf.stage}")
    if args.out:
        fileio.write_keyframes(kfs, args.out)
    return 0


def _read_manifest(path):
    """Check every manifest line, then return its clips as a one-pass iterator.

    Field counts and labels are checked for every line before any clip is
    read, so a bad line is reported at ``path:line`` first.  The iterator
    yields ``(stream, from, to, direction)`` and reads each clip's stream
    only when asked for it; a clip that cannot be read, or whose F differs
    from the first clip's, is reported at its own manifest line.
    """
    base = Path(path).parent
    entries = []
    for lineno, raw in enumerate(fileio._read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(
                f"{path}:{lineno}: expected '<stream> <from> <to> <direction>'"
            )
        try:
            labels = (
                PoseLabel(parts[1]), PoseLabel(parts[2]), RotationDirection(parts[3])
            )
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        # an absolute clip path replaces the manifest's directory
        entries.append((lineno, base / parts[0], labels))
    if not entries:
        raise FormatError(f"{path}: manifest lists no clips")

    def clips():
        F = None
        for lineno, clip_path, labels in entries:
            try:
                stream = fileio.read_stream(clip_path)
            except OSError as exc:
                raise FormatError(
                    f"{path}:{lineno}: {clip_path}: {exc.strerror or exc}"
                ) from exc
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            F = stream.F if F is None else F
            if stream.F != F:
                raise FormatError(
                    f"{path}:{lineno}: {clip_path}: stream has F={stream.F}, "
                    f"earlier clips have F={F}"
                )
            keyframes.check_clip(stream, f"{path}:{lineno}: {clip_path}")
            yield (stream, *labels)
            # hold no stream while the next one is read
            del stream

    return clips()


def _cmd_classify_transition(args) -> int:
    keyframes.check_keyframe_params(args.k_max, args.th, args.stage2_th, _KEYFRAME_FLAGS)
    clips = _read_manifest(args.manifest)
    # a clip to reject costs no library fit, except that its channels need
    # the chains; every manifest clip has the first one's F
    clip = fileio.read_stream(args.clip)
    keyframes.check_clip(clip, args.clip)
    first = next(clips)
    if clip.F != first[0].F:
        raise FormatError(
            f"{args.clip}: clip has F={clip.F}, manifest {args.manifest} clips "
            f"have F={first[0].F}"
        )
    library = build_transition_library(
        itertools.chain([first], clips), args.k_max, args.th, args.stage2_th
    )
    if not library.entries:
        raise FormatError(
            f"{args.manifest}: every clip is static at --th {args.th}; "
            "no transition chain to score against"
        )
    modelled = {c for chain in library.entries.values() for c in chain.means}
    _check_channels(clip, args.clip, modelled, f"the chains of manifest {args.manifest}")
    record = classify_transition(
        clip,
        library,
        args.k_max,
        args.th,
        args.stage2_th,
        use_keyframes=not args.full_rate,
    )
    print(
        f"transition {record.from_pose.value} -> {record.to_pose.value} "
        f"({record.direction.value}), {record.n_pseudo_poses} pseudo-poses, "
        f"log_prob {record.log_prob:.6f}"
    )
    if args.out:
        fileio.write_transition(record, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    truth = fileio.read_truth(args.truth)
    metrics: list[tuple[str, float]] = []

    if args.decoded:
        segmentation, _ = fileio.read_decoded(args.decoded, (args.truth, truth))
        metrics.append(
            ("frame_accuracy", frame_accuracy(segmentation, truth.segmentation))
        )

    if args.history:
        params, predicted = fileio.read_history(args.history)
        reference = history_from_segments(truth.segmentation, truth.space, *params)
        if len(predicted) != len(reference):
            raise FormatError(
                f"{args.history}: {len(predicted)} records, but truth {args.truth} "
                f"gives {len(reference)} windows of {params[1]} ticks"
            )
        metrics.append(
            ("window_detection_rate", window_detection_rate(predicted, reference))
        )

    if args.transitions:
        if truth.transition is None:
            raise FormatError(f"{args.truth}: sidecar carries no transition label")
        records = fileio.read_transitions(args.transitions)
        if not records:
            raise FormatError(f"{args.transitions}: file holds no transition records")
        want = truth.transition
        hits = sum(
            (r.from_pose, r.to_pose, r.direction) == want for r in records
        )
        metrics.append(("transition_accuracy", hits / len(records)))

    if not metrics:
        raise FormatError("nothing to evaluate; pass --decoded, --history, or --transitions")
    width = max(len(name) for name, _ in metrics)
    for name, value in metrics:
        print(f"{name:<{width}}  {value:.6f}")
    for name, value in metrics:
        print(f"metric {name} {format(value, '.17g')}")
    return 0


def _add_binarize(p):
    p.add_argument(
        "--binarize", action="store_true", help="threshold features at 0.5 first"
    )


def _add_keyframe_args(p):
    p.add_argument("--k-max", dest="k_max", type=int, default=keyframes.DEFAULT_K_MAX)
    p.add_argument("--th", type=float, default=keyframes.DEFAULT_THRESHOLD)
    p.add_argument("--stage2-th", dest="stage2_th", type=float, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posehsmm",
        description="Duration-explicit pose decoding, keyframing, and summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit a synthetic stream (+ truth sidecar)")
    p.add_argument("--preset", choices=sorted(PRESETS), default="bc-sim")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--t-target", dest="t_target", type=int, default=None)
    p.add_argument("--d-max", dest="d_max", type=int, default=None)
    p.add_argument("--duration-mean", dest="duration_mean", type=float, default=None)
    p.add_argument("--duration-std", dest="duration_std", type=float, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--scene-switch", action="store_true")
    p.add_argument("--hold", dest="transition_hold", type=int, default=None,
                   help="transition clip hold length")
    p.add_argument("--ramp", dest="transition_ramp", type=int, default=None,
                   help="transition clip edge length")
    p.add_argument(
        "--transition",
        nargs=3,
        metavar=("FROM", "TO", "DIRECTION"),
        default=None,
        help=f"emit one transition clip; poses in {{{', '.join(_POSE_CHOICES)}}}, "
        f"direction in {{{', '.join(_DIR_CHOICES)}}}",
    )
    _add_binarize(p)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", dest="truth_out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a model from labeled streams")
    p.add_argument(
        "--data",
        nargs=2,
        metavar=("STREAM", "TRUTH"),
        action="append",
        required=True,
    )
    p.add_argument("--d-max", dest="d_max", type=int, default=None)
    _add_binarize(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("decode", help="best segmentation of a stream")
    p.add_argument("--model", required=True)
    p.add_argument("--stream", required=True)
    _add_binarize(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("summarize", help="windowed pose history of a stream")
    p.add_argument("--model", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument(
        "--sample-every",
        dest="sample_every",
        type=int,
        default=summarize.DEFAULT_SAMPLE_EVERY,
    )
    p.add_argument("--window", type=int, default=summarize.DEFAULT_WINDOW)
    p.add_argument("--consistency", type=float, default=summarize.DEFAULT_CONSISTENCY)
    p.add_argument(
        "--tick-seconds",
        dest="tick_seconds",
        type=float,
        default=1.0,
        help="seconds per tick, presentation only",
    )
    _add_binarize(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("keyframes", help="compress a clip to its key ticks")
    p.add_argument("--stream", required=True)
    _add_keyframe_args(p)
    _add_binarize(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_keyframes)

    p = sub.add_parser(
        "classify-transition", help="label a clip against a trained chain library"
    )
    p.add_argument("--manifest", required=True, help="training clips: stream from to direction")
    p.add_argument("--clip", required=True)
    _add_keyframe_args(p)
    p.add_argument(
        "--full-rate",
        dest="full_rate",
        action="store_true",
        help="score the raw clip instead of its keyframe compression",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify_transition)

    p = sub.add_parser("evaluate", help="score outputs against a truth sidecar")
    p.add_argument("--truth", required=True)
    p.add_argument("--decoded", default=None)
    p.add_argument("--history", default=None)
    p.add_argument("--transitions", default=None)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoFeasiblePath, NoTransitionDetected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PoseHsmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = exc.filename if exc.filename is not None else "-"
        print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Line-oriented text persistence for streams, models, and result records.

Every file starts with ``format: v1`` and a ``kind:`` line; unknown versions
are rejected.  Floats are written with 17 significant digits so values
round-trip bit-exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import NoReturn

import numpy as np

from .emission import ChannelEmissionModel, ChannelId, FeatureStream
from .errors import BadArgument, FormatError, MalformedSegmentation
from .inference import HsmmModel, check_initial_distribution
from .keyframes import KeyframeSet
from .states import (
    DurationModel,
    PoseLabel,
    RotationDirection,
    SceneCondition,
    Segment,
    Segmentation,
    StateId,
    StateSpace,
)
from .summarize import HistoryRecord, TransitionRecord, check_history_params

FORMAT_VERSION = "v1"

#: Tick lines a stream parse splits and converts at once; bounds the tokens
#: held in memory.
STREAM_CHUNK = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def _write(path, kind: str, header: dict, records) -> None:
    """Write the ``format:`` and ``kind:`` lines, one ``key: value`` line per
    header field, then each record line as ``records`` yields it; the only writer."""
    lines = chain(
        (f"format: {FORMAT_VERSION}", f"kind: {kind}"),
        (f"{key}: {value}" for key, value in header.items()),
        records,
    )
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a ``FormatError``
    naming the line that holds the first of them."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}:{line}: not UTF-8 text") from None


class _Reader:
    """Header-checked line reader shared by all parsers."""

    def __init__(self, path, kind: str):
        self.path = path
        raw = _read_text(path).splitlines()
        # 1-based file line number of each kept line
        self.numbers = [n for n, ln in enumerate(raw, start=1) if ln.strip()]
        self.lines = [raw[n - 1].strip() for n in self.numbers]
        self.pos = 0
        self.head: dict[str, str] = {}
        self.head_lines: dict[str, int] = {}
        if not self.lines or self.lines[0] != f"format: {FORMAT_VERSION}":
            raise FormatError(f"{path}: missing or unsupported format header")
        if len(self.lines) < 2 or self.lines[1] != f"kind: {kind}":
            raise FormatError(f"{path}: expected kind: {kind}")
        self.pos = 2
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            key, sep, value = line.partition(": ")
            if not sep or " " in key:
                break
            self.head[key] = value
            self.head_lines[key] = self.numbers[self.pos]
            self.pos += 1

    def numbered_records(self, *kinds: str):
        """``(line number, tokens)`` of each record; a record whose keyword
        is not one of ``kinds`` (when given) is a ``FormatError``."""
        for lineno, line in zip(self.numbers[self.pos :], self.lines[self.pos :]):
            rec = line.split()
            if kinds and rec[0] not in kinds:
                raise FormatError(f"{self.path}:{lineno}: unexpected record {rec[0]!r}")
            yield lineno, rec

    def header(self, key: str, parse=int):
        """Header field ``key`` through ``parse``; a missing field names the
        ``kind:`` line, an unparsable one its own line."""
        if key not in self.head:
            raise FormatError(f"{self.path}:{self.numbers[1]}: header has no {key!r} field")
        try:
            return parse(self.head[key])
        except ValueError as exc:
            where = f"{self.path}:{self.head_lines[key]}"
            raise FormatError(f"{where}: bad {key!r} field: {exc}") from None

    @contextmanager
    def line(self, lineno: int):
        """Report a malformed record (missing field, bad number, name or
        index) as a ``FormatError`` naming its line."""
        try:
            yield
        except (IndexError, KeyError, ValueError) as exc:
            raise FormatError(f"{self.path}:{lineno}: malformed record: {exc}") from None


def _fields(rec: list[str], n: int) -> list[str]:
    if len(rec) != n + 1:
        raise ValueError(f"{rec[0]} takes {n} fields, got {len(rec) - 1}")
    return rec[1:]


def _index(text: str, n: int) -> int:
    i = int(text)
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside 0..{n - 1}")
    return i


def _floats(tokens: list[str], n: int) -> list[float]:
    values = [float(v) for v in tokens]
    if len(values) != n or not all(map(math.isfinite, values)):
        raise ValueError(f"need {n} finite values, got {' '.join(tokens)!r}")
    return values


def _channels(text: str) -> list[ChannelId]:
    return [ChannelId.parse(c) for c in text.split()]


def _state(rec: list[str]) -> StateId:
    index, pose, scene = _fields(rec, 3)
    return StateId(PoseLabel(pose), _scene_parse(scene), int(index))


def _pose_scene(pose: PoseLabel, scene: SceneCondition | None) -> str:
    """``pose scene``, with ``-`` for a scene-agnostic state."""
    return f"{pose.value} {scene.value if scene is not None else '-'}"


def _scene_parse(text: str) -> SceneCondition | None:
    return None if text == "-" else SceneCondition(text)


# =====================================================================
# Feature streams
# =====================================================================


def write_stream(stream: FeatureStream, path) -> None:
    channels = stream.channels
    if not channels:
        # read_stream refuses a header that lists no channel
        raise FormatError(f"{path}: no channel of the stream is ever available")
    X, mask, ever = stream.X, stream.mask, stream.mask.any(axis=1).tolist()
    bits = ("".join("1" if b else "0" for b in compress(mask[:, t].tolist(), ever))
            for t in range(stream.T))
    # a never-available channel has no True mask, so X[mask[:, t], t] skips it
    ticks = (f"tick {t + 1} {b} " + " ".join(_fmt(v) for v in X[mask[:, t], t].ravel().tolist())
             for t, b in enumerate(bits))
    header = {"T": stream.T, "F": stream.F, "channels": " ".join(str(c) for c in channels)}
    _write(path, "stream", header, ticks)


def read_stream(path) -> FeatureStream:
    """Parse a stream file: each tick 1..T exactly once, every feature a
    finite number in [0, 1], else ``FormatError`` naming file and line.

    An F too large for the longest tick line to hold F values is rejected
    at its header line before anything of size F is allocated, and
    (channels, T, F) values that memory cannot hold are a ``FormatError``
    naming the file.  Tick lines are parsed and checked in bulk,
    ``STREAM_CHUNK`` at a time.
    When a check fails, ``_first_bad_tick`` rescans them in file order and
    raises the message of the first bad line, or of the tick count.
    """
    r = _Reader(path, "stream")
    T = r.header("T")
    F = r.header("F")
    channels = r.header("channels", _channels)
    if T < 1 or F < 1 or len(set(channels)) != len(channels):
        raise FormatError(f"{path}: bad stream header: T={T} F={F} {channels}")
    lines = r.lines[r.pos :]
    if len(lines) != T:
        _first_bad_tick(r, T, F, len(channels))
    # F values take 2F characters at least, so a larger F fits on no tick
    # line; it is rejected before X, (channels, T, F), is allocated
    longest = max(map(len, lines))
    if 2 * F > longest:
        raise FormatError(
            f"{path}:{r.head_lines['F']}: F={F} values fit on no tick line, "
            f"the longest has {longest} characters"
        )
    # X, each chunk's tick rows and the stream's copy are sized by the
    # header, so a sparse file can ask for far more memory than it holds
    try:
        X = np.zeros((len(channels), T, F))
        mask = np.zeros((len(channels), T), dtype=bool)
        seen = np.zeros(T, dtype=bool)
        chunks = (lines[lo : lo + STREAM_CHUNK] for lo in range(0, T, STREAM_CHUNK))
        parsed = all(_parse_ticks(chunk, X, mask, seen) for chunk in chunks)
        if not parsed or not seen.all():
            _first_bad_tick(r, T, F, len(channels))
        return FeatureStream.from_arrays(
            {c: X[k] for k, c in enumerate(channels)},
            {c: mask[k] for k, c in enumerate(channels)},
        )
    except MemoryError:
        raise FormatError(
            f"{path}: {len(channels)} channel(s) x T={T} x F={F} values do not fit in memory"
        ) from None


def _parse_ticks(
    lines: list[str], X: np.ndarray, mask: np.ndarray, seen: np.ndarray
) -> bool:
    """Parse tick lines into X, mask and seen; False if any line is bad.

    Ticks go through ``int`` and values through ``float``, as in a line
    by line parse, so both accept the same tokens.
    """
    n_ch, T, F = X.shape
    parts = [line.split(None, 3) for line in lines]
    if any(len(p) < 3 or p[0] != "tick" or len(p[2]) != n_ch for p in parts):
        return False
    tokens = [p[3].split() if len(p) == 4 else [] for p in parts]
    counts = np.fromiter(map(len, tokens), np.int64, len(parts))
    try:
        ticks = np.fromiter(map(int, [p[1] for p in parts]), np.int64, len(parts))
        values = np.fromiter(
            map(float, chain.from_iterable(tokens)), float, counts.sum()
        )
    except (ValueError, OverflowError):
        return False
    bits = np.frombuffer("".join(p[2] for p in parts).encode(), np.uint8) - ord("0")
    if bits.size != len(parts) * n_ch or bits.max() > 1:
        return False
    on = bits.reshape(len(parts), n_ch).astype(bool)
    if ticks.min() < 1 or ticks.max() > T or np.any(counts != on.sum(axis=1) * F):
        return False
    if not np.all((values >= 0.0) & (values <= 1.0)):
        return False
    rows = np.zeros((len(parts), n_ch, F))
    rows[on] = values.reshape(-1, F)
    X[:, ticks - 1] = rows.transpose(1, 0, 2)
    mask[:, ticks - 1] = on.T
    seen[ticks - 1] = True
    return True


def _first_bad_tick(r: _Reader, T: int, F: int, n_ch: int) -> NoReturn:
    """Raise the ``FormatError`` of the first bad tick line, in file order,
    else of the tick count.  Accepts nothing."""
    path = r.path
    seen: set[int] = set()
    for lineno, rec in r.numbered_records("tick"):
        where = f"{path}:{lineno}"
        try:
            t = int(rec[1])
            bits = rec[2]
            values = [float(v) for v in rec[3:]]
        except (IndexError, ValueError) as exc:
            raise FormatError(f"{where}: malformed tick line: {exc}") from None
        if not 1 <= t <= T:
            raise FormatError(f"{where}: tick {t} outside 1..{T}")
        if t in seen:
            raise FormatError(f"{where}: duplicate tick {t}")
        bad_bits = len(bits) != n_ch or not set(bits) <= {"0", "1"}
        if bad_bits or len(values) != bits.count("1") * F:
            raise FormatError(f"{where}: malformed tick {t}")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise FormatError(f"{where}: features must be finite and in [0, 1]")
        seen.add(t)
    raise FormatError(f"{path}: {len(seen)} ticks for T={T}")


# =====================================================================
# Ground-truth sidecars
# =====================================================================


@dataclass
class TruthFile:
    """Planted truth as persisted: states, segments, scene runs, transition."""

    space: StateSpace
    segmentation: Segmentation
    scene_track: tuple[tuple[int, int, SceneCondition], ...]
    transition: tuple[PoseLabel, PoseLabel, RotationDirection] | None = None


def write_truth(
    space: StateSpace,
    segmentation: Segmentation,
    scene_track,
    path,
    transition=None,
) -> None:
    """Write one ``scene`` line per (first tick, length, scene) run, as given."""
    lines = [f"state {s.index} {_pose_scene(s.pose, s.scene)}" for s in space]
    for seg in segmentation:
        lines.append(f"segment {seg.b} {seg.d} {seg.y_index}")
    for b, n, scene in scene_track:
        lines.append(f"scene {b} {n} {scene.value}")
    if transition is not None:
        lines.append(
            "transition "
            f"{transition.from_pose.value} {transition.to_pose.value} "
            f"{transition.direction.value}"
        )
    _write(path, "truth", {"T": segmentation.T, "Q": len(space)}, lines)


def read_truth(path) -> TruthFile:
    """Parse a truth file: Q states, segment states in 0..Q-1, and segments
    and scene runs tiling 1..T, else ``FormatError`` naming file (and line)."""
    r = _Reader(path, "truth")
    T = r.header("T")
    Q = r.header("Q")
    states: list[StateId] = []
    segments: list[Segment] = []
    scenes: list[tuple[int, int, SceneCondition]] = []
    covered = 0
    transition = None
    for lineno, rec in r.numbered_records("state", "segment", "scene", "transition"):
        with r.line(lineno):
            if rec[0] == "state":
                states.append(_state(rec))
            elif rec[0] == "segment":
                b, d, y = _fields(rec, 3)
                segments.append(Segment(int(b), int(d), _index(y, Q)))
            elif rec[0] == "scene":
                b, n, scene = _fields(rec, 3)
                if int(b) != covered + 1 or not 1 <= int(n) <= T - covered:
                    raise ValueError(f"scene runs must tile 1..T, got {b} {n}")
                scenes.append((int(b), int(n), SceneCondition(scene)))
                covered += int(n)
            else:
                a, b, direction = _fields(rec, 3)
                transition = (PoseLabel(a), PoseLabel(b), RotationDirection(direction))
    try:
        space = StateSpace(tuple(sorted(states, key=lambda s: s.index)))
        segmentation = Segmentation(tuple(segments), T)
    except (MalformedSegmentation, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    if len(space) != Q:
        raise FormatError(f"{path}: {len(space)} states for Q={Q}")
    if covered != T:
        raise FormatError(f"{path}: scene runs cover {covered} ticks for T={T}")
    return TruthFile(space, segmentation, tuple(scenes), transition)


# =====================================================================
# Models
# =====================================================================


def write_model(model: HsmmModel, path) -> None:
    if not isinstance(model.durations, DurationModel):
        raise FormatError("only Gaussian-duration models are persisted")
    channels = sorted(model.emissions)
    F = model.emissions[channels[0]].F if channels else 0
    lines = [f"state {s.index} {_pose_scene(s.pose, s.scene)}" for s in model.states or ()]
    lines.append("pi " + " ".join(_fmt(v) for v in model.pi))
    for i in range(model.n_states):
        lines.append(f"trans {i} " + " ".join(_fmt(v) for v in model.A[i]))
    for i in range(model.n_states):
        lines.append(
            f"dur {i} {_fmt(model.durations.mean[i])} {_fmt(model.durations.std[i])}"
        )
    for c in channels:
        means = model.emissions[c].means
        for i in range(model.n_states):
            lines.append(f"emit {c} {i} " + " ".join(_fmt(v) for v in means[i]))
    header = {
        "Q": model.n_states,
        "F": F,
        "d_max": model.d_max,
        "channels": " ".join(str(c) for c in channels),
    }
    _write(path, "model", header, lines)


def read_model(path) -> HsmmModel:
    """Parse a model file: every value finite, every index in range, pi a
    distribution, every duration mean and std positive, every emission mean
    in [0, 1], and exactly one pi, trans, dur and emit record per state and
    channel, else ``FormatError`` naming file (and line)."""
    r = _Reader(path, "model")
    Q = r.header("Q")
    F = r.header("F")
    d_max = r.header("d_max")
    channels = r.header("channels", _channels)
    if Q < 1 or F < 0 or d_max < 1:
        raise FormatError(f"{path}: bad model header: Q={Q} F={F} d_max={d_max}")
    # a model has a trans and a dur record per state, so fewer records than
    # Q is a bad header; rows become arrays only once every record is read
    n_records = len(r.lines) - r.pos
    if n_records < Q:
        raise FormatError(f"{path}: {n_records} records for Q={Q}")
    states: list[StateId] = []
    pi = None
    trans: dict[int, list[float]] = {}
    dur: dict[int, list[float]] = {}
    means: dict[ChannelId, dict[int, list[float]]] = {c: {} for c in channels}
    seen: set[tuple] = set()

    def once(*record) -> None:
        if record in seen:
            raise ValueError(f"duplicate {' '.join(map(str, record))} record")
        seen.add(record)

    for lineno, rec in r.numbered_records("state", "pi", "trans", "dur", "emit"):
        with r.line(lineno):
            if rec[0] == "state":
                states.append(_state(rec))
            elif rec[0] == "pi":
                once("pi")
                pi = check_initial_distribution(_floats(rec[1:], Q))
            elif rec[0] == "trans":
                i = _index(rec[1], Q)
                once("trans", i)
                trans[i] = _floats(rec[2:], Q)
            elif rec[0] == "dur":
                i, m, sd = _fields(rec, 3)
                i = _index(i, Q)
                once("dur", i)
                dur[i] = _floats([m, sd], 2)
                if not (dur[i][0] > 0.0 and dur[i][1] > 0.0):
                    raise ValueError("duration mean and std must be positive")
            else:
                c, i = ChannelId.parse(rec[1]), _index(rec[2], Q)
                once("emit", c, i)
                row = _floats(rec[3:], F)
                if not all(0.0 <= v <= 1.0 for v in row):
                    raise ValueError("emission means must lie in [0, 1]")
                means[c][i] = row
    expected = {("pi",)}
    expected |= {(kind, i) for kind in ("trans", "dur") for i in range(Q)}
    expected |= {("emit", c, i) for c in channels for i in range(Q)}
    missing = sorted(" ".join(map(str, rec)) for rec in expected - seen)
    if missing:
        raise FormatError(f"{path}: missing record(s): {', '.join(missing)}")
    if states and len(states) != Q:
        raise FormatError(f"{path}: {len(states)} states for Q={Q}")
    A = np.array([trans[i] for i in range(Q)])
    mean = np.array([dur[i][0] for i in range(Q)])
    std = np.array([dur[i][1] for i in range(Q)])
    try:
        space = (
            StateSpace(tuple(sorted(states, key=lambda s: s.index))) if states else None
        )
        emissions = {
            c: ChannelEmissionModel(c, np.reshape([rows[i] for i in range(Q)], (Q, F)))
            for c, rows in means.items()
        }
        return HsmmModel(pi, A, DurationModel(mean, std, d_max), emissions, space)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# =====================================================================
# Result records
# =====================================================================


def write_decoded(segmentation: Segmentation, log_prob: float, path, space=None) -> None:
    lines = []
    for seg in segmentation:
        s = space[seg.y_index] if space is not None else None
        names = _pose_scene(s.pose, s.scene) if s is not None else "- -"
        lines.append(f"segment {seg.b} {seg.d} {seg.y_index} {names}")
    _write(path, "decoded", {"T": segmentation.T, "log_prob": _fmt(log_prob)}, lines)


def read_decoded(path, truth=None) -> tuple[Segmentation, float]:
    """Parse a decoded file: a finite ``log_prob`` and ``segment`` records of
    the five fields ``write_decoded`` writes, each state index >= 0, covering
    1..T, else ``FormatError`` naming file (and line).

    ``truth`` is a ``(path, TruthFile)`` pair to score the decode against.
    With it the file must cover the truth's T, each state index must lie in
    [0, Q), and a line that names a pose and scene (other than ``- -``) must
    name that state's; else the ``FormatError`` names both files.
    """
    r = _Reader(path, "decoded")
    T = r.header("T")
    log_prob = r.header("log_prob", _finite)
    if truth is not None:
        source, reference = truth
        if T != reference.segmentation.T:
            raise FormatError(f"{path}: decoded file covers T={T}, but truth {source} "
                              f"covers T={reference.segmentation.T}")
    segments = []
    for lineno, rec in r.numbered_records("segment"):
        with r.line(lineno):
            b, d, y, pose, scene = _fields(rec, 5)
            if int(y) < 0:
                raise ValueError(f"negative state index {y}")
            segments.append(Segment(int(b), int(d), int(y)))
        if truth is not None:
            y, space = segments[-1].y, reference.space
            where = f"{path}:{lineno}: state {y}"
            if y >= len(space):
                raise FormatError(f"{where} is outside the {len(space)} states of {source}")
            named = _pose_scene(space[y].pose, space[y].scene)
            if f"{pose} {scene}" not in ("- -", named):
                raise FormatError(
                    f"{where} is '{named}' in {source}, but the line names '{pose} {scene}'"
                )
    try:
        return Segmentation(tuple(segments), T), log_prob
    except MalformedSegmentation as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_history(records, path, params: dict | None = None) -> None:
    """Write ``params`` as the header, floats with 17 significant digits,
    then one ``record`` line per window."""
    header = {k: _fmt(v) if isinstance(v, float) else v for k, v in (params or {}).items()}
    lines = [
        f"record {rec.window_start} {rec.window_len} {rec.label.display_symbol} "
        f"{_pose_scene(rec.label, rec.scene)} {_fmt(rec.confidence)}"
        for rec in records
    ]
    _write(path, "history", header, lines)


def read_history(path) -> tuple[tuple[int, int, float], list[HistoryRecord]]:
    """The (sample_every, window, consistency) a history was made with, and
    its records.

    ``check_history_params`` checks the header's fields and gives a field
    it lacks the default; a field it rejects is a ``FormatError`` naming
    that field's line.  Record k (from 0) has six fields: it starts at tick
    1 + k * window, its length is in 1..window, its symbol is its pose's
    ``display_symbol`` and its confidence lies in [0, 1]; else the
    ``FormatError`` names the record's line.
    """
    r = _Reader(path, "history")
    fields = {"sample_every": int, "window": int, "consistency": float}
    try:
        params = check_history_params(
            **{key: r.header(key, parse) for key, parse in fields.items() if key in r.head}
        )
    except BadArgument as exc:
        # a default is valid alone, so a rejected field the header lacks is a
        # default window shorter than the header's sampling step
        line = r.head_lines.get(exc.param, r.head_lines.get("sample_every"))
        raise FormatError(f"{path}:{line}: {exc}") from None
    window = params[1]
    records = []
    for k, (lineno, rec) in enumerate(r.numbered_records("record")):
        with r.line(lineno):
            start, length, symbol, pose, scene, confidence = _fields(rec, 6)
            label, first = PoseLabel(pose), 1 + k * window
            record = HistoryRecord(
                int(start), int(length), label, _scene_parse(scene), float(confidence)
            )
            if record.window_start != first:
                raise ValueError(f"record {k + 1} must start at tick {first}, got {start}")
            if not 1 <= record.window_len <= window:
                raise ValueError(f"window length {length} outside 1..{window}")
            if symbol != str(label.display_symbol):
                raise ValueError(f"symbol {symbol} is not {pose}'s {label.display_symbol}")
            if not 0.0 <= record.confidence <= 1.0:
                raise ValueError(f"confidence {confidence} outside [0, 1]")
            records.append(record)
    return params, records


def write_keyframes(kfs: KeyframeSet, path) -> None:
    lines = []
    for kf in kfs:
        channel = str(kf.channel) if kf.channel is not None else "-"
        lines.append(f"keyframe {kf.frame_index} {channel} {_fmt(kf.score)} {kf.stage}")
    header = {
        "k_max": kfs.k_max,
        "threshold": _fmt(kfs.threshold),
        "static": str(kfs.static).lower(),
    }
    _write(path, "keyframes", header, lines)


def write_transition(record: TransitionRecord, path) -> None:
    line = (
        f"transition {record.from_pose.value} {record.to_pose.value} "
        f"{record.direction.value} {_fmt(record.log_prob)} {record.n_pseudo_poses}"
    )
    _write(path, "transition", {}, [line])


def read_transitions(path) -> list[TransitionRecord]:
    """Parse a transitions file: ``transition`` records of five fields, each
    with known labels, a finite log_prob and a pseudo-pose count >= 1, else
    ``FormatError`` naming file and line."""
    r = _Reader(path, "transition")
    records = []
    for lineno, rec in r.numbered_records("transition"):
        with r.line(lineno):
            a, b, direction, log_prob, n = _fields(rec, 5)
            labels = PoseLabel(a), PoseLabel(b), RotationDirection(direction)
            record = TransitionRecord(*labels, _finite(log_prob), int(n))
            if record.n_pseudo_poses < 1:
                raise ValueError(f"pseudo-pose count {n} is below 1")
            records.append(record)
    return records

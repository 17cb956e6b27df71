"""Two-resolution motion summaries: windowed pose history and transition labels.

The coarse resolution decodes a long stream, samples the decoded runs' states
at a fixed rate, and reports one modal pose per time window, demoting windows
whose modal fraction falls below a consistency threshold to ``other``.  The
fine resolution classifies a short transition clip by compressing it to
keyframes and scoring the resulting pseudo-pose stream against a library of
left-to-right chains, one per (initial pose, final pose, rotation direction).

A library is fitted one training clip at a time: each clip's keyframe rows
go into running per-key sums, counts and gap lists, and the clip is let go
before the next one is read, so a build holds the library and one clip.

A library stacks its chains once, when it is made: chains side by side in
name order, one stacked emission model per channel set.  A clip is then
scored against every chain with one emission pass per channel set, one
prefix sum and one duration table; only the segment DP still runs chain by
chain, on each chain's columns.  A clip is classified from the DPs'
log-probs alone: a chain's best alignment visits each pseudo-pose once, so
its segment count is the chain's length and no chain is backtracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .emission import (
    ChannelEmissionModel,
    ChannelId,
    FeatureStream,
    log_emission_matrix,
)
from .errors import (
    BadArgument, LabelMismatch, NoFeasiblePath, NoTransitionDetected, is_integer, is_number
)
from .inference import (
    MIN_DURATION_STD,
    HsmmModel,
    hsmm_viterbi,
    segment_viterbi_on_tables,
)
from .keyframes import (
    DEFAULT_K_MAX,
    DEFAULT_THRESHOLD,
    check_keyframe_params,
    keyframes_to_pseudo_pose_stream,
    select_keyframes,
)
from .states import (
    DurationModel,
    PoseLabel,
    RotationDirection,
    SceneCondition,
    Segmentation,
    StateSpace,
    segment_runs,
)

#: A history's sampling step, window and consistency unless a caller sets them;
#: a window reports its modal pose when at least this fraction of samples agree.
DEFAULT_SAMPLE_EVERY = 1
DEFAULT_WINDOW = 10
DEFAULT_CONSISTENCY = 0.8

#: Duration std floor reused for chain dwell statistics.
MIN_GAP_STD = MIN_DURATION_STD


@dataclass(frozen=True)
class HistoryRecord:
    """One summarized window: modal pose, modal scene, and the modal fraction.

    ``label`` is OTHER whenever ``confidence`` is below the consistency
    threshold, but the confidence always reports the true modal fraction.
    """

    window_start: int
    window_len: int
    label: PoseLabel
    scene: SceneCondition | None
    confidence: float


@dataclass(frozen=True)
class TransitionRecord:
    """A classified transition.  Self-pairs denote a roll away and back."""

    from_pose: PoseLabel
    to_pose: PoseLabel
    direction: RotationDirection
    log_prob: float
    n_pseudo_poses: int


def check_history_params(
    sample_every=DEFAULT_SAMPLE_EVERY,
    window=DEFAULT_WINDOW,
    consistency=DEFAULT_CONSISTENCY,
    names=("sample_every", "window", "consistency"),
) -> tuple[int, int, float]:
    """Return the parameters, defaults filled in, if ``sample_every`` and
    ``window`` are integers >= 1, ``window >= sample_every`` and
    ``consistency`` lies in [0, 1]; else raise ``BadArgument``, whose message
    calls them by ``names`` (a caller's flags, say) and whose ``param`` is the
    one that failed (``window`` when the two disagree)."""
    for param, name, value in zip(("sample_every", "window"), names, (sample_every, window)):
        if not is_integer(value) or value < 1:
            raise BadArgument(f"{name} must be an integer >= 1, got {value}", param)
    if window < sample_every:
        raise BadArgument(
            f"{names[1]} must be at least {names[0]} {sample_every}, got {window}", "window"
        )
    # NaN fails the comparison too
    if not (is_number(consistency) and 0.0 <= consistency <= 1.0):
        raise BadArgument(f"{names[2]} must be in [0, 1], got {consistency}", "consistency")
    return sample_every, window, consistency


def history_from_segments(
    segmentation: Segmentation,
    space: StateSpace,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    window: int = DEFAULT_WINDOW,
    consistency: float = DEFAULT_CONSISTENCY,
) -> list[HistoryRecord]:
    """Windowed modal summary of a segmentation's states.

    Ticks 1, 1+sample_every, ... are sampled; windows tile from tick 1 and
    the trailing partial window is kept as long as it contains a sample.
    Ties on the modal pose or scene resolve by name order for determinism.
    The runs are cut at the window ends, and each piece counts its sampled
    ticks at once, so the work is O(windows + segments) whatever T is.
    Parameters ``check_history_params`` rejects, an argument that is not a
    ``Segmentation``, or a run state outside 0..Q-1 raise ``BadArgument``.
    """
    check_history_params(sample_every, window, consistency)
    ((states, durations),) = segment_runs([segmentation], len(space), "segmentation")
    T = segmentation.T
    # a step or window past T makes the same history as one of T, and fits in int64
    sample_every, window = min(sample_every, T), min(window, T)
    # value order, so the first of the modal counts is the tie-break winner
    poses = sorted({s.pose for s in space}, key=lambda p: p.value)
    scenes = sorted({s.scene for s in space} - {None}, key=lambda c: c.value)
    pose_of = np.array([poses.index(s.pose) for s in space])
    # scene-agnostic states count in a last column
    scene_of = np.array([len(scenes) if s.scene is None else scenes.index(s.scene)
                         for s in space])
    # piece p covers ticks cut[p - 1] + 1 .. cut[p], in one run and one window;
    # ticks 1..x hold ceil(x / sample_every) samples
    ends = np.cumsum(durations)
    cut = np.union1d(ends, np.arange(window, T, window))
    sampled = np.diff(-(-cut // sample_every), prepend=0)
    state = states[np.searchsorted(ends, cut)]
    where = (cut - 1) // window
    n_windows = -(-T // window)

    def counts(code, width):
        flat = np.zeros(n_windows * width, np.int64)
        np.add.at(flat, where * width + code[state], sampled)
        return flat.reshape(n_windows, width)

    pose_counts = counts(pose_of, len(poses))
    scene_counts = counts(scene_of, len(scenes) + 1)
    # the last column, read as no scene, is the mode only when no sampled
    # state has a scene
    scene_counts[:, -1] = scene_counts[:, :-1].sum(axis=1) == 0
    scenes.append(None)
    rows = zip(
        pose_counts.sum(axis=1).tolist(),
        pose_counts.argmax(axis=1).tolist(),
        pose_counts.max(axis=1).tolist(),
        scene_counts.argmax(axis=1).tolist(),
    )
    records: list[HistoryRecord] = []
    for w, (n, pose, count, scene) in enumerate(rows):
        if not n:
            continue
        start = w * window + 1
        confidence = count / n
        label = poses[pose] if confidence >= consistency else PoseLabel.OTHER
        records.append(
            HistoryRecord(
                start, min(window, T - start + 1), label, scenes[scene], confidence
            )
        )
    return records


def summarize_history(
    stream: FeatureStream,
    model: HsmmModel,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    window: int = DEFAULT_WINDOW,
    consistency: float = DEFAULT_CONSISTENCY,
) -> list[HistoryRecord]:
    """Decode a stream and produce its windowed pose history."""
    if model.states is None:
        raise BadArgument("model carries no state space; cannot name poses")
    # a bad parameter fails before the decode, not after it
    check_history_params(sample_every, window, consistency)
    segmentation = hsmm_viterbi(stream, model).segmentation
    return history_from_segments(segmentation, model.states, sample_every, window, consistency)


def window_detection_rate(
    predicted: Sequence[HistoryRecord], reference: Sequence[HistoryRecord]
) -> float:
    """Fraction of windows whose pose label matches the reference summary."""
    if len(predicted) != len(reference):
        raise LabelMismatch(
            f"{len(predicted)} predicted windows vs {len(reference)} reference"
        )
    if not reference:
        raise BadArgument("no windows to compare")
    hits = sum(p.label is r.label for p, r in zip(predicted, reference))
    return hits / len(reference)


def frame_accuracy(predicted: Segmentation, reference: Segmentation) -> float:
    """Fraction of ticks whose states agree, counted exactly over merged runs."""
    if predicted.T != reference.T:
        raise LabelMismatch(f"predicted covers T={predicted.T}, reference T={reference.T}")
    ends = [np.array([seg.end for seg in s]) for s in (predicted, reference)]
    merged = np.union1d(*ends)
    # a merged run lies in the first segment of each side that ends at or after it
    pred, ref = (np.array([seg.y for seg in s])[np.searchsorted(e, merged)]
                 for s, e in zip((predicted, reference), ends))
    return int(np.diff(merged, prepend=0)[pred == ref].sum()) / predicted.T


# =====================================================================
# Transition library
# =====================================================================


@dataclass
class TransitionChain:
    """Mean pseudo-pose chain for one (from, to, direction) combination.

    ``means`` holds one (L, F) matrix per channel; ``gap_mean``/``gap_std``
    are dwell statistics of the original keyframe tick gaps, used when a
    full-rate clip is scored instead of its keyframe compression.
    """

    means: dict[ChannelId, np.ndarray]
    gap_mean: np.ndarray
    gap_std: np.ndarray
    n_clips: int

    @property
    def length(self) -> int:
        return self.gap_mean.shape[0]


@dataclass(frozen=True)
class TransitionLibrary:
    """Chains keyed by (from, to, direction); at most 10 x 10 x 2 entries.

    The constructor stacks the chains side by side in ``sorted_keys()``
    order, which it keeps as ``keys``: chain i owns columns
    ``offsets[i]:offsets[i + 1]`` of the emission, prefix-sum and duration
    tables, ``groups`` stacks the chains of each channel set for one emission
    pass, and ``gap_mean`` / ``gap_std`` concatenate their dwell statistics.
    ``structure`` maps a chain length to its strict left-to-right (log pi,
    log A, final log) arrays, and ``widths`` lists the chains' feature
    widths, sorted.  A key that is no (PoseLabel, PoseLabel,
    RotationDirection) triple, or a value that is no ``TransitionChain`` with
    1-d ``gap_mean`` and ``gap_std`` of one length L >= 1 and (L, F) means
    of one F keyed by ``ChannelId``, raises ``BadArgument`` naming
    ``entries``, as do means outside [0, 1] and an ``entries`` that is no
    map.  ``entries`` becomes a read-only copy; a chain changed in place
    later is not scored.
    """

    entries: dict[
        tuple[PoseLabel, PoseLabel, RotationDirection], TransitionChain
    ]

    def __post_init__(self):
        if not isinstance(self.entries, Mapping):
            raise BadArgument(f"entries must be a map, got {self.entries!r}", "entries")
        # a frozen instance refuses setattr: write the copy and the derived
        # fields once, as cached_property writes its value
        vars(self)["entries"] = MappingProxyType(dict(self.entries))
        for key, chain in self.entries.items():
            _check_entry(key, chain)
        keys = tuple(self.sorted_keys())
        chains = [self.entries[k] for k in keys]
        lengths = tuple(chain.length for chain in chains)
        offsets = (0, *accumulate(lengths))
        members: dict[frozenset, list[int]] = {}
        for i, chain in enumerate(chains):
            members.setdefault(frozenset(chain.means), []).append(i)
        groups = []
        for channels, idx in members.items():
            rows = (0, *accumulate(lengths[i] for i in idx))
            height = rows[-1] + -rows[-1] % STACK_BLOCK
            models = {}
            for c in channels:
                means = np.full((height, chains[idx[0]].means[c].shape[1]), 0.5)
                for i, row in zip(idx, rows):
                    means[row : row + lengths[i]] = chains[i].means[c]
                models[c] = ChannelEmissionModel(c, means)
            spans = tuple(zip(rows, (offsets[i] for i in idx), (lengths[i] for i in idx)))
            groups.append(ChainGroup(models, spans, height))
        structure = {}
        for L in set(lengths):
            log_pi = np.full(L, -np.inf)
            log_pi[0] = 0.0
            log_A = np.full((L, L), -np.inf)
            log_A[np.arange(L - 1), np.arange(1, L)] = 0.0
            # the alignment must traverse the whole chain: end at the last pseudo-pose
            final_log = np.full(L, -np.inf)
            final_log[L - 1] = 0.0
            structure[L] = (log_pi, log_A, final_log)
        vars(self).update(
            keys=keys, lengths=lengths, offsets=offsets, groups=tuple(groups),
            gap_mean=np.concatenate([np.zeros(0), *(chain.gap_mean for chain in chains)]),
            gap_std=np.concatenate([np.zeros(0), *(chain.gap_std for chain in chains)]),
            structure=structure,
            widths=tuple(sorted({m.F for g in groups for m in g.models.values()})),
        )

    def __len__(self) -> int:
        return len(self.entries)

    def sorted_keys(self):
        return sorted(
            self.entries, key=lambda k: (k[0].value, k[1].value, k[2].value)
        )


def _check_entry(key, chain) -> None:
    """Raise ``BadArgument`` naming ``entries`` unless ``key`` and ``chain``
    make an entry ``TransitionLibrary`` can stack."""
    if not (isinstance(key, tuple) and len(key) == 3
            and all(map(isinstance, key, (PoseLabel, PoseLabel, RotationDirection)))):
        raise BadArgument(
            f"entries key {key!r} is no (PoseLabel, PoseLabel, RotationDirection)", "entries"
        )
    name = " ".join(map(str, key))
    if not isinstance(chain, TransitionChain):
        raise BadArgument(
            f"entry {name} is a {type(chain).__name__}, not a TransitionChain", "entries"
        )
    means = chain.means
    arrays = (chain.gap_mean, chain.gap_std, *means.values()) if isinstance(means, dict) else ()
    if (arrays and all(isinstance(a, np.ndarray) for a in arrays)
            and all(isinstance(c, ChannelId) for c in means)):
        L = chain.gap_mean.shape
        shapes = {m.shape for m in means.values()}
        if (len(L) == 1 and L[0] >= 1 and chain.gap_std.shape == L and len(shapes) <= 1
                and all(len(s) == 2 and s[0] == L[0] for s in shapes)):
            # NaN fails the comparisons too
            if all(m.dtype.kind in "iuf" and ((m >= 0.0) & (m <= 1.0)).all()
                   for m in means.values()):
                return
            raise BadArgument(f"entry {name}: emission means must be numbers in [0, 1]",
                              "entries")
    raise BadArgument(
        f"entry {name} needs 1-d gap_mean and gap_std arrays of one length L >= 1 "
        "and, per ChannelId, an (L, F) means array of one F", "entries"
    )


class _ChainSums:
    """Running keyframe sums of one key's clips, added in arrival order.

    Per channel, row p holds position p's feature sums and, in the last
    column, how many clips saw the channel there; rows grow to the longest
    keyframe set that touched the channel.  A sum starts at zero and takes
    each clip's value in turn, so the means carry the bits of an average
    over the whole group.
    """

    def __init__(self, F: int):
        self.F = F
        self.sums: dict[ChannelId, np.ndarray] = {}
        self.gaps: list[list[float]] = []
        self.n_clips = 0

    def add(self, stream: FeatureStream, ticks: tuple[int, ...]) -> None:
        L = len(ticks)
        self.gaps += [[] for _ in range(L - len(self.gaps))]
        rows = np.array(ticks) - 1
        # X is +0.0 wherever its channel is unavailable, and a sum that starts
        # at +0.0 never becomes -0.0, so adding whole rows gives every sum
        # the bits of adding the available rows alone
        X, seen = stream.X[:, rows], stream.mask[:, rows]
        for k, c in enumerate(stream.channel_ids):
            acc = self.sums.get(c)
            if acc is None:
                # a channel the clip never shows is not a chain channel (yet)
                if not stream.mask[k].any():
                    continue
                acc = np.zeros((0, self.F + 1))
            if len(acc) < L:
                acc = self.sums[c] = np.vstack([acc, np.zeros((L - len(acc), self.F + 1))])
            acc[:L, :-1] += X[k]
            acc[:L, -1] += seen[k]
        for p, (t, nxt) in enumerate(zip(ticks, ticks[1:] + (stream.T + 1,))):
            self.gaps[p].append(float(nxt - t))
        self.n_clips += 1

    def chain(self) -> TransitionChain:
        length = len(self.gaps)
        means = {}
        for c in sorted(self.sums):
            acc = self.sums[c]
            m = np.full((length, self.F), 0.5)
            seen = acc[:, -1] > 0
            m[: len(acc)][seen] = acc[seen, :-1] / acc[seen, -1:]
            means[c] = m
        gap_mean = np.zeros(length)
        gap_std = np.zeros(length)
        for p, values in enumerate(self.gaps):
            arr = np.asarray(values)
            gap_mean[p] = arr.mean()
            gap_std[p] = max(float(arr.std()), MIN_GAP_STD)
        return TransitionChain(means, gap_mean, gap_std, self.n_clips)


def build_transition_library(
    clips: Iterable[
        tuple[FeatureStream, PoseLabel, PoseLabel, RotationDirection]
    ],
    k_max: int = DEFAULT_K_MAX,
    threshold: float = DEFAULT_THRESHOLD,
    stage2_threshold: float | None = None,
) -> TransitionLibrary:
    """Fit pseudo-pose chains from labeled training clips.

    Each clip is compressed to keyframes; clips sharing a combination are
    aligned by keyframe ordinal and averaged per position and channel.
    Static clips contribute nothing.  A position's channel mean falls back to
    0.5 when the channel was never available there.  Every clip must have
    the same feature width F.

    ``clips`` is read once, in order, and one clip at a time: its keyframe
    rows go into running per-key sums before the next clip is drawn, so a
    build holds the library and a single stream, whatever the number of
    clips.
    """
    # a bad parameter fails before the first clip is read, and with no clips
    check_keyframe_params(k_max, threshold, stage2_threshold)
    fits: dict[tuple, _ChainSums] = {}
    F = None
    for stream, from_pose, to_pose, direction in clips:
        F = stream.F if F is None else F
        if stream.F != F:
            raise BadArgument(f"clips mix feature widths {sorted({F, stream.F})}")
        kfs = select_keyframes(stream, k_max, threshold, stage2_threshold)
        if not kfs.static:
            key = (from_pose, to_pose, direction)
            if key not in fits:
                fits[key] = _ChainSums(F)
            fits[key].add(stream, kfs.ticks)
        # release the stream before the iterable reads the next one
        del stream
    return TransitionLibrary({key: fit.chain() for key, fit in fits.items()})


#: Stacked emission means are padded to a multiple of this many states.
#: OpenBLAS computes the last (width mod 8) columns of a product in an edge
#: kernel whose rounding differs from the main kernel's (seen on an AVX-512
#: build); with the padding every chain column comes from the main kernel,
#: which gives the same bits as a product over that chain alone.
STACK_BLOCK = 16


@dataclass(frozen=True, eq=False)
class ChainGroup:
    """Chains that model one channel set, stacked for one emission pass.

    ``models`` holds each channel's chain means one chain below the other,
    padded with 0.5 rows to a multiple of ``STACK_BLOCK``.  ``spans`` lists
    each chain as (first stacked row, first table column, length).
    """

    models: dict[ChannelId, ChannelEmissionModel]
    spans: tuple[tuple[int, int, int], ...]
    height: int

    def log_emissions(self, stream: FeatureStream, E: np.ndarray) -> None:
        """Write every chain's (T, L) emission matrix into its columns of E."""
        ticks = dict(zip(stream.channel_ids, stream.mask.sum(axis=1)))
        if all(ticks.get(c, 0) != 1 for c in self.models):
            S = log_emission_matrix(stream, self.models, self.height)
            for row, col, L in self.spans:
                E[:, col : col + L] = S[:, row : row + L]
            return
        # numpy scores a channel seen at one tick with a matrix-vector
        # product, whose bits depend on the stack height: go chain by chain
        for row, col, L in self.spans:
            models = {
                c: ChannelEmissionModel(c, m.means[row : row + L])
                for c, m in self.models.items()
            }
            E[:, col : col + L] = log_emission_matrix(stream, models, L)


def score_chains(
    library: "TransitionLibrary", stream: FeatureStream, use_keyframes: bool = True
) -> list[float | None]:
    """Best left-to-right alignment log-prob of a stream onto every library chain.

    Log-probs follow ``sorted_keys()`` order; None marks a chain the stream
    cannot traverse (one longer than the stream).  Emissions, prefix sums and
    the duration table are computed once for all chains; the segment DP runs
    once per chain on its columns, and no chain is backtracked.
    ``use_keyframes`` must be a bool, else ``BadArgument``.
    """
    if not isinstance(use_keyframes, bool):
        raise BadArgument(f"use_keyframes must be a bool, got {use_keyframes!r}", "use_keyframes")
    if any(F != stream.F for F in library.widths):
        raise BadArgument(
            f"clip has feature width {stream.F}, library chains {list(library.widths)}"
        )
    T, n = stream.T, library.offsets[-1]
    E = np.empty((T, n))
    for group in library.groups:
        group.log_emissions(stream, E)
    C = np.vstack([np.zeros(n), np.cumsum(E, axis=0)])
    if use_keyframes:
        dur = DurationModel(np.ones(n), np.full(n, MIN_GAP_STD), T)
    else:
        dur = DurationModel(library.gap_mean, library.gap_std, T)
    log_dur = dur.log_pmf_table()
    log_probs: list[float | None] = []
    for L, a, b in zip(library.lengths, library.offsets, library.offsets[1:]):
        log_pi, log_A, final_log = library.structure[L]
        try:
            log_prob, _ = segment_viterbi_on_tables(
                T, log_pi, log_A, log_dur[a:b], C[:, a:b], final_log
            )
        except NoFeasiblePath:
            log_prob = None
        log_probs.append(log_prob)
    return log_probs


def classify_transition(
    clip: FeatureStream,
    library: TransitionLibrary,
    k_max: int = DEFAULT_K_MAX,
    threshold: float = DEFAULT_THRESHOLD,
    stage2_threshold: float | None = None,
    use_keyframes: bool = True,
) -> TransitionRecord:
    """Label a clip with the best-scoring library chain.

    The clip is compressed to keyframes (a static clip raises
    NoTransitionDetected) and, by default, the pseudo-pose stream is scored
    against every chain; ``use_keyframes=False`` scores the full-rate clip
    instead, using the chains' original tick-gap dwell statistics.  Ties
    prefer the shorter chain, then name order.  The record's pseudo-pose
    count is the winning chain's length.  In keyframe mode every chain
    shares one duration table, so chains as long as the pseudo-pose stream
    differ only in their emission terms.
    """
    if not isinstance(use_keyframes, bool):
        raise BadArgument(f"use_keyframes must be a bool, got {use_keyframes!r}", "use_keyframes")
    if not library.entries:
        raise BadArgument("transition library is empty")
    kfs = select_keyframes(clip, k_max, threshold, stage2_threshold)
    if kfs.static:
        raise NoTransitionDetected("clip shows no endpoint motion on any channel")
    target = keyframes_to_pseudo_pose_stream(clip, kfs) if use_keyframes else clip

    log_probs = score_chains(library, target, use_keyframes)
    feasible = [i for i, log_prob in enumerate(log_probs) if log_prob is not None]
    if not feasible:
        raise NoTransitionDetected("no library chain fits within the clip length")
    # chains come in name order, and min keeps the first of equal ranks
    best = min(feasible, key=lambda i: (-log_probs[i], library.lengths[i]))
    return TransitionRecord(*library.keys[best], log_probs[best], library.lengths[best])

"""Decoding and learning for the segment-level pose-state model.

Dwell times get an explicit per-state distribution and the transition matrix
has a structurally zero diagonal.  All scoring is done in log space.

The segment decoder keeps O(T x Q) state.  ``delta[j]`` is the best
log-probability of ticks 1..t with a segment in state j ending at t; only
tick t's row is kept.  Once per boundary s it takes the transition max
``enter[s, j] = max_i delta[i] + log_A[i, j]`` and its argmax ``earg[s, j]``
(``enter[0]`` is log pi, with argmax -1).  Each tick t first takes boundary
t - 1's transition max from the previous tick's ``delta``, so the unused
``enter[T]`` is never computed.  It then scores every final duration
d = 1..min(t, d_max) in one vector op, ``(enter[t-d] + log_dur[:, d]) +
(C[t] - C[t-d])``, keeps the best in ``delta`` and its column in
``best[t]``.  That is O(T x D x Q + T x Q^2) time.

The fill returns the best log-probability with the end state, d_cap,
``best`` and ``earg``.  ``segment_viterbi_on_tables`` returns the
log-probability alone, so a chain library never backtracks.
``hsmm_viterbi`` backtracks: it turns ``best[t]`` back into d, reads the
predecessor from ``earg[t - d]`` and scores the segments.

Every maximum is an argmax along contiguous rows and a gather at it.
``log_A`` is transposed once, so row j of ``log_A.T + delta`` lists the
candidates for ``enter[s, j]``.  Only the last d_cap = min(d_max, T) rows of
``enter`` are kept, transposed into a Q x d_cap window that shifts one column
per tick, so row j of a tick's score block lists state j's durations,
longest first.  ``C[t] - C[s]`` is taken for ``DP_BLOCK`` ticks in one
subtraction.  The layout changes neither the operands nor the order of any
addition above, so it changes no bit.

Every trellis, a 5-tick chain or a day-long recording, runs this one fill
from tick 1, save a chain with a single alignment, which is walked (below).
The window starts with the d_cap - 1 boundaries before tick 0, which enter
at -inf and whose spans read C as zero.  Their cells are -inf,
so they never win a finite maximum, and a state whose row is all -inf has
delta -inf either way.  Each block copies the C rows its spans subtract
into one reusable lag buffer; its rows before boundary 0 are never written,
so they stay zero.  The backtrack visits only cells on a finite path, so
each ``best`` column it reads is a real boundary.  That needs C free of
+inf, as emission log-likelihoods are.

Ties are broken at every decision, back to front.  The final state is the
lowest index among the best totals.  A segment ending at t in state j takes
the longest duration among the best, then the larger entry score
``enter[t-d, j]``.  That entry takes the lowest predecessor state among the
best, whose prefix total is the largest ``delta`` for that state at t - d.
So among paths with equal totals the decoder keeps the first under one key:
segments compared back to front by (state, prefix total, duration, entry
score), with lower states, larger totals, longer durations and larger
scores first.

A strict left-to-right chain as long as its stream has one alignment: with
T = Q, only state 0 starting, only j -> j + 1 moves and only state Q - 1
ending, state j holds tick j + 1 alone.  A keyframe-mode chain library
meets this trellis for every chain as long as the clip's pseudo-pose
stream.  Its total is walked, not filled: ``v = (enter + log_dur[j, 1]) +
(C[j + 1, j] - C[j, j])``, where ``enter`` is log pi[0] for j = 0 and
``v + log_A[j - 1, j]`` after.  The walk is exact.  A state j is out of
reach before tick j + 1, and every start, move and end off the chain is
-inf, so each maximum on the way to the end state has one candidate that
is not -inf, the walked one, with the same operands added in the same
order.  That holds while no cell is NaN or +inf, so the walk also asks
that no table hold either, that C be finite, and that the tables be small
enough for no sum of the fill to reach +inf.  Any other trellis is filled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .emission import ChannelEmissionModel, ChannelId, FeatureStream, log_emission_matrix
from .errors import (
    BadArgument,
    DurationOutOfRange,
    EmptySequence,
    LabelMismatch,
    NoFeasiblePath,
    is_integer,
)
from .states import (
    DurationModel,
    Segment,
    Segmentation,
    StateSpace,
    _check_d_max,
    segment_runs,
    state_table,
)

#: Row-stochasticity tolerance for transition matrices.
ROW_SUM_TOL = 1e-12

#: Floor on fitted duration standard deviations, so single observations stay usable.
MIN_DURATION_STD = 0.5

#: Ticks per block of the segment DP's fill, whose spans take one subtraction.
DP_BLOCK = 128


def check_transition_matrix(A: np.ndarray) -> np.ndarray:
    """Validate a (Q, Q) row-stochastic matrix with a zero diagonal; returns
    it as float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise BadArgument(f"transition matrix has shape {A.shape}")
    # NaN fails this comparison and the row-sum one
    if not np.all(A >= 0.0):
        raise BadArgument("transition probabilities must be nonnegative")
    # a single state has no successor, so its row stays all zero
    if A.shape[0] > 1 and not np.all(np.abs(A.sum(axis=1) - 1.0) <= ROW_SUM_TOL):
        raise BadArgument("transition rows must sum to 1")
    if np.any(np.diag(A) != 0.0):
        raise BadArgument("diagonal must be structurally zero")
    return A


def check_initial_distribution(pi: np.ndarray) -> np.ndarray:
    """Validate a 1-d distribution: nonnegative, summing to 1 within
    ``ROW_SUM_TOL``; returns it as float array."""
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1:
        raise BadArgument(f"pi has shape {pi.shape}", "pi")
    # NaN fails both comparisons
    if not (np.all(pi >= 0.0) and abs(pi.sum() - 1.0) <= ROW_SUM_TOL):
        raise BadArgument("pi must be nonnegative and sum to 1", "pi")
    return pi


@dataclass(eq=False)
class HsmmModel:
    """Segment-level model: explicit dwell distributions, zero-diagonal A.

    ``pi``, ``A``, the durations, every channel's emission means and
    ``states`` must agree on the state count Q."""

    pi: np.ndarray
    A: np.ndarray
    durations: DurationModel
    emissions: Mapping[ChannelId, ChannelEmissionModel]
    states: StateSpace | None = None

    def __post_init__(self):
        self.pi = check_initial_distribution(self.pi)
        self.A = check_transition_matrix(self.A)
        q = self.pi.shape[0]
        parts = {"A": self.A.shape[0], "durations": self.durations.n_states}
        if self.states is not None:
            parts["states"] = len(self.states)
        for name, n in parts.items():
            if n != q:
                raise BadArgument(f"pi gives Q={q}, {name} has {n} states", name)
        for c, m in self.emissions.items():
            if m.n_states != q:
                raise BadArgument(
                    f"pi gives Q={q}, {c} emission means have {m.n_states} rows", "emissions"
                )

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    @property
    def d_max(self) -> int:
        return self.durations.d_max


@dataclass(frozen=True)
class DecodeResult:
    """Best segmentation with its log-probability and per-segment breakdown."""

    segmentation: Segmentation
    log_prob: float
    per_segment_scores: tuple[float, ...]


# =====================================================================
# Parameter fits
# =====================================================================


def fit_transitions(segmentations: Sequence[Segmentation], n_states: int) -> np.ndarray:
    """Maximum-likelihood transition matrix from the runs of a list of
    segmentations.

    a[i, j] = count(i -> j) / count(i -> anything), counting consecutive
    runs; runs are maximal, so the diagonal is structurally zero.  Rows with
    no outgoing observation fall back to uniform off the diagonal (a single
    state's row stays zero).  Counts are pooled over the segmentations before
    normalizing.  An item that is not a ``Segmentation``, a run state
    outside [0, n_states), or an ``n_states`` that is no integer or exceeds
    ``N_STATES_LIMIT``, raises ``BadArgument``.
    """
    runs = segment_runs(segmentations, n_states, "segmentations")
    if not runs:
        raise EmptySequence("cannot fit transitions on no segmentations")
    counts = state_table(n_states, n_states)
    for states, _ in runs:
        np.add.at(counts, (states[:-1], states[1:]), 1.0)
    totals = counts.sum(axis=1, keepdims=True)
    uniform = (1.0 - np.eye(n_states)) / max(n_states - 1, 1)
    A = np.where(totals > 0.0, counts / np.maximum(totals, 1.0), uniform)
    return check_transition_matrix(A)


def fit_durations(
    segmentations: Sequence[Segmentation],
    n_states: int,
    d_max: int,
) -> DurationModel:
    """Per-state dwell statistics from the runs of a list of segmentations.

    Uses the sample mean and the population standard deviation of each
    state's durations, in segmentation and run order, floored at
    ``MIN_DURATION_STD``.  States with no run default to (d_max/2, d_max/4).
    An item that is not a ``Segmentation``, a run state outside
    [0, n_states), an ``n_states`` that is no integer or exceeds
    ``N_STATES_LIMIT``, or a ``d_max`` that is no integer or exceeds
    ``D_MAX_LIMIT``, raises ``BadArgument``; a ``d_max`` below 1 raises
    ``DurationOutOfRange``.
    """
    _check_d_max(d_max)
    runs = segment_runs(segmentations, n_states, "segmentations")
    states = np.concatenate([np.zeros(0, np.intp), *(y for y, _ in runs)])
    durations = np.concatenate([np.zeros(0), *(d for _, d in runs)])
    mean = state_table(n_states, fill=d_max / 2.0)
    std = np.full(n_states, d_max / 4.0)
    for i in np.unique(states):
        arr = durations[states == i]
        mean[i] = arr.mean()
        std[i] = arr.std()
    std = np.maximum(std, MIN_DURATION_STD)
    return DurationModel(mean, std, d_max)


# =====================================================================
# Shared log-space tables
# =====================================================================


def _log_tables(model: HsmmModel, stream: FeatureStream):
    """Log pi / A / duration table plus cumulative emission sums.

    C has T+1 rows with C[t] holding the emission log-likelihood of ticks
    1..t, so a segment covering b..b+d-1 scores C[b+d-1] - C[b-1] per state.
    """
    n = model.n_states
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_A = np.log(model.A)
    E = log_emission_matrix(stream, model.emissions, n)
    C = np.vstack([np.zeros(n), np.cumsum(E, axis=0)])
    return log_pi, log_A, model.durations.log_pmf_table(), C


# =====================================================================
# Segment-level model
# =====================================================================


def _segment_scores(
    segments: Iterable[Segment],
    log_pi: np.ndarray,
    log_A: np.ndarray,
    log_dur: np.ndarray,
    C: np.ndarray,
) -> tuple[float, ...]:
    """Each segment's log score: (head + duration) + emission span, where the
    head is log pi for the first segment and log A from its predecessor after.
    """
    scores = []
    prev = None
    for seg in segments:
        y = seg.y
        head = log_pi[y] if prev is None else log_A[prev, y]
        s = head + log_dur[y, seg.d]
        scores.append(float(s + (C[seg.end, y] - C[seg.b - 1, y])))
        prev = y
    return tuple(scores)


def hsmm_joint_log_prob(
    segmentation: Segmentation, stream: FeatureStream, model: HsmmModel
) -> float:
    """log P(segmentation, stream) under the segment-level model."""
    if segmentation.T != stream.T:
        raise LabelMismatch(
            f"segmentation covers {segmentation.T} ticks, stream has {stream.T}"
        )
    ((_, durations),) = segment_runs([segmentation], model.n_states, "segmentation")
    if durations.max() > model.d_max:
        raise DurationOutOfRange(
            f"segment duration {durations.max()} exceeds d_max {model.d_max}"
        )
    log_pi, log_A, log_dur, C = _log_tables(model, stream)
    total = 0.0
    for s in _segment_scores(segmentation, log_pi, log_A, log_dur, C):
        total += s
    return total


def hsmm_viterbi(stream: FeatureStream, model: HsmmModel) -> DecodeResult:
    """Most likely segmentation under the segment-level model.

    Ties follow the back-to-front rule in the module docstring.  Raises
    NoFeasiblePath when every segmentation scores -inf, e.g. when T exceeds
    d_max and no transition can bridge the gap.
    """
    log_pi, log_A, log_dur, C = _log_tables(model, stream)
    filled = _fill(stream.T, model.n_states, log_pi, log_A, log_dur, C, None)
    return _backtrack(stream.T, *filled, log_pi, log_A, log_dur, C)


def segment_viterbi_on_tables(
    T: int,
    log_pi: np.ndarray,
    log_A: np.ndarray,
    log_dur: np.ndarray,
    emission_cumsum: np.ndarray,
    final_log: np.ndarray | None = None,
) -> float:
    """The segment decoder's best log-probability on caller-built log tables.

    ``log_dur`` is a (Q, d_max + 1) table indexable by duration, and
    ``emission_cumsum`` the (T + 1, Q) prefix-sum matrix of emission log
    likelihoods.  Lets callers score constrained trellises (e.g. strict
    left-to-right chains) whose transition structure would not pass the
    public model validation; ``final_log`` adds a terminal per-state score
    (-inf forbids ending there).

    Raises ``NoFeasiblePath`` when every segmentation scores -inf.  A T
    that is not an integer >= 1, or a table that is not an array of its
    shape, is a ``BadArgument`` naming the argument.  A strict
    left-to-right chain as long as the stream is walked, not filled (see
    the module docstring); the log-probability is the same.
    """
    n = _check_tables(T, log_pi, log_A, log_dur, emission_cumsum, final_log)
    if final_log is not None and T == n:
        walked = _walk(T, log_pi, log_A, log_dur, emission_cumsum, final_log)
        if walked is not None:
            return walked
    return _fill(T, n, log_pi, log_A, log_dur, emission_cumsum, final_log)[0]


def _fill(T, n, log_pi, log_A, log_dur, C, final_log):
    """The DP over checked tables with Q = n: the best log-prob, and the end
    state, d_cap, ``best`` and ``earg`` that ``_backtrack`` reads."""
    d_cap = min(log_dur.shape[1] - 1, T)
    took = np.arange(n)
    # column k holds log_dur[:, d_cap - k], so row j lists durations d_cap..1
    dur_w = np.ascontiguousarray(log_dur[:, d_cap:0:-1])
    # row j lists log_A[:, j], so one argmax along it is the transition max
    log_AT = np.ascontiguousarray(log_A.T)
    # column k holds enter[t - d_cap + k], which is -inf before boundary 0.
    # Each tick moves every cell of the flat view left by one, which moves
    # every column left, and then writes its enter row over the last column.
    window = np.full((n, d_cap), -np.inf)
    window[:, -1] = log_pi
    cells = window.reshape(-1)
    best = np.empty((T + 1, n), dtype=int)
    earg = np.empty((T, n), dtype=int)
    earg[0] = -1
    width = min(DP_BLOCK, T)
    # a block's lag rows C[lo - d_cap .. hi - 2]; rows before boundary 0 are
    # never written, so they stay zero.  lags[t - lo, :, k] views row
    # t - lo + k, which is C[t - d_cap + k], for one subtraction per block
    rows = np.zeros((width + d_cap - 1, n))
    step, col = rows.strides
    lags = np.ndarray((width, n, d_cap), rows.dtype, rows, 0, (step, col, step))
    spans = np.empty((width, n, d_cap))
    block = np.empty((n, d_cap))
    scores = np.empty((n, n))
    for lo in range(1, T + 1, DP_BLOCK):
        hi = min(lo + DP_BLOCK, T + 1)
        skip = max(d_cap - lo, 0)
        rows[skip : hi - lo + d_cap - 1] = C[lo - d_cap + skip : hi - 1]
        np.subtract(C[lo:hi, :, None], lags[: hi - lo], out=spans[: hi - lo])
        for t, span in zip(range(lo, hi), spans):
            if t > 1:
                # boundary t - 1's transition max, from tick t - 1's delta
                np.add(log_AT, delta, out=scores)
                e = scores.argmax(axis=1, out=earg[t - 1])
                cells[:-1] = cells[1:]
                window[:, -1] = scores[took, e]
            np.add(window, dur_w, out=block)
            np.add(block, span, out=block)
            r = block.argmax(axis=1, out=best[t])
            delta = block[took, r]

    terminal = delta if final_log is None else delta + final_log
    y = int(terminal.argmax())
    # NaN and -inf alike fail here, as they would on the maximum
    if not math.isfinite(terminal[y]):
        raise NoFeasiblePath("all segmentations have probability zero")
    return float(delta[y]), y, d_cap, best, earg


def _walk(T, log_pi, log_A, log_dur, C, final_log) -> float | None:
    """The fill's log-prob for checked tables with Q = T, or None unless they
    admit exactly one alignment: only state 0 starts, only j -> j + 1 moves
    and only state T - 1 ends; no table holds NaN or +inf, C is finite, and
    no sum of the fill can reach +inf.

    Raises ``NoFeasiblePath`` where the fill would, when the walked total
    plus ``final_log[T - 1]`` is not finite."""
    pi, ends = log_pi.tolist(), final_log.tolist()
    cells = log_A.ravel().tolist()
    steps = cells[1 :: T + 1]
    del cells[1 :: T + 1]
    never = [-math.inf] * len(cells)
    if pi[1:] != never[: T - 1] or ends[:-1] != never[: T - 1] or cells != never:
        return None
    # A sum the fill forms adds at most 3T + 1 terms, each a head (log pi,
    # log A or final log), a duration or a span C[t] - C[s], so each at most
    # ``top``; below 2**1000 none of them reaches +inf.  max(x, 0.0) keeps a
    # NaN x, so NaN or +inf in a table, or -inf in C, makes ``top`` NaN or
    # +inf, and the test fails.
    heads = sum(max(h, 0.0) for h in (pi[0], ends[-1], *steps))
    top = heads + max(float(log_dur.max()), 0.0) + 2.0 * float(np.abs(C).max())
    if not (3 * T + 1) * top < 2.0**1000:
        return None
    durs = log_dur[:, 1].tolist()
    # in float64 whatever C's dtype, as the fill subtracts
    spans = np.subtract(C.diagonal(-1), C.diagonal(), dtype=float).tolist()
    v = (pi[0] + durs[0]) + spans[0]
    for a, d, span in zip(steps, durs[1:], spans[1:]):
        v = ((v + a) + d) + span
    if not math.isfinite(v + ends[-1]):
        raise NoFeasiblePath("all segmentations have probability zero")
    return v


def _check_tables(T, log_pi, log_A, log_dur, emission_cumsum, final_log) -> int:
    """The state count Q of ``segment_viterbi_on_tables``' tables, once T is
    an integer >= 1 and each table is an array of its shape; O(1).

    A chain library makes one call per chain, so the checks read ``shape``:
    ``np.shape`` would double their cost."""
    if not is_integer(T) or T < 1:
        raise BadArgument(f"T must be an integer >= 1, got {T!r}", "T")
    pi = getattr(log_pi, "shape", None)
    n = pi[0] if pi is not None and len(pi) == 1 else 0
    if n < 1:
        raise BadArgument(f"log_pi must be a (Q,) array with Q >= 1, got shape {pi}", "log_pi")
    dur = getattr(log_dur, "shape", None)
    if dur is None or len(dur) != 2 or dur[0] != n or dur[1] < 2:
        raise BadArgument(
            f"log_dur must be a ({n}, d_max + 1) array with d_max >= 1, got shape {dur}",
            "log_dur",
        )
    shapes = [("log_A", log_A, (n, n)), ("emission_cumsum", emission_cumsum, (T + 1, n))]
    if final_log is not None:
        shapes.append(("final_log", final_log, (n,)))
    for name, table, shape in shapes:
        got = getattr(table, "shape", None)
        if got != shape:
            raise BadArgument(f"{name} must be a {shape} array, got shape {got}", name)
    return n


def _backtrack(T, log_prob, y, d_cap, best, earg, log_pi, log_A, log_dur, C) -> DecodeResult:
    """The ``DecodeResult`` of the segmentation a finished fill chose, ending
    in state y at T, with each segment's score."""
    rev: list[Segment] = []
    t = T
    while t > 0:
        d = d_cap - int(best[t, y])
        rev.append(Segment(t - d + 1, d, y))
        t, y = t - d, int(earg[t - d, y])
    segmentation = Segmentation(tuple(reversed(rev)), T)
    scores = _segment_scores(segmentation, log_pi, log_A, log_dur, C)
    return DecodeResult(segmentation, log_prob, scores)

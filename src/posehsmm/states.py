"""Domain types for pose-state sequences: labels, states, segments, durations.

Everything downstream (decoding, learning, summarization) is built on the
vocabulary defined here.  Time is measured in 1-based integer ticks; a
*segment* is a maximal run of one hidden state, written (b, d, y) for start
tick, duration, and state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadArgument,
    DurationOutOfRange,
    EmptySequence,
    MalformedSegmentation,
    is_integer,
)


class PoseLabel(Enum):
    """Decubitus pose vocabulary: ten canonical poses plus catch-alls.

    ``OTHER`` covers sitting, leaning, and out-of-bed activity; ``ASPIRATION``
    is only observed on real recordings and never simulated.
    """

    SOLDIER_UP = "solU"
    FETAL_RIGHT = "fetR"
    FETAL_LEFT = "fetL"
    LOG_RIGHT = "logR"
    SOLDIER_DOWN = "solD"
    YEARNER_LEFT = "yeaL"
    LOG_LEFT = "logL"
    FALLER_DOWN = "falD"
    FALLER_UP = "falU"
    YEARNER_RIGHT = "yeaR"
    OTHER = "other"
    ASPIRATION = "aspiration"

    @property
    def display_symbol(self) -> int:
        """Signed display symbol; sign encodes side/direction of the pose."""
        return _POSE_SYMBOLS[self]

    def __str__(self) -> str:
        return self.value


_POSE_SYMBOLS = {
    PoseLabel.ASPIRATION: 0,
    PoseLabel.SOLDIER_UP: 1,
    PoseLabel.SOLDIER_DOWN: -1,
    PoseLabel.YEARNER_RIGHT: 2,
    PoseLabel.YEARNER_LEFT: -2,
    PoseLabel.LOG_RIGHT: 3,
    PoseLabel.LOG_LEFT: -3,
    PoseLabel.FALLER_UP: 4,
    PoseLabel.FALLER_DOWN: -4,
    PoseLabel.OTHER: 5,
    PoseLabel.FETAL_RIGHT: 6,
    PoseLabel.FETAL_LEFT: -6,
}

#: The ten poses that participate in transition protocols.
CANONICAL_POSES = (
    PoseLabel.SOLDIER_UP,
    PoseLabel.FETAL_RIGHT,
    PoseLabel.FETAL_LEFT,
    PoseLabel.LOG_RIGHT,
    PoseLabel.SOLDIER_DOWN,
    PoseLabel.YEARNER_LEFT,
    PoseLabel.LOG_LEFT,
    PoseLabel.FALLER_DOWN,
    PoseLabel.FALLER_UP,
    PoseLabel.YEARNER_RIGHT,
)

#: Default state vocabulary for simulated bedside scenes.
MOCK_ICU_POSES = CANONICAL_POSES + (PoseLabel.OTHER,)


class SceneCondition(Enum):
    """Scene regime: bright-and-clear vs dark-or-occluded."""

    BC = "BC"
    DO = "DO"

    def __str__(self) -> str:
        return self.value


class RotationDirection(Enum):
    """Which way the patient rolls between two held poses."""

    LEFT = "left"
    RIGHT = "right"

    def __str__(self) -> str:
        return self.value


# Clinically informed start-of-sequence pose frequencies per scene regime.
# The raw column pair sums to 1.049; consumers renormalize (see
# build_initial_distribution), keeping the published numbers recognizable.
INITIAL_POSE_PRIORS: dict[PoseLabel, dict[SceneCondition, float]] = {
    PoseLabel.SOLDIER_UP: {SceneCondition.BC: 0.03, SceneCondition.DO: 0.02},
    PoseLabel.FETAL_RIGHT: {SceneCondition.BC: 0.145, SceneCondition.DO: 0.07},
    PoseLabel.FETAL_LEFT: {SceneCondition.BC: 0.145, SceneCondition.DO: 0.07},
    PoseLabel.LOG_RIGHT: {SceneCondition.BC: 0.05, SceneCondition.DO: 0.03},
    PoseLabel.SOLDIER_DOWN: {SceneCondition.BC: 0.02, SceneCondition.DO: 0.01},
    PoseLabel.YEARNER_LEFT: {SceneCondition.BC: 0.04, SceneCondition.DO: 0.02},
    PoseLabel.LOG_LEFT: {SceneCondition.BC: 0.05, SceneCondition.DO: 0.03},
    PoseLabel.FALLER_DOWN: {SceneCondition.BC: 0.05, SceneCondition.DO: 0.02},
    PoseLabel.FALLER_UP: {SceneCondition.BC: 0.05, SceneCondition.DO: 0.03},
    PoseLabel.YEARNER_RIGHT: {SceneCondition.BC: 0.04, SceneCondition.DO: 0.02},
    PoseLabel.OTHER: {SceneCondition.BC: 0.036, SceneCondition.DO: 0.073},
}


@dataclass(frozen=True)
class StateId:
    """One hidden state: a pose, optionally bound to a scene regime.

    ``scene`` is None when the model is scene-agnostic.  ``index`` is the
    dense position of this state in its StateSpace, the integer a segment
    holds as its state.
    """

    pose: PoseLabel
    scene: SceneCondition | None
    index: int


@dataclass(frozen=True)
class StateSpace:
    """Ordered collection of StateIds with dense contiguous indices."""

    states: tuple[StateId, ...]

    def __post_init__(self):
        for i, s in enumerate(self.states):
            if not is_integer(s.index) or s.index != i:
                raise BadArgument(f"state {s} at position {i} has index {s.index}")

    @classmethod
    def from_poses(
        cls,
        poses: Sequence[PoseLabel],
        scene_doubling: bool = True,
    ) -> "StateSpace":
        """Build a space over ``poses``; doubling adds a BC block then a DO block."""
        states: list[StateId] = []
        if scene_doubling:
            for scene in (SceneCondition.BC, SceneCondition.DO):
                for pose in poses:
                    states.append(StateId(pose, scene, len(states)))
        else:
            for pose in poses:
                states.append(StateId(pose, None, len(states)))
        return cls(tuple(states))

    def index_of(self, pose: PoseLabel, scene: SceneCondition | None = None) -> int:
        """The index of the state of ``pose`` under ``scene``; a pair the
        space lacks raises ``BadArgument`` naming ``pose``."""
        for s in self.states:
            if s.pose is pose and s.scene is scene:
                return s.index
        raise BadArgument(f"no state of pose {pose!r} under scene {scene!r}", "pose")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i: int) -> StateId:
        return self.states[i]


def build_initial_distribution(space: StateSpace) -> np.ndarray:
    """Initial probabilities of ``space``'s states from the published
    per-scene priors.

    A state bound to a scene keeps that scene's raw value; a scene-agnostic
    state takes the sum of both scene columns.  The raw values are
    renormalized, and the rounding residual is folded into the largest entry
    so the result sums to 1.0 exactly.  Poses missing from the prior table
    (only ASPIRATION) get probability zero.
    """
    raw = np.zeros(len(space))
    for s in space:
        prior = INITIAL_POSE_PRIORS.get(s.pose)
        if prior is None:
            continue
        if s.scene is None:
            raw[s.index] = prior[SceneCondition.BC] + prior[SceneCondition.DO]
        else:
            raw[s.index] = prior[s.scene]
    total = raw.sum()
    if total <= 0.0:
        raise BadArgument("state space has no pose with a nonzero prior")
    pi = raw / total
    pi[np.argmax(pi)] += 1.0 - pi.sum()
    return pi


# =====================================================================
# Segments
# =====================================================================


@dataclass(frozen=True)
class Segment:
    """Maximal run of one state: starts at tick b, lasts d ticks, and holds
    state index y."""

    b: int
    d: int
    y: int

    @property
    def end(self) -> int:
        """Last tick covered, inclusive."""
        return self.b + self.d - 1

    @property
    def y_index(self) -> int:
        """``y``; ``perfbench/worker.py`` still reads this name."""
        return self.y


@dataclass(frozen=True)
class Segmentation:
    """A gapless, non-overlapping cover of ticks 1..T by maximal runs.

    T and each segment's start and duration are integers and its state an
    integer index; a bool is none of them.  Else ``MalformedSegmentation``.
    """

    segments: tuple[Segment, ...]
    T: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        segs = self.segments
        if not segs:
            raise MalformedSegmentation("segmentation has no segments")
        if not is_integer(self.T):
            raise MalformedSegmentation(f"T must be an integer, got {self.T!r}")
        if segs[0].b != 1:
            raise MalformedSegmentation(f"first segment starts at {segs[0].b}, not 1")
        for u, seg in enumerate(segs):
            if not (is_integer(seg.b) and is_integer(seg.d)):
                raise MalformedSegmentation(
                    f"segment {u} has start {seg.b!r} and duration {seg.d!r}; both must be "
                    "integers"
                )
            if seg.d < 1:
                raise MalformedSegmentation(f"segment {u} has duration {seg.d}")
            if not is_integer(seg.y):
                raise MalformedSegmentation(
                    f"segment {u} has state {seg.y!r}, not an integer index"
                )
            if u > 0:
                prev = segs[u - 1]
                if seg.b != prev.b + prev.d:
                    raise MalformedSegmentation(
                        f"segment {u} starts at {seg.b}, expected {prev.b + prev.d}"
                    )
                if seg.y == prev.y:
                    raise MalformedSegmentation(
                        f"segments {u - 1} and {u} share state {seg.y}; runs must be maximal"
                    )
        if segs[-1].end != self.T:
            raise MalformedSegmentation(
                f"segments cover ticks 1..{segs[-1].end} but T={self.T}"
            )

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)


def encode_segments(labels: Sequence) -> Segmentation:
    """Run-length encode a per-tick label sequence into maximal segments."""
    if len(labels) == 0:
        raise EmptySequence("cannot encode an empty label sequence")
    segs: list[Segment] = []
    b = 1
    for y, run in itertools.groupby(labels):
        d = len(list(run))
        segs.append(Segment(b, d, y))
        b += d
    return Segmentation(tuple(segs), len(labels))


def segment_runs(
    segmentations: Iterable, n_states: int, param: str
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each segmentation's run states and run lengths, as two arrays; a
    ``segmentations`` that is not iterable, an item that is not a
    ``Segmentation``, or a run state that is not an integer in [0, n_states),
    raises ``BadArgument`` naming ``param``, and an ``n_states`` that is no
    integer, or exceeds ``N_STATES_LIMIT``, one naming ``n_states``."""
    if not is_integer(n_states):
        raise BadArgument(f"n_states must be an integer, got {n_states!r}", "n_states")
    if n_states > N_STATES_LIMIT:
        raise BadArgument(f"n_states {n_states} exceeds the limit {N_STATES_LIMIT}", "n_states")
    try:
        items = iter(segmentations)
    except TypeError:
        raise BadArgument(
            f"{param} must be a list of Segmentations, got {type(segmentations).__name__}",
            param,
        ) from None
    runs = []
    for s in items:
        try:
            states = (np.fromiter((seg.y for seg in s.segments), np.intp)
                      if isinstance(s, Segmentation) else None)
        except OverflowError:  # an integer state beyond intp
            states = None
        if states is None:
            raise BadArgument(f"{param} must hold Segmentations whose run states are "
                              f"integers in [0, {n_states})", param)
        bad = states[(states < 0) | (states >= n_states)]
        if bad.size:
            raise BadArgument(f"{param}: run state {bad[0]} outside [0, {n_states})", param)
        runs.append((states, np.fromiter((seg.d for seg in s.segments), np.int64)))
    return runs


def state_table(n_states: int, *shape: int, fill: float = 0.0) -> np.ndarray:
    """A fit's (n_states, *shape) table of ``fill``; one that memory cannot
    hold raises ``BadArgument`` naming ``n_states``."""
    try:
        return np.full((n_states, *shape), fill)
    # numpy raises ValueError for a size beyond the largest intp
    except (MemoryError, ValueError):
        raise BadArgument(f"n_states {n_states} asks for a table larger than memory holds",
                          "n_states") from None


# =====================================================================
# Duration models
# =====================================================================


#: Longest d_max a duration model accepts.  Its (Q, d_max + 1) tables are
#: built whole, because the pmf is normalised over all of 1..d_max: at
#: Q = 22 one such table takes 176 MB at this bound.
D_MAX_LIMIT = 1_000_000

#: Largest state count a fit accepts.  The fits build their tables whole:
#: ``fit_transitions``' Q x Q floats take 134 MB at this bound.
N_STATES_LIMIT = 4096


def _check_d_max(d_max) -> None:
    if not is_integer(d_max):
        raise BadArgument(f"d_max must be an integer, got {d_max}", "d_max")
    if d_max < 1:
        raise DurationOutOfRange(f"d_max {d_max} < 1")
    if d_max > D_MAX_LIMIT:
        raise BadArgument(f"d_max {d_max} exceeds the limit {D_MAX_LIMIT}", "d_max")


@dataclass(eq=False)
class DurationModel:
    """Per-state dwell-time distributions: Gaussians discretized on 1..d_max.

    The density is evaluated at integer ticks and renormalized over
    [1, d_max], which keeps the pmf well defined even for means near the
    boundary.  Treat instances as immutable; tables are cached lazily.
    """

    mean: np.ndarray
    std: np.ndarray
    d_max: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.std = np.asarray(self.std, dtype=float)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise BadArgument("mean and std must be 1-d arrays of equal length")
        # NaN fails these comparisons too
        if not (np.all(np.isfinite(self.mean)) and np.all(self.std > 0.0)):
            raise BadArgument("duration means must be finite and stds positive")
        _check_d_max(self.d_max)
        # a row's largest exponent is at the tick nearest its mean; the row is
        # all NaN when that exponent is not finite
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            gap = (np.clip(np.round(self.mean), 1, self.d_max) - self.mean) ** 2
            peak = -gap / (2.0 * self.std**2)
        for param, values, ok in (("mean", self.mean, gap), ("std", self.std, peak)):
            bad = np.flatnonzero(~np.isfinite(ok))
            if bad.size:
                raise BadArgument(
                    f"duration {param} {values[bad[0]]} of state {bad[0]} leaves no "
                    f"finite pmf on 1..{self.d_max}", param
                )

    @property
    def n_states(self) -> int:
        return self.mean.shape[0]

    def pmf_table(self) -> np.ndarray:
        """(Q, d_max) table, column d - 1 for duration d; computed once."""
        return self._pmf

    @cached_property
    def _pmf(self) -> np.ndarray:
        """Rows sum to 1.  Each row's exponents are shifted by their maximum,
        so a tiny std puts the mass on the ticks nearest the mean; the
        constructor refuses a std (or mean) that leaves that maximum
        non-finite.  Away from the mean a tiny std's exponent overflows to
        -inf (weight 0) and a huge std's square to inf (exponent 0, a flat
        row); both rows are right, so the overflow is not reported."""
        d = np.arange(1, self.d_max + 1, dtype=float)
        with np.errstate(over="ignore"):
            z = -((d[None, :] - self.mean[:, None]) ** 2)
            z /= 2.0 * self.std[:, None] ** 2
        z -= z.max(axis=1, keepdims=True)
        w = np.exp(z)
        return w / w.sum(axis=1, keepdims=True)

    def log_pmf_table(self) -> np.ndarray:
        """(Q, d_max + 1) log table indexable by duration; column 0 is -inf."""
        table = np.full((self.n_states, self.d_max + 1), -np.inf)
        with np.errstate(divide="ignore"):
            table[:, 1:] = np.log(self.pmf_table())
        return table


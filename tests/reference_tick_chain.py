"""Tick-level self-loop chain and geometric dwell model: the yardstick the
segment model is compared against.

A plain Markov chain over ticks lets self-loops carry the dwell behaviour,
which makes every dwell time geometric.  ``hsmm_from_hmm`` re-expresses
such a chain as a segment-level ``HsmmModel`` with explicit geometric
durations and a zero-diagonal transition matrix; tests check that the two
agree labeling by labeling and argmax by argmax.  The arithmetic is the
original library code's, kept verbatim.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from posehsmm.emission import (
    ChannelEmissionModel,
    ChannelId,
    FeatureStream,
    log_emission_matrix,
)
from posehsmm.errors import (
    BadArgument,
    DurationOutOfRange,
    LabelMismatch,
    NoFeasiblePath,
    PoseHsmmError,
)
from posehsmm.inference import ROW_SUM_TOL, HsmmModel, check_initial_distribution
from posehsmm.states import StateSpace, _check_d_max


class DegenerateSelfLoop(PoseHsmmError):
    """Self-transition probability of 1 has no finite dwell distribution."""


@dataclass
class HmmModel:
    """Tick-level Markov model: self-loops carry the dwell behaviour.

    ``pi`` is a distribution and ``A`` row-stochastic, self-loops allowed."""

    pi: np.ndarray
    A: np.ndarray
    emissions: Mapping[ChannelId, ChannelEmissionModel]
    states: StateSpace | None = None

    def __post_init__(self):
        self.pi = check_initial_distribution(self.pi)
        self.A = np.asarray(self.A, dtype=float)
        # NaN fails both comparisons
        if not (np.all(self.A >= 0.0)
                and np.all(np.abs(self.A.sum(axis=1) - 1.0) <= ROW_SUM_TOL)):
            raise BadArgument("transition rows must be nonnegative and sum to 1")

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]


def _chain_tables(model: HmmModel, stream: FeatureStream):
    """Log pi, log A and the (T, Q) emission log-likelihoods."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
        log_A = np.log(model.A)
    return log_pi, log_A, log_emission_matrix(stream, model.emissions, model.n_states)


def hmm_joint_log_prob(labels: Sequence, stream: FeatureStream, model: HmmModel) -> float:
    """log P(labels, stream) under the tick-level Markov model."""
    if len(labels) != stream.T:
        raise LabelMismatch(f"{len(labels)} labels for {stream.T} frames")
    idx = [operator.index(y) for y in labels]
    log_pi, log_A, E = _chain_tables(model, stream)
    total = log_pi[idx[0]] + E[0, idx[0]]
    for t in range(1, len(idx)):
        total = total + log_A[idx[t - 1], idx[t]]
        total = total + E[t, idx[t]]
    return float(total)


def hmm_viterbi(stream: FeatureStream, model: HmmModel) -> tuple[list[int], float]:
    """Most likely tick-level label sequence.

    Ties take the lowest state index at every argmax, which yields the
    lexicographically smallest optimal labeling read back to front.
    """
    log_pi, log_A, E = _chain_tables(model, stream)
    T, n = E.shape
    V = np.full((T, n), -np.inf)
    ptr = np.zeros((T, n), dtype=int)
    V[0] = log_pi + E[0]
    for t in range(1, T):
        scores = V[t - 1][:, None] + log_A
        ptr[t] = scores.argmax(axis=0)
        V[t] = scores.max(axis=0) + E[t]
    if not np.isfinite(V[-1].max()):
        raise NoFeasiblePath("all tick-level paths have probability zero")
    y = int(V[-1].argmax())
    log_prob = float(V[-1, y])
    labels = [y]
    for t in range(T - 1, 0, -1):
        y = int(ptr[t, y])
        labels.append(y)
    labels.reverse()
    return labels, log_prob


def hsmm_from_hmm(
    hmm: HmmModel, d_max: int, truncated: bool = False
) -> HsmmModel:
    """Re-express a self-loop chain as an explicit-duration model.

    Dwell times become geometric(a_ii); off-diagonal transitions are
    renormalized by the exit mass 1 - a_ii.  With ``truncated=False`` the
    dwell pmf keeps its closed form, matching the chain term for term (up to
    the final segment's exit mass, which the chain leaves unresolved).
    """
    diag = np.diag(hmm.A).copy()
    if np.any(diag >= 1.0):
        raise DegenerateSelfLoop("a self-loop of 1 cannot be re-expressed")
    A = hmm.A / (1.0 - diag)[:, None]
    np.fill_diagonal(A, 0.0)
    durations = GeometricDurationModel(diag, d_max, truncated=truncated)
    return HsmmModel(hmm.pi.copy(), A, durations, hmm.emissions, hmm.states)


def geometric_duration_pmf(self_loop: float, d: int) -> float:
    """Dwell-time pmf implied by a self-transition probability.

    P(d) = a^(d-1) * (1-a): the chance of d-1 self-loops followed by an exit.
    """
    if not 0.0 <= self_loop < 1.0:
        raise DegenerateSelfLoop(f"self-loop probability {self_loop} not in [0, 1)")
    if d < 1:
        raise DurationOutOfRange(f"duration {d} < 1")
    return self_loop ** (d - 1) * (1.0 - self_loop)


@dataclass
class GeometricDurationModel:
    """Per-state geometric dwell times, for comparing against self-loop chains.

    ``truncated=False`` keeps the raw closed-form values on 1..d_max (mass
    beyond d_max is simply dropped), which is the variant that matches a
    self-loop Markov chain term for term.  It offers the three members an
    ``HsmmModel`` reads of its durations: ``n_states``, ``d_max`` and
    ``log_pmf_table``.
    """

    self_loop: np.ndarray
    d_max: int
    truncated: bool = True

    def __post_init__(self):
        self.self_loop = np.asarray(self.self_loop, dtype=float)
        # NaN fails the comparison too
        if not np.all((self.self_loop >= 0.0) & (self.self_loop < 1.0)):
            raise DegenerateSelfLoop("self-loop probabilities must lie in [0, 1)")
        _check_d_max(self.d_max)

    @property
    def n_states(self) -> int:
        return self.self_loop.shape[0]

    def pmf_table(self) -> np.ndarray:
        """(Q, d_max) table, column d - 1 for duration d; computed once."""
        return self._pmf

    @cached_property
    def _pmf(self) -> np.ndarray:
        d = np.arange(1, self.d_max + 1, dtype=float)
        a = self.self_loop[:, None]
        w = a ** (d[None, :] - 1.0) * (1.0 - a)
        if self.truncated:
            w = w / w.sum(axis=1, keepdims=True)
        return w

    def log_pmf_table(self) -> np.ndarray:
        """(Q, d_max + 1) log table indexable by duration; column 0 is -inf."""
        table = np.full((self.n_states, self.d_max + 1), -np.inf)
        with np.errstate(divide="ignore"):
            table[:, 1:] = np.log(self.pmf_table())
        return table

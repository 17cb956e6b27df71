"""The O(T x Q) segment DP against the frozen per-(t, d) reference.

The decoder must reproduce the reference exactly: the same segmentation,
the same log-probability bits, the same per-segment scores, and the same
``NoFeasiblePath`` outcome.  Tie-heavy inputs (equal rows, equal duration
statistics, 0.5 / 0.25 emission means) exercise every tie-break.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from posehsmm import DurationModel, HsmmModel, hsmm_viterbi, segment_viterbi_on_tables
from posehsmm.emission import ChannelEmissionModel
from posehsmm.errors import NoFeasiblePath
from posehsmm.inference import _log_tables

from conftest import CH, random_hsmm, random_stream
from reference_segment_dp import reference_segment_viterbi

#: log-probabilities that make many sums coincide exactly
TIE_LOGS = np.log([0.25, 0.5, 1.0])


def outcome(decode):
    """Decoder result reduced to bit-exact comparable values."""
    try:
        r = decode()
    except NoFeasiblePath:
        return "infeasible"
    return (
        r.segmentation,
        r.log_prob.hex(),
        tuple(s.hex() for s in r.per_segment_scores),
    )


def draw_T(rng, D, short):
    """T below ``short`` (mostly within the ramp, t <= D), or in about a
    quarter of the draws up to 300: past the ramp and across DP blocks."""
    if rng.random() < 0.25:
        return int(rng.integers(D + 1, 301))
    return int(rng.integers(1, short))


def random_tables(rng, tie):
    Q = int(rng.integers(1, 5))
    D = int(rng.integers(1, 7))
    T = draw_T(rng, D, 25)
    with np.errstate(divide="ignore"):
        if tie:
            vals = np.append(TIE_LOGS, -np.inf)
            log_pi = rng.choice(vals, Q)
            log_A = rng.choice(vals, (Q, Q))
            log_dur = rng.choice(vals, (Q, D + 1))
            E = rng.choice(np.log([0.25, 0.5, 0.75]), (T, Q))
        else:
            log_pi = np.log(rng.dirichlet(np.ones(Q)))
            log_A = np.log(rng.random((Q, Q)) * (rng.random((Q, Q)) < 0.8))
            log_dur = np.log(rng.random((Q, D + 1)) * (rng.random((Q, D + 1)) < 0.9))
            E = np.log(rng.random((T, Q)))
    np.fill_diagonal(log_A, -np.inf)
    C = np.vstack([np.zeros(Q), np.cumsum(E, axis=0)])
    final_log = None
    if rng.random() < 0.4:
        final_log = np.where(rng.random(Q) < 0.5, -np.inf, 0.0)
    return T, Q, D, log_pi, log_A, log_dur, C, final_log


def tie_heavy_hsmm(rng):
    """Uniform start, equal transition rows, one shared duration law and
    emission means drawn from {0.5, 0.25}."""
    Q = int(rng.integers(1, 5))
    D = int(rng.integers(1, 6))
    F = int(rng.integers(1, 3))
    A = np.zeros((Q, Q)) if Q == 1 else (1.0 - np.eye(Q)) / (Q - 1)
    dur = DurationModel(np.full(Q, rng.uniform(1.0, D)), np.full(Q, 1.0), D)
    means = rng.choice([0.5, 0.25], (Q, F))
    return HsmmModel(np.full(Q, 1.0 / Q), A, dur, {CH: ChannelEmissionModel(CH, means)})


class TestMatchesReference:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_raw_tables(self, seed, tie):
        T, Q, D, log_pi, log_A, log_dur, C, final_log = random_tables(
            np.random.default_rng(seed), tie
        )
        want = outcome(lambda: reference_segment_viterbi(
            T, Q, D, log_pi, log_A, log_dur, C, final_log
        ))
        got = outcome(lambda: segment_viterbi_on_tables(
            T, log_pi, log_A, log_dur, C, final_log
        ))
        assert got == want

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_models(self, seed, tie):
        rng = np.random.default_rng(seed)
        model = tie_heavy_hsmm(rng) if tie else random_hsmm(rng)
        stream = random_stream(rng, draw_T(rng, model.d_max, 30), model.emissions[CH].F)
        log_pi, log_A, log_dur, _, C = _log_tables(model, stream)
        want = outcome(lambda: reference_segment_viterbi(
            stream.T, model.n_states, model.d_max, log_pi, log_A, log_dur, C
        ))
        assert outcome(lambda: hsmm_viterbi(stream, model)) == want

    def test_default_size_model(self):
        rng = np.random.default_rng(3)
        model = random_hsmm(rng, n_states=22, d_max=36, F=6)
        stream = random_stream(rng, 400, 6)
        log_pi, log_A, log_dur, _, C = _log_tables(model, stream)
        want = outcome(lambda: reference_segment_viterbi(
            400, 22, 36, log_pi, log_A, log_dur, C
        ))
        assert outcome(lambda: hsmm_viterbi(stream, model)) == want


def test_memory_is_linear_in_T():
    """T = 8,000, Q = 22, D_max = 36: the full (T+1)(D+1)Q float-plus-int
    trellis would need 104 MB; the decoder keeps O(T x Q) state."""
    rng = np.random.default_rng(0)
    model = random_hsmm(rng, n_states=22, d_max=36, F=6)
    stream = random_stream(rng, 8000, 6)
    tracemalloc.start()
    try:
        result = hsmm_viterbi(stream, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.segmentation.T == 8000
    assert peak < 32 * 2**20

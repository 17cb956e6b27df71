"""The O(T x Q) segment DP against the frozen per-(t, d) reference.

The decoder must reproduce the reference exactly: the same log-probability
bits and the same ``NoFeasiblePath`` outcome from the public DP, and the
same segmentation and per-segment scores from the fill's backtrack.
Tie-heavy inputs (equal rows, equal duration statistics, 0.5 / 0.25
emission means) exercise every tie-break.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posehsmm.inference as inference
from posehsmm import DurationModel, HsmmModel, hsmm_viterbi, segment_viterbi_on_tables
from posehsmm.emission import ChannelEmissionModel
from posehsmm.errors import BadArgument, NoFeasiblePath
from posehsmm.inference import DP_BLOCK, _log_tables

from conftest import CH, fill_and_backtrack, random_hsmm, random_stream
from reference_segment_dp import reference_segment_viterbi

#: log-probabilities that make many sums coincide exactly
TIE_LOGS = np.log([0.25, 0.5, 1.0])


def outcome(decode):
    """Decoder result reduced to bit-exact comparable values: a ``float``
    log-prob's ``.hex()``, a ``DecodeResult``'s segmentation with its
    log-prob and per-segment score bits, or "infeasible"."""
    try:
        r = decode()
    except NoFeasiblePath:
        return "infeasible"
    if type(r) is float:
        return r.hex()
    return (
        r.segmentation,
        r.log_prob.hex(),
        tuple(s.hex() for s in r.per_segment_scores),
    )


def log_prob_of(want):
    """The log-prob part of a ``DecodeResult``'s outcome."""
    return want if want == "infeasible" else want[1]


def filled_outcome(T, log_pi, log_A, log_dur, C, final_log):
    """The outcome of the fill's backtracked ``DecodeResult``."""
    return outcome(lambda: fill_and_backtrack(T, log_pi, log_A, log_dur, C, final_log))


def draw_T(rng, D, short):
    """T below ``short`` (mostly T <= D, where the padded boundaries before
    tick 0 last to the end), or in about a quarter of the draws up to 300:
    past d_cap and across DP blocks."""
    if rng.random() < 0.25:
        return int(rng.integers(D + 1, 301))
    return int(rng.integers(1, short))


def random_tables(rng, tie, T=None, D=None):
    Q = int(rng.integers(1, 5))
    if D is None:
        D = int(rng.integers(1, 7))
    if T is None:
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
        assert got == log_prob_of(want)
        assert filled_outcome(T, log_pi, log_A, log_dur, C, final_log) == want

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_models(self, seed, tie):
        rng = np.random.default_rng(seed)
        model = tie_heavy_hsmm(rng) if tie else random_hsmm(rng)
        stream = random_stream(rng, draw_T(rng, model.d_max, 30), model.emissions[CH].F)
        log_pi, log_A, log_dur, C = _log_tables(model, stream)
        want = outcome(lambda: reference_segment_viterbi(
            stream.T, model.n_states, model.d_max, log_pi, log_A, log_dur, C
        ))
        assert outcome(lambda: hsmm_viterbi(stream, model)) == want

    def test_default_size_model(self):
        rng = np.random.default_rng(3)
        model = random_hsmm(rng, n_states=22, d_max=36, F=6)
        stream = random_stream(rng, 400, 6)
        log_pi, log_A, log_dur, C = _log_tables(model, stream)
        want = outcome(lambda: reference_segment_viterbi(
            400, 22, 36, log_pi, log_A, log_dur, C
        ))
        assert outcome(lambda: hsmm_viterbi(stream, model)) == want


def edge_tables(kind, T, D, rng):
    """Tables of one kind at a fixed T and D, in ``random_tables``' layout."""
    if kind in ("random", "tie"):
        return random_tables(rng, kind == "tie", T, D)
    if kind == "one-start":
        T, Q, D, log_pi, log_A, log_dur, C, _ = random_tables(rng, False, T, D)
        start = rng.integers(Q)
        log_pi = np.where(np.arange(Q) == start, log_pi, -np.inf)
        final_log = np.where(rng.random(Q) < 0.5, -np.inf, 0.0)
        final_log[rng.integers(Q)] = 0.0
        return T, Q, D, log_pi, log_A, log_dur, C, final_log
    # a strict left-to-right chain, as ``TransitionLibrary`` lays it out:
    # L = T has one path, L = T + 1 none
    L = T if kind == "chain" else T + 1
    log_pi = np.full(L, -np.inf)
    log_pi[0] = 0.0
    log_A = np.full((L, L), -np.inf)
    log_A[np.arange(L - 1), np.arange(1, L)] = 0.0
    final_log = np.full(L, -np.inf)
    final_log[L - 1] = 0.0
    log_dur = np.log(rng.random((L, D + 1)))
    C = np.vstack([np.zeros(L), np.cumsum(np.log(rng.random((T, L))), axis=0)])
    return T, L, D, log_pi, log_A, log_dur, C, final_log


EDGE_CASES = [
    (kind, T, D)
    for D in (1, 2, 5, 36)
    for T in sorted({1, 2, D - 1, D, D + 1, DP_BLOCK, DP_BLOCK + 1, DP_BLOCK + D} - {0})
    for kind in ("random", "tie", "one-start", "chain", "chain-too-long")
] + [
    # d_cap > DP_BLOCK: the second block also starts before tick d_cap
    (kind, 2 * DP_BLOCK + 5, DP_BLOCK + 40) for kind in ("random", "tie")
]


@pytest.mark.parametrize(
    "kind, T, D", EDGE_CASES, ids=[f"{k}-T{T}-D{D}" for k, T, D in EDGE_CASES]
)
def test_fold_edges(kind, T, D):
    """T at and around d_cap and the block edges: the first block's
    boundaries before tick 0 never change a result."""
    T, Q, D, log_pi, log_A, log_dur, C, final_log = edge_tables(
        kind, T, D, np.random.default_rng(EDGE_CASES.index((kind, T, D)))
    )
    want = outcome(lambda: reference_segment_viterbi(
        T, Q, D, log_pi, log_A, log_dur, C, final_log
    ))
    got = outcome(lambda: segment_viterbi_on_tables(
        T, log_pi, log_A, log_dur, C, final_log
    ))
    assert got == log_prob_of(want)
    filled = filled_outcome(T, log_pi, log_A, log_dur, C, final_log)
    assert filled == want
    if kind == "chain":
        assert filled != "infeasible" and len(filled[0]) == T
    if kind == "chain-too-long":
        assert filled == "infeasible"


#: Ways to spoil a one-alignment trellis: a second start, move or end, T one
#: off Q, no final table, a NaN or +inf cell in any table, -inf in C, and a
#: C so large that a sum of the fill could reach +inf.
NEAR_MISSES = (
    "start", "move", "end", "T+1", "T-1", "no-final",
    "nan", "+inf", "C-inf", "C-huge",
)


def one_alignment_tables(rng, tie, Q):
    """T = Q ticks on a strict left-to-right chain: only state 0 starts,
    only j -> j + 1 moves, only state Q - 1 ends.  Walked cells are -inf
    now and then."""
    D = int(rng.integers(1, 7))
    with np.errstate(divide="ignore"):
        if tie:
            vals = np.append(TIE_LOGS, -np.inf)
            walked = rng.choice(vals, 2 * Q + 1)
            log_dur = rng.choice(vals, (Q, D + 1))
            E = rng.choice(np.log([0.25, 0.5, 0.75]), (Q, Q))
        else:
            walked = np.log(rng.random(2 * Q + 1) * (rng.random(2 * Q + 1) < 0.9))
            log_dur = np.log(rng.random((Q, D + 1)) * (rng.random((Q, D + 1)) < 0.9))
            E = np.log(rng.random((Q, Q)))
    log_pi = np.full(Q, -np.inf)
    log_pi[0] = walked[0]
    log_A = np.full((Q, Q), -np.inf)
    log_A[np.arange(Q - 1), np.arange(1, Q)] = walked[1:Q]
    final_log = np.full(Q, -np.inf)
    final_log[Q - 1] = walked[Q]
    log_dur[:, 1] = np.where(rng.random(Q) < 0.1, -np.inf, log_dur[:, 1])
    C = np.vstack([np.zeros(Q), np.cumsum(E, axis=0)])
    return Q, Q, D, log_pi, log_A, log_dur, C, final_log


def spoil(rng, kind, T, Q, D, log_pi, log_A, log_dur, C, final_log):
    """The tables with one near miss of ``kind`` (Q >= 2) applied."""
    finite = float(rng.choice(TIE_LOGS))
    if kind == "start":
        log_pi[rng.integers(1, Q)] = finite
    elif kind == "move":
        off = [(i, j) for i in range(Q) for j in range(Q) if j != i + 1]
        log_A[off[rng.integers(len(off))]] = finite
    elif kind == "end":
        final_log[rng.integers(Q - 1)] = finite
    elif kind in ("T+1", "T-1"):
        T = Q + 1 if kind == "T+1" else Q - 1
        C = np.vstack([np.zeros(Q), np.cumsum(np.log(rng.random((T, Q))), axis=0)])
    elif kind == "no-final":
        final_log = None
    elif kind in ("nan", "+inf"):
        tables = [log_pi, log_A, log_dur, C, final_log]
        table = tables[rng.integers(len(tables))]
        table[tuple(rng.integers(n) for n in table.shape)] = (
            np.nan if kind == "nan" else np.inf
        )
    elif kind == "C-inf":
        C[tuple(rng.integers(n) for n in C.shape)] = -np.inf
    else:
        C[tuple(rng.integers(n) for n in C.shape)] = rng.choice([-1e305, 1e305])
    return T, Q, D, log_pi, log_A, log_dur, C, final_log


class TestOneAlignmentWalk:
    """A T = Q strict left-to-right chain is walked, not filled, and gives
    the reference's log-prob; one near miss sends the call to the fill.
    The fill's backtrack on the same tables gives the reference's
    segmentation and scores."""

    @given(
        st.integers(0, 2**32 - 1), st.booleans(), st.just("walk") | st.sampled_from(NEAR_MISSES)
    )
    @settings(max_examples=600, deadline=None)
    def test_matches_reference(self, seed, tie, kind):
        rng = np.random.default_rng(seed)
        tables = one_alignment_tables(rng, tie, int(rng.integers(1 if kind == "walk" else 2, 9)))
        if kind != "walk":
            tables = spoil(rng, kind, *tables)
        T, Q, D, log_pi, log_A, log_dur, C, final_log = tables
        filled = []
        real = inference._fill

        def spy(*args):
            filled.append(args[0])
            return real(*args)

        # a NaN or an infinity in the tables makes the fills warn
        with np.errstate(invalid="ignore", over="ignore"), pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_fill", spy)
            got = outcome(lambda: segment_viterbi_on_tables(
                T, log_pi, log_A, log_dur, C, final_log
            ))
        assert filled == ([] if kind == "walk" else [T])
        with np.errstate(invalid="ignore", over="ignore"):
            want = outcome(lambda: reference_segment_viterbi(
                T, Q, D, log_pi, log_A, log_dur, C, final_log
            ))
            assert filled_outcome(T, log_pi, log_A, log_dur, C, final_log) == want
        assert got == log_prob_of(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
    def test_tables_of_another_dtype_walk_to_the_fill_bits(self, dtype):
        """The fill adds and subtracts in float64 whatever the tables' dtype,
        and so must the walk: C's spans too.  An int64 table holds no -inf,
        so only C takes that dtype."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            T, Q, D, log_pi, log_A, log_dur, C, final_log = one_alignment_tables(
                rng, False, int(rng.integers(1, 9))
            )
            C = (C * 50).astype(dtype)
            if dtype != np.int64:
                log_pi, log_A, log_dur, final_log = (
                    a.astype(dtype) for a in (log_pi, log_A, log_dur, final_log)
                )
            tables = (log_pi, log_A, log_dur, C, final_log)
            got = outcome(lambda: inference._walk(T, *tables))
            assert got == outcome(lambda: inference._fill(T, Q, *tables)[0])


def test_dp_peak_is_best_and_earg():
    """T = 8,000, Q = 22, D_max = 36: above its inputs the fill keeps
    ``best`` and ``earg``, (T + 1) x Q ints each, and scratch of a block's
    size; a (T, Q) copy of the prefix sums would not fit under the bound."""
    rng = np.random.default_rng(0)
    model = random_hsmm(rng, n_states=22, d_max=36, F=6)
    stream = random_stream(rng, 8000, 6)
    log_pi, log_A, log_dur, C = _log_tables(model, stream)
    tracemalloc.start()
    try:
        filled = inference._fill(8000, 22, log_pi, log_A, log_dur, C, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = inference._backtrack(8000, *filled, log_pi, log_A, log_dur, C)
    assert result.segmentation.T == 8000
    assert peak < 8001 * 22 * 16 + 2 * 2**20


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


class TestDeferredResult:
    """Nothing is deferred: the DP raises in the call, and a decode's result
    holds no DP array."""

    def test_hsmm_viterbi_result_holds_no_dp_array(self):
        rng = np.random.default_rng(8)
        model = random_hsmm(rng, n_states=4, d_max=6, F=2)
        stream = random_stream(rng, 2 * DP_BLOCK + 3, 2)
        result = hsmm_viterbi(stream, model)
        assert not any(
            isinstance(v, np.ndarray) for v in vars(result).values()
        )
        again = hsmm_viterbi(stream, model)
        assert result is not again
        assert result == again and hash(result) == hash(again)
        # a frozen value: no field can be reassigned
        with pytest.raises(AttributeError):
            result.log_prob = 0.0

    @pytest.mark.parametrize("poison", ["-inf", "nan"])
    def test_infeasible_raises_in_the_call(self, poison):
        T, Q, D, log_pi, log_A, log_dur, C, _ = random_tables(
            np.random.default_rng(6), False, 40, 6
        )
        if poison == "-inf":
            log_dur[:] = -np.inf
        else:
            C[1:] = np.nan
        with pytest.raises(NoFeasiblePath):
            segment_viterbi_on_tables(T, log_pi, log_A, log_dur, C)


#: A T, or a table that is not an array of the shape T and Q = 2 imply.
MISSIZED = {
    "T-zero": ("T", 0),
    "T-fraction": ("T", 2.5),
    "T-bool": ("T", True),
    "log_pi-scalar": ("log_pi", np.float64(0.0)),
    "log_pi-empty": ("log_pi", np.zeros(0)),
    "log_A-wide": ("log_A", np.zeros((2, 3))),
    "log_A-list": ("log_A", [[0.0, 0.0], [0.0, 0.0]]),
    "log_dur-one-column": ("log_dur", np.zeros((2, 1))),
    "log_dur-three-rows": ("log_dur", np.zeros((3, 4))),
    "log_dur-flat": ("log_dur", np.zeros(4)),
    "cumsum-T-rows": ("emission_cumsum", np.zeros((4, 2))),
    "cumsum-extra-row": ("emission_cumsum", np.zeros((6, 2))),
    "final_log-broadcast": ("final_log", np.zeros(1)),
    "final_log-column": ("final_log", np.zeros((2, 1))),
}


@pytest.mark.parametrize("name", sorted(MISSIZED))
def test_missized_table_is_named(name):
    """A T of 4 ticks needs a (5, Q) prefix sum; every other table is
    checked against log_pi's Q before anything is allocated."""
    param, value = MISSIZED[name]
    tables = {
        "T": 4, "log_pi": np.log([0.5, 0.5]),
        "log_A": np.array([[-np.inf, 0.0], [0.0, -np.inf]]), "log_dur": np.zeros((2, 4)),
        "emission_cumsum": np.zeros((5, 2)), "final_log": None,
    }
    assert segment_viterbi_on_tables(**tables) == math.log(0.5)
    with pytest.raises(BadArgument) as exc:
        segment_viterbi_on_tables(**{**tables, param: value})
    assert exc.value.param == param


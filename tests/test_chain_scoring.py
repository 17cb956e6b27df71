"""Library-wide chain scoring against the frozen per-chain reference.

``score_chains`` stacks every chain of a library into shared emission,
prefix-sum and duration tables.  The tables each chain's segment DP gets
must equal, bit for bit, the ones the original per-chain scorer builds, and
each log-prob must equal the reference's, or both must find no feasible
path.  Random libraries mix chain lengths 2..5, channel sets and feature
widths; random clips drop channels, leave ticks with no modeled channel,
and carry channels seen at a single tick.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import posehsmm.inference as inference
import posehsmm.summarize as summarize
import reference_chain_scoring
from posehsmm.emission import ChannelId, FeatureStream
from posehsmm.errors import NoFeasiblePath
from posehsmm.simulate import transition_protocol
from posehsmm.summarize import (
    MIN_GAP_STD,
    TransitionChain,
    TransitionLibrary,
    build_transition_library,
    classify_transition,
    score_chains,
)

MODELED = [ChannelId.parse(c) for c in ("left:RGB", "center:Depth", "right:Mask")]
#: a stream channel no chain models
EXTRA = ChannelId.parse("left:Depth")


def dp_inputs(module, name, call):
    """``call()``'s result and the arguments of each segment DP call it
    makes through ``module.<name>``: T, then its last five arguments (the
    log pi, log A, duration, prefix-sum and final tables of both the live
    and the frozen DP), each reduced to its dtype, shape and bytes."""
    calls = []
    real = getattr(module, name)

    def spy(T, *args):
        calls.append((T, *((a.dtype.str, a.shape, a.tobytes()) for a in args[-5:])))
        return real(T, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, spy)
        return call(), calls


def reference(chain, stream, use_keyframes):
    try:
        return reference_chain_scoring.reference_score_chain(chain, stream, use_keyframes)
    except NoFeasiblePath:
        return None


def assert_matches_reference(library, stream, use_keyframes):
    """Every chain's DP tables and log-prob equal the reference's, bit for
    bit, and the reference's best alignment has one segment per pseudo-pose,
    the invariant ``classify_transition`` reads its count from."""
    got, calls = dp_inputs(
        summarize, "segment_viterbi_on_tables",
        lambda: score_chains(library, stream, use_keyframes),
    )
    assert len(got) == len(calls) == len(library)
    for key, log_prob, tables in zip(library.sorted_keys(), got, calls):
        chain = library.entries[key]
        want, (want_tables,) = dp_inputs(
            reference_chain_scoring, "reference_segment_viterbi",
            lambda: reference(chain, stream, use_keyframes),
        )
        assert tables == want_tables, key
        if want is None:
            assert log_prob is None, key
            continue
        assert log_prob.hex() == want.log_prob.hex(), key
        assert len(want.segmentation) == chain.length, key


def random_library(rng, F, n=None, p_channel=0.6):
    combos = transition_protocol()
    n = int(rng.integers(1, 41)) if n is None else n
    entries = {}
    for k in rng.choice(len(combos), n, replace=False):
        L = int(rng.integers(2, 6))
        picked = [c for c in MODELED if rng.random() < p_channel] or [MODELED[0]]
        means = {}
        for c in picked:
            m = rng.random((L, F))
            # exact 0 / 1 means exercise the clamp
            m[rng.random((L, F)) < 0.1] = rng.choice([0.0, 1.0])
            means[c] = m
        gap_mean = rng.uniform(1.0, 8.0, L)
        gap_std = np.maximum(rng.uniform(0.0, 3.0, L), MIN_GAP_STD)
        entries[combos[k]] = TransitionChain(means, gap_mean, gap_std, 1)
    return TransitionLibrary(entries)


def random_stream(rng, F, T=None, p=None):
    T = int(rng.integers(1, 12)) if T is None else T
    channels = [c for c in (*MODELED, EXTRA) if rng.random() < 0.7] or [EXTRA]
    p = rng.uniform(0.1, 1.0) if p is None else p
    vectors = {c: rng.random((T, F)) for c in channels}
    available = {c: rng.random(T) < p for c in channels}
    return FeatureStream.from_arrays(vectors, available)


class TestMatchesReference:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_every_chain_bit_exact(self, seed, use_keyframes):
        rng = np.random.default_rng(seed)
        F = int(rng.integers(1, 11))
        library = random_library(rng, F)
        for _ in range(3):
            assert_matches_reference(library, random_stream(rng, F), use_keyframes)

    def test_full_protocol_library(self):
        # 200 chains on one channel set and full-rate clip lengths: products
        # wide enough for BLAS to leave its small-matrix path
        rng = np.random.default_rng(11)
        library = random_library(rng, 6, n=200, p_channel=1.0)
        for T in (5, 40):
            stream = random_stream(rng, 6, T, p=0.9)
            for use_keyframes in (True, False):
                assert_matches_reference(library, stream, use_keyframes)

    def test_uncovered_and_one_tick_channels(self):
        # tick 2 has no modeled channel; right:Mask is seen at one tick only
        rng = np.random.default_rng(7)
        library = random_library(rng, 9)
        vectors = {c: rng.random((4, 9)) for c in (*MODELED, EXTRA)}
        available = {
            MODELED[0]: np.array([True, False, True, True]),
            MODELED[1]: np.array([True, False, False, True]),
            MODELED[2]: np.array([False, False, True, False]),
            EXTRA: np.ones(4, dtype=bool),
        }
        stream = FeatureStream.from_arrays(vectors, available)
        for use_keyframes in (True, False):
            assert_matches_reference(library, stream, use_keyframes)


def ramp_clip(lo, hi, T=21, F=2):
    rows = np.linspace(lo, hi, T)[:, None] * np.ones(F)
    return FeatureStream.from_arrays({MODELED[0]: rows})


def test_one_dp_call_per_chain(monkeypatch):
    """The benchmark's tracer counts one ``segment_viterbi_on_tables`` call
    per library chain and classified clip, feasible or not; no chain is
    backtracked."""
    combos = transition_protocol()
    clips = [(ramp_clip(0.0, 1.0), *combos[0]), (ramp_clip(1.0, 0.0), *combos[1])]
    clips.append((ramp_clip(0.0, 1.0, T=3), *combos[2]))
    library = build_transition_library(clips, threshold=0.4)
    calls = []
    real = summarize.segment_viterbi_on_tables

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    backtracks = []
    scores = inference._segment_scores

    def counted_scores(*args):
        backtracks.append(args[0])
        return scores(*args)

    monkeypatch.setattr(summarize, "segment_viterbi_on_tables", counted)
    monkeypatch.setattr(inference, "_segment_scores", counted_scores)
    classify_transition(ramp_clip(0.0, 1.0, T=4), library, threshold=0.4)
    assert len(calls) == len(library) == 3
    assert not backtracks
    calls.clear()
    classify_transition(ramp_clip(0.0, 1.0), library, threshold=0.4, use_keyframes=False)
    assert len(calls) == 3
    assert not backtracks

"""Library-wide chain scoring against the frozen per-chain reference.

``score_chains`` stacks every chain of a library into shared emission,
prefix-sum and duration tables.  Each chain's result must equal what the
original per-chain scorer returns, bit for bit, or both must find no
feasible path.  Random libraries mix chain lengths 2..5, channel sets and
feature widths; random clips drop channels, leave ticks with no modeled
channel, and carry channels seen at a single tick.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import posehsmm.inference as inference
import posehsmm.summarize as summarize
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

from reference_chain_scoring import reference_score_chain

MODELED = [ChannelId.parse(c) for c in ("left:RGB", "center:Depth", "right:Mask")]
#: a stream channel no chain models
EXTRA = ChannelId.parse("left:Depth")


def outcome(result):
    """A chain's ``(log_prob, path)`` pair, backtracked and reduced to
    bit-exact comparable values."""
    if result is None:
        return "infeasible"
    log_prob, path = result
    result = path()
    assert result.log_prob.hex() == log_prob.hex()
    return (
        result.segmentation,
        result.log_prob.hex(),
        tuple(s.hex() for s in result.per_segment_scores),
    )


def reference(chain, stream, use_keyframes):
    try:
        return reference_score_chain(chain, stream, use_keyframes)
    except NoFeasiblePath:
        return None


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
            stream = random_stream(rng, F)
            got = score_chains(library, stream, use_keyframes)
            assert len(got) == len(library)
            for key, result in zip(library.sorted_keys(), got):
                want = reference(library.entries[key], stream, use_keyframes)
                assert outcome(result) == outcome(want), key

    def test_full_protocol_library(self):
        # 200 chains on one channel set and full-rate clip lengths: products
        # wide enough for BLAS to leave its small-matrix path
        rng = np.random.default_rng(11)
        library = random_library(rng, 6, n=200, p_channel=1.0)
        for T in (5, 40):
            stream = random_stream(rng, 6, T, p=0.9)
            for use_keyframes in (True, False):
                got = score_chains(library, stream, use_keyframes)
                for key, result in zip(library.sorted_keys(), got):
                    want = reference(library.entries[key], stream, use_keyframes)
                    assert outcome(result) == outcome(want), key

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
            got = score_chains(library, stream, use_keyframes)
            for key, result in zip(library.sorted_keys(), got):
                want = reference(library.entries[key], stream, use_keyframes)
                assert outcome(result) == outcome(want)


def ramp_clip(lo, hi, T=21, F=2):
    rows = np.linspace(lo, hi, T)[:, None] * np.ones(F)
    return FeatureStream.from_arrays({MODELED[0]: rows})


def test_one_dp_call_per_chain(monkeypatch):
    """The benchmark's tracer counts one ``segment_viterbi_on_tables`` call
    per library chain and classified clip, feasible or not; only the
    winning chain is backtracked."""
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
    assert len(backtracks) == 1
    calls.clear()
    backtracks.clear()
    classify_transition(ramp_clip(0.0, 1.0), library, threshold=0.4, use_keyframes=False)
    assert len(calls) == 3
    assert len(backtracks) == 1

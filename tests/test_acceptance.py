"""End-to-end gate: one verdict line per promised behavior.

Each test prints ``acceptance <n> <slug>: PASS|FAIL`` straight to the
terminal (bypassing capture) so a ``pytest -v`` run always shows the nine
verdicts, with timing and the measured headroom in parentheses.
"""

import hashlib
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import CH, random_hsmm, random_stream, tick_states
from reference_brute_force import brute_force_decode
from reference_tick_chain import (
    GeometricDurationModel,
    HmmModel,
    geometric_duration_pmf,
    hmm_joint_log_prob,
    hmm_viterbi,
    hsmm_from_hmm,
)
from posehsmm import fileio
from posehsmm.cli import fit_hsmm
from posehsmm.emission import ChannelEmissionModel, fit_channel_emissions
from posehsmm.errors import NoFeasiblePath, NoTransitionDetected
from posehsmm.inference import (
    fit_durations,
    fit_transitions,
    hsmm_joint_log_prob,
    hsmm_viterbi,
)
from posehsmm.keyframes import select_keyframes
from posehsmm.simulate import (
    ScenarioConfig,
    preset_config,
    sample_sequence,
    sample_transition_clip,
    transition_protocol,
)
from posehsmm.states import (
    CANONICAL_POSES,
    MOCK_ICU_POSES,
    DurationModel,
    StateSpace,
    build_initial_distribution,
    encode_segments,
)
from posehsmm.summarize import (
    build_transition_library,
    classify_transition,
    history_from_segments,
    summarize_history,
    window_detection_rate,
)

#: Endpoint-dissimilarity threshold used by every sweep below.  The synthetic
#: templates are uniform draws, so endpoint distances concentrate well under
#: the CLI default of 0.8; 0.25 separates moving clips from noise-only ones.
SWEEP_THRESHOLD = 0.25


@contextmanager
def verdict(capsys, n, slug):
    info = {}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {n} {slug}: FAIL  [{time.perf_counter() - t0:.1f}s]")
        raise
    detail = f"  ({info['detail']})" if info.get("detail") else ""
    with capsys.disabled():
        print(
            f"\nacceptance {n} {slug}: PASS{detail}"
            f"  [{time.perf_counter() - t0:.1f}s]"
        )


def test_c1_decoder_matches_exhaustive_oracle(capsys):
    """Segment decoding agrees with a full enumeration on small instances."""
    with verdict(capsys, 1, "decoder-matches-oracle") as info:
        rng = np.random.default_rng(20250814)
        checked = infeasible = 0
        max_gap = 0.0
        while checked - infeasible < 110:
            Q = int(rng.integers(1, 4))
            D = int(rng.integers(1, 5))
            F = int(rng.integers(1, 5))
            T = int(rng.integers(1, 9))
            model = random_hsmm(rng, Q, D, F)
            stream = random_stream(rng, T, F)
            checked += 1
            try:
                fast = hsmm_viterbi(stream, model)
            except NoFeasiblePath:
                with pytest.raises(NoFeasiblePath):
                    brute_force_decode(stream, model)
                infeasible += 1
                continue
            slow = brute_force_decode(stream, model)
            gap = abs(fast.log_prob - slow.log_prob)
            max_gap = max(max_gap, gap)
            assert gap <= 1e-9
            assert fast.segmentation == slow.segmentation
        info["detail"] = (
            f"{checked} models, {infeasible} infeasible on both sides, "
            f"max |dlp| {max_gap:.1e}"
        )


def _restricted_growth(L, k_max):
    """Canonical representatives of label sequences modulo relabeling."""
    seq = [0] * L

    def rec(pos, used):
        if pos == L:
            yield tuple(seq)
            return
        for v in range(min(used + 1, k_max)):
            seq[pos] = v
            yield from rec(pos + 1, max(used, v + 1))

    yield from rec(1, 1)


def test_c2_run_length_round_trip(capsys):
    """encode/decode is the identity on label sequences up to length 12.

    Full 4-letter enumeration to length 12 is 22M calls, far past the time
    budget, so coverage is split: raw-exhaustive to length 8, exhaustive over
    relabeling classes to length 11 (round tripping commutes with label
    bijections, checked below), and at length 12 every run-boundary pattern
    with several labelings plus a dense seeded sample.
    """
    with verdict(capsys, 2, "run-length-round-trip") as info:
        raw = 0
        for L in range(1, 9):
            for labels in itertools.product(range(4), repeat=L):
                assert tick_states(encode_segments(labels)) == list(labels)
                raw += 1

        classes = 0
        for L in range(9, 12):
            for labels in _restricted_growth(L, 4):
                assert tick_states(encode_segments(labels)) == list(labels)
                classes += 1

        rng = np.random.default_rng(17)
        equivariant = 0
        for _ in range(2000):
            L = int(rng.integers(1, 13))
            x = rng.integers(0, 4, size=L).tolist()
            perm = rng.permutation(4).tolist()
            px = [perm[v] for v in x]
            a = [(s.b, s.d, perm[s.y_index]) for s in encode_segments(x)]
            b = [(s.b, s.d, s.y_index) for s in encode_segments(px)]
            assert a == b
            assert tick_states(encode_segments(px)) == px
            equivariant += 1

        patterns = 0
        for bits in itertools.product((0, 1), repeat=11):
            labels = [0]
            for bit in bits:
                labels.append((labels[-1] + 1) % 4 if bit else labels[-1])
            assert tick_states(encode_segments(labels)) == labels
            alt = [0]
            for bit in bits:
                step = int(rng.integers(1, 4))
                alt.append((alt[-1] + step) % 4 if bit else alt[-1])
            assert tick_states(encode_segments(alt)) == alt
            patterns += 1

        dense = 0
        for _ in range(20000):
            x = rng.integers(0, 4, size=12).tolist()
            assert tick_states(encode_segments(x)) == x
            dense += 1
        info["detail"] = (
            f"{raw} raw <=8, {classes} classes 9..11, {patterns} boundary "
            f"patterns at 12, {dense} sampled at 12, {equivariant} bijections"
        )


def test_c3_self_loop_chain_equivalence(capsys):
    """Explicit geometric dwell times re-express a self-loop chain exactly."""
    with verdict(capsys, 3, "self-loop-chain-equivalence") as info:
        rng = np.random.default_rng(3)
        max_err = 0.0
        cases = 0
        for trial in range(12):
            Q = 2 + trial % 2
            F = int(rng.integers(1, 4))
            pi = rng.dirichlet(np.ones(Q))
            A = rng.dirichlet(np.ones(Q), size=Q)
            em = {CH: ChannelEmissionModel(CH, rng.uniform(0.1, 0.9, (Q, F)))}
            hmm = HmmModel(pi, A, em)
            for T in range(1, 7):
                stream = random_stream(rng, T, F)
                hsmm = hsmm_from_hmm(hmm, d_max=T, truncated=False)
                for labels in itertools.product(range(Q), repeat=T):
                    lp_chain = hmm_joint_log_prob(labels, stream, hmm)
                    lp_seg = hsmm_joint_log_prob(
                        encode_segments(labels), stream, hsmm
                    )
                    exit_mass = math.log(1.0 - A[labels[-1], labels[-1]])
                    err = abs(lp_seg - (lp_chain + exit_mass))
                    max_err = max(max_err, err)
                    assert err <= 1e-10
                    cases += 1

        # constant self-loop mass: the exit term is label-free, so the two
        # decoders must find equally good paths (possibly different ties)
        argmax_checked = 0
        for trial in range(10):
            Q = 2 + trial % 2
            rho = float(rng.uniform(0.1, 0.9))
            off = rng.dirichlet(np.ones(Q - 1), size=Q)
            A = np.zeros((Q, Q))
            for i in range(Q):
                A[i, [j for j in range(Q) if j != i]] = (1.0 - rho) * off[i]
                A[i, i] = rho
            F = int(rng.integers(1, 4))
            em = {CH: ChannelEmissionModel(CH, rng.uniform(0.1, 0.9, (Q, F)))}
            hmm = HmmModel(rng.dirichlet(np.ones(Q)), A, em)
            T = int(rng.integers(2, 7))
            stream = random_stream(rng, T, F)
            labels_h, lp_h = hmm_viterbi(stream, hmm)
            result = hsmm_viterbi(stream, hsmm_from_hmm(hmm, T, truncated=False))
            back = hmm_joint_log_prob(tick_states(result.segmentation), stream, hmm)
            assert abs(back - lp_h) <= 1e-10
            assert abs(result.log_prob - (lp_h + math.log(1.0 - rho))) <= 1e-10
            argmax_checked += 1
        info["detail"] = (
            f"{cases} labelings exact (max err {max_err:.1e}), "
            f"{argmax_checked} argmax agreements"
        )


def test_c4_supervised_parameter_recovery(capsys):
    """Fitting on 10k labeled ticks recovers the generating parameters."""
    with verdict(capsys, 4, "supervised-parameter-recovery") as info:
        cfg = ScenarioConfig(
            poses=CANONICAL_POSES[:4],
            scene_doubling=False,
            t_target=10_000,
            duration_mean=5.0,
            duration_std=1.0,
            noise=0.05,
            dropout=0.0,
            seed=42,
        )
        stream, truth = sample_sequence(cfg)
        model = truth.generating_model
        n = model.n_states
        A_fit = fit_transitions([truth.segmentation], n)
        tv = float(0.5 * np.abs(A_fit - model.A).sum(axis=1).max())
        assert tv <= 0.05

        durations = fit_durations([truth.segmentation], n, cfg.resolved_d_max())
        dur_err = float(np.abs(durations.mean - 5.0).max())
        assert dur_err <= 0.1

        em_err = 0.0
        for c in cfg.channels:
            fit = fit_channel_emissions([stream], [truth.segmentation], c, n)
            em_err = max(
                em_err, float(np.abs(fit.means - model.emissions[c].means).max())
            )
        assert em_err <= 0.02
        info["detail"] = (
            f"transition TV {tv:.3f} <= 0.05, emission {em_err:.3f} <= 0.02, "
            f"duration {dur_err:.3f} <= 0.1"
        )


def test_c5_window_detection_by_regime(capsys):
    """Bright scenes summarize above 0.85, dark above 0.70, bright always wins.

    The published per-recording rates need hospital footage; this is the
    simulated stand-in with both regimes pinned by the presets.
    """
    with verdict(capsys, 5, "window-detection-by-regime") as info:
        rates = {}
        for name in ("bc-sim", "do-sim"):
            streams, truths = zip(*(
                sample_sequence(preset_config(name, seed=s)) for s in range(100, 106)
            ))
            space = truths[0].generating_model.states
            model = fit_hsmm(streams, [t.segmentation for t in truths], space)
            per_seed = []
            for seed in range(1, 21):
                stream, truth = sample_sequence(preset_config(name, seed=seed))
                predicted = summarize_history(stream, model)
                reference = history_from_segments(truth.segmentation, space)
                per_seed.append(window_detection_rate(predicted, reference))
            rates[name] = per_seed
        bc, do = rates["bc-sim"], rates["do-sim"]
        assert float(np.mean(bc)) >= 0.85
        assert float(np.mean(do)) >= 0.70
        margins = [b - d for b, d in zip(bc, do)]
        assert all(m > 0.0 for m in margins)
        info["detail"] = (
            f"bc {np.mean(bc):.3f} (min {min(bc):.3f}), "
            f"do {np.mean(do):.3f} (min {min(do):.3f}), "
            f"min margin {min(margins):.3f} over 20 seeds"
        )


def _clip_factory():
    base = dict(
        poses=CANONICAL_POSES,
        scene_doubling=False,
        noise=0.05,
        dropout=0.0,
    )

    def make(combo, seed):
        a, b, d = combo
        cfg = ScenarioConfig(seed=seed, **base)
        return sample_transition_clip(a, b, d, cfg)[0]

    return make


#: sha256 of acceptance 6's seed-1 records against its K = 5 library, one
#: line per clip (``from to direction log_prob.hex() count``, or ``static``):
#: the 200 protocol clips in keyframe mode, and the 68 subset clips at full
#: rate.  Taken before the library stacked its chains in its constructor.
C6_KEYFRAME_SHA256 = "d32a4f1bd8f65bc86e8ae0c1273a54d402a066d9b07b915b2af5822749e27fa7"
C6_FULL_RATE_SHA256 = "83d86a8310cb3bf14488640601f081d5cba422c18d1656e49a9941ad36d560dd"


def _classify_all(clips, library, **kw):
    """Each clip's K = 5 record, or None for a clip with no transition."""
    records = []
    for clip in clips:
        try:
            records.append(classify_transition(clip, library, 5, SWEEP_THRESHOLD, **kw))
        except NoTransitionDetected:
            records.append(None)
    return records


def _records_sha256(records):
    lines = [
        "static" if r is None else
        f"{r.from_pose} {r.to_pose} {r.direction} {r.log_prob.hex()} {r.n_pseudo_poses}"
        for r in records
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_c6_transition_classification_sweep(capsys):
    """Simulated stand-in for the published clip accuracy: >= 0.78 at K=5,
    and accuracy does not fall as the keyframe budget grows."""
    with verdict(capsys, 6, "transition-classification-sweep") as info:
        make = _clip_factory()
        protocol = transition_protocol()
        train_seeds = range(100, 108)

        lib5 = build_transition_library(
            (
                (make(combo, s), *combo)
                for s in train_seeds
                for combo in protocol
            ),
            k_max=5,
            threshold=SWEEP_THRESHOLD,
        )
        records = _classify_all((make(combo, 1) for combo in protocol), lib5)
        hits = sum(rec is not None and (rec.from_pose, rec.to_pose, rec.direction) == combo
                   for rec, combo in zip(records, protocol))
        acc5 = hits / len(protocol)
        assert acc5 >= 0.78
        assert _records_sha256(records) == C6_KEYFRAME_SHA256

        # every third pose pair, keeping BOTH directions: the budget trend is
        # about resolving direction, so each kept pair must have its opposite
        # direction in the library as a competing candidate
        subset = [combo for k, combo in enumerate(protocol) if (k // 2) % 3 == 0]
        train_clips = [
            (make(combo, s), *combo) for s in train_seeds for combo in subset
        ]
        eval_clips = {
            (combo, s): make(combo, s)
            for s in range(1, 11)
            for combo in subset
        }
        full_rate = _classify_all(
            (eval_clips[(combo, 1)] for combo in subset), lib5, use_keyframes=False
        )
        assert _records_sha256(full_rate) == C6_FULL_RATE_SHA256
        means = {}
        for K in (2, 3, 5):
            lib = build_transition_library(
                train_clips, k_max=K, threshold=SWEEP_THRESHOLD
            )
            accs = []
            for s in range(1, 11):
                h = 0
                for combo in subset:
                    try:
                        rec = classify_transition(
                            eval_clips[(combo, s)], lib, K, SWEEP_THRESHOLD
                        )
                    except NoTransitionDetected:
                        continue
                    h += (rec.from_pose, rec.to_pose, rec.direction) == combo
                accs.append(h / len(subset))
            means[K] = float(np.mean(accs))
        assert means[2] <= means[3] <= means[5]
        info["detail"] = (
            f"full sweep K=5: {acc5:.3f} >= 0.78; "
            f"K trend 2/3/5: {means[2]:.3f} <= {means[3]:.3f} <= {means[5]:.3f}"
        )


def test_c7_keyframe_contract_on_sweep(capsys):
    """Every sweep clip: endpoints kept, at most 5 frames, rerun-identical;
    the planted motion peak lands within one tick at zero noise."""
    with verdict(capsys, 7, "keyframe-contract") as info:
        cfg = ScenarioConfig(
            poses=CANONICAL_POSES,
            scene_doubling=False,
            noise=0.0,
            dropout=0.0,
            seed=0,
        )
        static_n = recovered = 0
        for a, b, d in transition_protocol():
            stream, truth = sample_transition_clip(a, b, d, cfg)
            kfs = select_keyframes(stream, 5, SWEEP_THRESHOLD)
            assert kfs == select_keyframes(stream, 5, SWEEP_THRESHOLD)
            assert 2 <= len(kfs) <= 5
            assert kfs.ticks[0] == 1 and kfs.ticks[-1] == stream.T
            if a is b:
                # roll away and back: endpoints coincide, so the clip is
                # geometrically static and keeps only its endpoints
                assert kfs.static
                static_n += 1
                continue
            assert not kfs.static
            mid = truth.transition.anchor_ticks[1]
            off = min(abs(kf.frame_index - mid) for kf in kfs)
            assert off <= 1
            recovered += 1
        assert static_n == 20 and recovered == 180
        info["detail"] = (
            f"{recovered}/180 midpoints within +-1 tick, "
            f"{static_n} roll-and-back clips static"
        )


def test_c8_distribution_checks(capsys):
    """Priors and dwell pmfs normalize; geometric partial sums are closed form."""
    with verdict(capsys, 8, "distribution-checks") as info:
        doubled = build_initial_distribution(StateSpace.from_poses(MOCK_ICU_POSES))
        collapsed = build_initial_distribution(
            StateSpace.from_poses(MOCK_ICU_POSES, scene_doubling=False)
        )
        assert doubled.sum() == 1.0
        assert collapsed.sum() == 1.0

        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(30):
            Q = int(rng.integers(1, 8))
            D = int(rng.integers(1, 40))
            dur = DurationModel(
                rng.uniform(0.5, D + 1.0, Q), rng.uniform(0.05, 5.0, Q), D
            )
            worst = max(worst, float(np.abs(dur.pmf_table().sum(axis=1) - 1.0).max()))
            geo = GeometricDurationModel(rng.uniform(0.0, 0.99, Q), D)
            worst = max(worst, float(np.abs(geo.pmf_table().sum(axis=1) - 1.0).max()))
        assert worst <= 1e-12

        geo_err = 0.0
        for rho in (0.3, 0.85, 0.99):
            for n in (1, 5, 50):
                partial = sum(
                    geometric_duration_pmf(rho, d) for d in range(1, n + 1)
                )
                geo_err = max(geo_err, abs(partial - (1.0 - rho**n)))
        assert geo_err <= 1e-12
        info["detail"] = (
            f"prior sums exact, pmf row error <= {worst:.1e}, "
            f"geometric partial-sum error <= {geo_err:.1e}"
        )


def test_c9_persistence_reproduces_decode(capsys, tmp_path):
    """Save, load, decode: identical segmentation and score on random cases."""
    with verdict(capsys, 9, "persistence-reproduces-decode") as info:
        rng = np.random.default_rng(99)
        worst = 0.0
        for k in range(10):
            Q = int(rng.integers(2, 6))
            D = int(rng.integers(2, 7))
            F = int(rng.integers(1, 4))
            T = int(rng.integers(5, 31))
            model = random_hsmm(rng, Q, D, F)
            stream = random_stream(rng, T, F)
            path = tmp_path / f"case{k}.model"
            fileio.write_model(model, path)
            loaded = fileio.read_model(path)
            a = hsmm_viterbi(stream, model)
            b = hsmm_viterbi(stream, loaded)
            worst = max(worst, abs(a.log_prob - b.log_prob))
            assert abs(a.log_prob - b.log_prob) <= 1e-12
            assert a.segmentation == b.segmentation
        info["detail"] = f"10/10 cases, max |dlp| {worst:.1e}"

"""Decoders and fits: scalar oracles, brute-force agreement, and invariants."""

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posehsmm import (
    DurationModel,
    HsmmModel,
    Segment,
    Segmentation,
    check_transition_matrix,
    encode_segments,
    fit_durations,
    fit_transitions,
    frame_accuracy,
    hsmm_joint_log_prob,
    hsmm_viterbi,
    segment_viterbi_on_tables,
)
from posehsmm.emission import ChannelEmissionModel, FeatureStream
from posehsmm.errors import BadArgument, DurationOutOfRange, NoFeasiblePath

from conftest import CH, random_hsmm, random_stream
from reference_brute_force import InstanceTooLarge, brute_force_decode
from reference_tick_chain import (
    DegenerateSelfLoop,
    GeometricDurationModel,
    HmmModel,
    hmm_joint_log_prob,
    hmm_viterbi,
    hsmm_from_hmm,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def constant_stream(T, F=1, value=1.0):
    return FeatureStream.from_arrays({CH: np.full((T, F), value)})


def uniform_emissions(Q, F=1):
    return {CH: ChannelEmissionModel(CH, np.full((Q, F), 0.5))}


class TestTransitionMatrixCheck:
    def test_accepts_stochastic(self):
        A = np.array([[0.0, 0.25, 0.75], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
        assert check_transition_matrix(A) is not None

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_transition_matrix(np.array([[0.0, 0.9], [1.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_transition_matrix(np.array([[0.0, 1.0], [1.2, -0.2]]))

    @pytest.mark.parametrize(
        "A", [[[0.0, math.nan], [1.0, 0.0]], [[0.0, math.inf], [1.0, 0.0]]],
        ids=["nan", "inf"],
    )
    def test_rejects_non_finite(self, A):
        with pytest.raises(BadArgument):
            check_transition_matrix(np.array(A))

    def test_zero_diagonal_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            check_transition_matrix(np.array([[0.1, 0.9], [1.0, 0.0]]))

    def test_single_state_semi_markov_row_may_be_zero(self):
        assert check_transition_matrix(np.zeros((1, 1))) is not None


class TestFitTransitions:
    def test_semi_markov_collapses_runs(self):
        A = fit_transitions([encode_segments([0, 0, 1, 1, 0])], 2)
        assert A.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_unseen_row_uniform_off_diagonal(self):
        A = fit_transitions([encode_segments([0, 1])], 3)
        assert A[2].tolist() == pytest.approx([0.5, 0.5, 0.0])

    def test_pooling_multiple_sequences(self):
        # 0->1 twice and 0->2 once, split across segmentations
        A = fit_transitions([encode_segments([0, 1]), encode_segments([0, 1, 0, 2])], 3)
        assert A[0].tolist() == pytest.approx([0.0, 2 / 3, 1 / 3])

    def test_single_state_row_stays_zero(self):
        assert fit_transitions([encode_segments([0, 0])], 1).tolist() == [[0.0]]

    @pytest.mark.parametrize(
        "sequences",
        [[encode_segments([0, -1, 0])], [encode_segments([0, 5])], [0, 1]],
        ids=["negative", "beyond-Q", "not-a-list-of-sequences"],
    )
    def test_label_outside_states_names_sequences(self, sequences):
        with pytest.raises(BadArgument) as exc:
            fit_transitions(sequences, 2)
        assert exc.value.param == "segmentations"


class TestFitDurations:
    @pytest.mark.parametrize("labels", [[0, 0, -1], [0, 2]], ids=["negative", "beyond-Q"])
    def test_segment_state_outside_states_names_segmentations(self, labels):
        with pytest.raises(BadArgument) as exc:
            fit_durations([encode_segments(labels)], 2, 4)
        assert exc.value.param == "segmentations"

    def test_worked_example(self):
        seg = Segmentation((Segment(1, 2, 0), Segment(3, 1, 1), Segment(4, 4, 0)), 7)
        model = fit_durations([seg], 2, d_max=8)
        assert model.mean[0] == pytest.approx(3.0)
        assert model.std[0] == pytest.approx(1.0)  # population std of {2, 4}

    def test_single_observation_floors_std(self):
        seg = Segmentation((Segment(1, 3, 0),), 3)
        model = fit_durations([seg], 1, d_max=6)
        assert model.mean[0] == pytest.approx(3.0)
        assert model.std[0] == 0.5

    def test_unobserved_state_defaults(self):
        seg = Segmentation((Segment(1, 3, 0),), 3)
        model = fit_durations([seg], 2, d_max=8)
        assert model.mean[1] == pytest.approx(4.0)
        assert model.std[1] == pytest.approx(2.0)


class TestHmm:
    def hand_model(self):
        pi = np.array([0.6, 0.4])
        A = np.array([[0.7, 0.3], [0.2, 0.8]])
        mu = np.array([[0.9], [0.1]])
        return HmmModel(pi, A, {CH: ChannelEmissionModel(CH, mu)})

    def test_joint_log_prob_hand_value(self):
        model = self.hand_model()
        stream = FeatureStream.from_arrays({CH: np.array([[1.0], [0.0]])})
        expected = (
            math.log(0.6) + math.log(0.9) + math.log(0.3) + math.log(0.9)
        )
        assert hmm_joint_log_prob([0, 1], stream, model) == pytest.approx(expected)

    def test_viterbi_matches_exhaustive(self, rng):
        for _ in range(20):
            Q = int(rng.integers(1, 4))
            T = int(rng.integers(1, 7))
            pi = rng.dirichlet(np.ones(Q))
            A = rng.dirichlet(np.ones(Q), size=Q)
            mu = rng.uniform(0.05, 0.95, (Q, 2))
            model = HmmModel(pi, A, {CH: ChannelEmissionModel(CH, mu)})
            stream = random_stream(rng, T, 2)
            labels, lp = hmm_viterbi(stream, model)
            best = max(
                hmm_joint_log_prob(list(seq), stream, model)
                for seq in itertools.product(range(Q), repeat=T)
            )
            assert lp == pytest.approx(best, rel=1e-12)
            assert hmm_joint_log_prob(labels, stream, model) == pytest.approx(
                best, rel=1e-12
            )

    def test_tie_break_lowest_index(self):
        pi = np.array([0.5, 0.5])
        A = np.full((2, 2), 0.5)
        model = HmmModel(pi, A, uniform_emissions(2))
        labels, _ = hmm_viterbi(constant_stream(4), model)
        assert labels == [0, 0, 0, 0]


class TestHsmmJointScore:
    def test_term_by_term_oracle(self):
        pi = np.array([0.3, 0.7])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        dur = DurationModel(np.array([2.0, 1.0]), np.array([0.7, 0.9]), 3)
        mu = np.array([[0.8, 0.4], [0.3, 0.6]])
        model = HsmmModel(pi, A, dur, {CH: ChannelEmissionModel(CH, mu)})
        x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        stream = FeatureStream.from_arrays({CH: x})
        seg = encode_segments([1, 0, 0])

        pmf = dur.pmf_table()
        def em(t, i):
            return sum(
                x[t, f] * math.log(mu[i, f]) + (1 - x[t, f]) * math.log(1 - mu[i, f])
                for f in range(2)
            )
        expected = (
            math.log(0.7) + math.log(pmf[1, 0]) + em(0, 1)
            + math.log(1.0) + math.log(pmf[0, 1]) + em(1, 0) + em(2, 0)
        )
        assert hsmm_joint_log_prob(seg, stream, model) == pytest.approx(
            expected, rel=1e-12
        )

    def test_duration_beyond_d_max_rejected(self):
        model = random_hsmm(np.random.default_rng(0), n_states=2, d_max=2, F=1)
        stream = constant_stream(3)
        with pytest.raises(DurationOutOfRange):
            hsmm_joint_log_prob(encode_segments([0, 0, 0]), stream, model)

    def test_state_outside_model_rejected(self):
        model = random_hsmm(np.random.default_rng(0), n_states=2, d_max=3, F=1)
        with pytest.raises(BadArgument, match=r"state 5 outside \[0, 2\)"):
            hsmm_joint_log_prob(encode_segments([0, 5, 0]), constant_stream(3), model)


class TestHsmmViterbi:
    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            model = random_hsmm(rng)
            T = int(rng.integers(1, 8))
            stream = random_stream(rng, T, model.emissions[CH].F)
            try:
                fast = hsmm_viterbi(stream, model)
            except NoFeasiblePath:
                with pytest.raises(NoFeasiblePath):
                    brute_force_decode(stream, model)
                continue
            slow = brute_force_decode(stream, model)
            assert fast.segmentation.segments == slow.segmentation.segments
            assert fast.log_prob == slow.log_prob  # identical arithmetic

    def test_engineered_tie_prefers_low_state_then_long_final_duration(self):
        # all scores tie by construction: flat symmetric durations, 0.5
        # emissions, uniform start; winner must be the reversed-lexicographic
        # minimum over [(state, -duration)] read back to front
        pi = np.array([0.5, 0.5])
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        dur = DurationModel(np.array([1.5, 1.5]), np.array([1.0, 1.0]), 2)
        model = HsmmModel(pi, A, dur, uniform_emissions(2))
        result = hsmm_viterbi(constant_stream(3), model)
        assert [(s.b, s.d, s.y) for s in result.segmentation] == [
            (1, 1, 1),
            (2, 2, 0),
        ]

    def test_single_state_long_sequence_infeasible(self):
        model = random_hsmm(np.random.default_rng(1), n_states=1, d_max=2, F=1)
        with pytest.raises(NoFeasiblePath):
            hsmm_viterbi(constant_stream(3), model)
        with pytest.raises(NoFeasiblePath):
            brute_force_decode(constant_stream(3), model)

    def test_per_segment_scores_sum_to_log_prob(self):
        rng = np.random.default_rng(5)
        model = random_hsmm(rng, n_states=3, d_max=3, F=2)
        stream = random_stream(rng, 7, 2)
        result = hsmm_viterbi(stream, model)
        assert sum(result.per_segment_scores) == pytest.approx(
            result.log_prob, rel=1e-12
        )
        assert hsmm_joint_log_prob(result.segmentation, stream, model) == pytest.approx(
            result.log_prob, rel=1e-12
        )

    def test_brute_force_guard(self):
        model = random_hsmm(np.random.default_rng(2), n_states=3, d_max=2, F=1)
        with pytest.raises(InstanceTooLarge):
            brute_force_decode(constant_stream(8), model, guard=10)


class TestConstrainedTrellis:
    def test_final_state_restriction(self):
        # two states, no transitions beyond 0 -> 1; forcing the path to end
        # in state 1 overrides a better score that stops in state 0
        log_pi = np.array([0.0, -np.inf])
        log_A = np.full((2, 2), -np.inf)
        log_A[0, 1] = 0.0
        dur = DurationModel(np.array([3.0, 1.0]), np.array([0.5, 0.5]), 3)
        E = np.zeros((3, 2))
        E[:, 1] = -5.0  # state 1 is expensive
        C = np.vstack([np.zeros(2), np.cumsum(E, axis=0)])
        _, path = segment_viterbi_on_tables(3, log_pi, log_A, dur.log_pmf_table(), C)
        free = path()
        assert [s.y for s in free.segmentation] == [0]
        _, path = segment_viterbi_on_tables(
            3, log_pi, log_A, dur.log_pmf_table(), C,
            final_log=np.array([-np.inf, 0.0]),
        )
        forced = path()
        assert [s.y for s in forced.segmentation] == [0, 1]
        assert forced.log_prob < free.log_prob

    def test_infeasible_final_restriction(self):
        log_pi = np.array([0.0, -np.inf])
        log_A = np.full((2, 2), -np.inf)
        dur = DurationModel(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 4)
        C = np.zeros((4, 2))
        with pytest.raises(NoFeasiblePath):
            segment_viterbi_on_tables(
                3, log_pi, log_A, dur.log_pmf_table(), C,
                final_log=np.array([-np.inf, 0.0]),
            )


class TestHmmHsmmEquivalence:
    def test_degenerate_self_loop_rejected(self):
        pi = np.array([1.0])
        A = np.array([[1.0]])
        hmm = HmmModel(pi, A, uniform_emissions(1))
        with pytest.raises(DegenerateSelfLoop):
            hsmm_from_hmm(hmm, 4)

    def test_off_diagonal_renormalization(self):
        A = np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]])
        hmm = HmmModel(np.full(3, 1 / 3), A, uniform_emissions(3))
        hsmm = hsmm_from_hmm(hmm, 5)
        assert hsmm.A[0].tolist() == pytest.approx([0.0, 0.6, 0.4])
        assert np.diag(hsmm.A).tolist() == [0.0, 0.0, 0.0]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_per_labeling_identity_with_exit_mass(self, seed):
        # joint probabilities agree once the chain's unresolved final exit
        # mass 1 - a[y_T, y_T] is attached to the segment model's score;
        # Q = 1 is excluded: its forced self-loop of 1 has no exit mass
        rng = np.random.default_rng(seed)
        Q = int(rng.integers(2, 4))
        T = int(rng.integers(1, 6))
        pi = rng.dirichlet(np.ones(Q))
        A = rng.dirichlet(np.ones(Q) * 2, size=Q)
        A = 0.5 * A + 0.5 * np.full((Q, Q), 1.0 / Q)  # keep diagonals < 1
        mu = rng.uniform(0.1, 0.9, (Q, 2))
        hmm = HmmModel(pi, A, {CH: ChannelEmissionModel(CH, mu)})
        hsmm = hsmm_from_hmm(hmm, d_max=T, truncated=False)
        stream = random_stream(rng, T, 2)
        labels = [int(v) for v in rng.integers(0, Q, T)]
        lp_chain = hmm_joint_log_prob(labels, stream, hmm)
        lp_seg = hsmm_joint_log_prob(encode_segments(labels), stream, hsmm)
        exit_mass = math.log(1.0 - A[labels[-1], labels[-1]])
        assert lp_seg == pytest.approx(lp_chain + exit_mass, rel=1e-9)

    def test_argmax_agreement_homogeneous_self_loops(self):
        # constant diagonal makes the exit-mass correction labeling-free, so
        # both decoders optimize the same objective
        rng = np.random.default_rng(17)
        for _ in range(10):
            Q, T, rho = 3, 6, 0.55
            off = rng.dirichlet(np.ones(Q - 1), size=Q) * (1.0 - rho)
            A = np.zeros((Q, Q))
            for i in range(Q):
                A[i, [j for j in range(Q) if j != i]] = off[i]
                A[i, i] = rho
            pi = rng.dirichlet(np.ones(Q))
            mu = rng.uniform(0.05, 0.95, (Q, 3))
            hmm = HmmModel(pi, A, {CH: ChannelEmissionModel(CH, mu)})
            hsmm = hsmm_from_hmm(hmm, d_max=T, truncated=False)
            stream = random_stream(rng, T, 3)
            labels, lp_chain = hmm_viterbi(stream, hmm)
            result = hsmm_viterbi(stream, hsmm)
            assert result.log_prob == pytest.approx(
                lp_chain + math.log(1.0 - rho), rel=1e-9
            )
            assert result.segmentation == encode_segments(labels)


class TestDecodeInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        Q = int(rng.integers(2, 4))
        model = random_hsmm(rng, n_states=Q, d_max=3, F=2)
        T = int(rng.integers(2, 7))
        stream = random_stream(rng, T, 2)
        perm = rng.permutation(Q)
        inv = np.argsort(perm)
        permuted = HsmmModel(
            model.pi[inv],
            model.A[np.ix_(inv, inv)],
            DurationModel(
                model.durations.mean[inv], model.durations.std[inv],
                model.durations.d_max,
            ),
            {CH: ChannelEmissionModel(CH, model.emissions[CH].means[inv])},
        )
        try:
            base = hsmm_viterbi(stream, model)
        except NoFeasiblePath:
            with pytest.raises(NoFeasiblePath):
                hsmm_viterbi(stream, permuted)
            return
        other = hsmm_viterbi(stream, permuted)
        assert other.log_prob == pytest.approx(base.log_prob, rel=1e-9)
        # the relabeled base path must score identically under the new names
        relabeled = Segmentation(
            tuple(Segment(s.b, s.d, int(perm[s.y_index])) for s in base.segmentation),
            T,
        )
        assert hsmm_joint_log_prob(relabeled, stream, permuted) == pytest.approx(
            base.log_prob, rel=1e-9
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_for_non_increasing_duration_pmfs(self, seed):
        # appending a frame can only lower the optimum when dwell pmfs are
        # non-increasing in d (geometric); Gaussian pmfs can break this
        rng = np.random.default_rng(seed)
        Q = int(rng.integers(1, 4))
        T = int(rng.integers(2, 7))
        pi = rng.dirichlet(np.ones(Q))
        A = np.zeros((Q, Q))
        if Q > 1:
            rows = rng.dirichlet(np.ones(Q - 1), size=Q)
            for i in range(Q):
                A[i, [j for j in range(Q) if j != i]] = rows[i]
        dur = GeometricDurationModel(rng.uniform(0.1, 0.9, Q), T, truncated=False)
        mu = rng.uniform(0.1, 0.9, (Q, 2))
        model = HsmmModel(pi, A, dur, {CH: ChannelEmissionModel(CH, mu)})
        x = (rng.random((T, 2)) < 0.5).astype(float)
        full = FeatureStream.from_arrays({CH: x})
        prefix = FeatureStream.from_arrays({CH: x[: T - 1]})
        assert (
            hsmm_viterbi(full, model).log_prob
            <= hsmm_viterbi(prefix, model).log_prob + 1e-12
        )

    def test_rising_gaussian_pmf_breaks_monotonicity(self):
        # counterexample: dwell mass still rising at the horizon makes the
        # longer observation window strictly more likely
        pi = np.array([1.0])
        A = np.zeros((1, 1))
        dur = DurationModel(np.array([5.0]), np.array([1.0]), 6)
        mu = np.array([[0.999999]])
        model = HsmmModel(pi, A, dur, {CH: ChannelEmissionModel(CH, mu)})
        lp3 = hsmm_viterbi(constant_stream(3), model).log_prob
        lp4 = hsmm_viterbi(constant_stream(4), model).log_prob
        assert lp4 > lp3

    def test_planted_sequence_recovered_at_low_noise(self):
        import posehsmm as p

        cfg = p.ScenarioConfig(
            poses=p.MOCK_ICU_POSES[:5], scene_doubling=False, t_target=300,
            duration_mean=8.0, duration_std=2.0, noise=0.01, dropout=0.0,
            seed=11,
        )
        stream, truth = p.sample_sequence(cfg)
        result = hsmm_viterbi(stream, truth.generating_model)
        assert frame_accuracy(result.segmentation, truth.segmentation) >= 0.98


def decode_outcome(decode, stream, model):
    try:
        result = decode(stream, model)
    except NoFeasiblePath:
        return "infeasible"
    return result.segmentation, result.log_prob.hex()


class TestOracleTieRule:
    #: oracle_fuzz.py --seed 0 trials where whole-total ranking broke exact
    #: ties differently from the DP (prefixes one ulp apart, equal totals)
    TIE_TRIALS = (1355, 3195, 4700)

    def test_replays_fuzz_trials(self):
        spec = importlib.util.spec_from_file_location(
            "oracle_fuzz", SCRIPTS / "oracle_fuzz.py"
        )
        oracle_fuzz = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle_fuzz)
        replay = set(self.TIE_TRIALS) | set(range(0, 4700, 15))
        draws = oracle_fuzz.draw_trials(seed=0)
        for trial, (T, Q, D, F, model, stream) in zip(range(max(replay) + 1), draws):
            if trial in replay:
                fast = decode_outcome(hsmm_viterbi, stream, model)
                slow = decode_outcome(brute_force_decode, stream, model)
                assert fast == slow, f"trial {trial} (T={T} Q={Q} D={D} F={F})"

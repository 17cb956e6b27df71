"""State vocabulary, segment encoding, and duration distributions."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posehsmm import (
    CANONICAL_POSES,
    INITIAL_POSE_PRIORS,
    MOCK_ICU_POSES,
    DurationModel,
    PoseLabel,
    SceneCondition,
    Segment,
    Segmentation,
    build_initial_distribution,
    encode_segments,
)
from posehsmm.errors import (
    BadArgument,
    DurationOutOfRange,
    EmptySequence,
    MalformedSegmentation,
)
from posehsmm.states import D_MAX_LIMIT, StateId, StateSpace, segment_runs

from conftest import assert_named_error, tick_states
from reference_tick_chain import (
    DegenerateSelfLoop,
    GeometricDurationModel,
    geometric_duration_pmf,
)

DOUBLED = StateSpace.from_poses(MOCK_ICU_POSES)
COLLAPSED = StateSpace.from_poses(MOCK_ICU_POSES, scene_doubling=False)


class TestPoseVocabulary:
    def test_symbol_bijection(self):
        symbols = [p.display_symbol for p in PoseLabel]
        assert len(set(symbols)) == len(symbols) == 12

    def test_signed_symbol_examples(self):
        assert PoseLabel.SOLDIER_UP.display_symbol == 1
        assert PoseLabel.SOLDIER_DOWN.display_symbol == -1
        assert PoseLabel.FETAL_RIGHT.display_symbol == 6
        assert PoseLabel.FETAL_LEFT.display_symbol == -6
        assert PoseLabel.ASPIRATION.display_symbol == 0
        assert PoseLabel.OTHER.display_symbol == 5

    def test_vocabulary_sizes(self):
        assert len(CANONICAL_POSES) == 10
        assert len(MOCK_ICU_POSES) == 11
        assert PoseLabel.ASPIRATION not in MOCK_ICU_POSES

    def test_scene_doubling_layout(self):
        space = DOUBLED
        assert len(space) == 22
        # BC block first, then DO block, same pose order
        assert all(s.scene is SceneCondition.BC for s in space[:11])
        assert all(space[i].pose is space[i + 11].pose for i in range(11))

    def test_space_rejects_wrong_indices(self):
        with pytest.raises(ValueError):
            StateSpace(tuple(reversed(COLLAPSED.states)))

    @pytest.mark.parametrize("index", [False, 0.0], ids=["bool", "float"])
    def test_space_rejects_index_that_is_no_integer(self, index):
        """``write_truth`` would write ``state False solU``, which
        ``read_truth`` refuses."""
        with pytest.raises(BadArgument, match="at position 0 has index"):
            StateSpace((StateId(PoseLabel.SOLDIER_UP, None, index),))

    def test_index_of_finds_each_state(self):
        for space in (DOUBLED, COLLAPSED):
            assert [space.index_of(s.pose, s.scene) for s in space] == list(range(len(space)))

    @pytest.mark.parametrize(
        "space, pose, scene",
        [(StateSpace.from_poses([PoseLabel.SOLDIER_UP], False), PoseLabel.OTHER, None),
         (StateSpace.from_poses([PoseLabel.SOLDIER_UP], False), "solU", None),
         (COLLAPSED, PoseLabel.SOLDIER_UP, SceneCondition.BC),
         (DOUBLED, PoseLabel.SOLDIER_UP, None),
         (DOUBLED, PoseLabel.ASPIRATION, SceneCondition.DO)],
        ids=["missing-pose", "text", "scene-in-collapsed", "no-scene-in-doubled",
             "missing-doubled"],
    )
    def test_index_of_names_a_pose_it_lacks(self, space, pose, scene):
        with pytest.raises(BadArgument, match="no state of pose") as exc:
            space.index_of(pose, scene)
        assert exc.value.param == "pose"


class TestInitialDistribution:
    def test_raw_table_sums_above_one(self):
        # published columns carry a rounding surplus; renormalization owns it
        raw = sum(
            v for prior in INITIAL_POSE_PRIORS.values() for v in prior.values()
        )
        assert raw == pytest.approx(1.049, abs=1e-9)

    def test_doubled_prior_sums_to_exactly_one(self):
        pi = build_initial_distribution(DOUBLED)
        assert pi.sum() == 1.0
        assert np.all(pi >= 0.0)

    def test_collapsed_prior_matches_scene_sums(self):
        pi = build_initial_distribution(COLLAPSED)
        assert pi.sum() == 1.0
        fetal = COLLAPSED.index_of(PoseLabel.FETAL_RIGHT)
        expected = (0.145 + 0.07) / 1.049
        assert pi[fetal] == pytest.approx(expected, rel=1e-12)

    def test_proportions_preserved(self):
        pi = build_initial_distribution(DOUBLED)
        a = DOUBLED.index_of(PoseLabel.SOLDIER_UP, SceneCondition.BC)
        b = DOUBLED.index_of(PoseLabel.SOLDIER_DOWN, SceneCondition.BC)
        assert pi[a] / pi[b] == pytest.approx(0.03 / 0.02, rel=1e-9)


class TestSegments:
    def test_worked_example(self):
        labels = [1, 1, 1, 2, 2, 1, 2, 2]
        seg = encode_segments(labels)
        assert [(s.b, s.d, s.y) for s in seg] == [
            (1, 3, 1),
            (4, 2, 2),
            (6, 1, 1),
            (7, 2, 2),
        ]
        assert tick_states(seg) == labels

    def test_single_state_sequence(self):
        seg = encode_segments([0] * 5)
        assert [(s.b, s.d, s.y) for s in seg] == [(1, 5, 0)]

    def test_rejects_non_maximal_runs(self):
        with pytest.raises(MalformedSegmentation):
            Segmentation((Segment(1, 2, 0), Segment(3, 2, 0)), 4)

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(MalformedSegmentation):
            Segmentation((Segment(1, 2, 0), Segment(4, 1, 1)), 4)
        with pytest.raises(MalformedSegmentation):
            Segmentation((Segment(1, 3, 0), Segment(3, 2, 1)), 4)

    def test_rejects_wrong_start_or_cover(self):
        with pytest.raises(MalformedSegmentation):
            Segmentation((Segment(2, 2, 0),), 3)
        with pytest.raises(MalformedSegmentation):
            Segmentation((Segment(1, 2, 0),), 3)

    @pytest.mark.parametrize(
        "build, u",
        [(lambda: Segmentation((Segment(1, 2, 0.5),), 2), 0),
         (lambda: Segmentation((Segment(1, 2, 1.0),), 2), 0),
         (lambda: encode_segments([1.5] * 10), 0),
         (lambda: Segmentation((Segment(1, 1, 0), Segment(2, 1, 0.5)), 2), 1),
         (lambda: Segmentation((Segment(1, 1, "0"), Segment(2, 1, 1)), 2), 0),
         (lambda: Segmentation((Segment(1, 2, True),), 2), 0),
         (lambda: Segmentation((Segment(1, 1, 1), Segment(2, 1, False)), 2), 1),
         (lambda: Segmentation((Segment(1, 2, DOUBLED[3]),), 2), 0),
         (lambda: Segmentation((Segment(1, 1, 0), Segment(2, 1, COLLAPSED[1])), 2), 1)],
        ids=["float", "integral-float", "encoded-float", "float-after-first", "text",
             "bool", "bool-after-first", "state-id", "state-id-after-first"],
    )
    def test_rejects_state_that_is_no_index(self, build, u):
        """A segment's state is an integer index, not a bool or a
        ``StateId``; the error names the segment, not a bare ``TypeError``."""
        with pytest.raises(MalformedSegmentation, match=f"^segment {u} has state "):
            build()

    @pytest.mark.parametrize(
        "segments, u",
        [((Segment(1.0, 4.0, 0),), 0), ((Segment(True, 4, 0),), 0),
         ((Segment(1, 1, 0), Segment(2, 3.0, 1)), 1)],
        ids=["float-ticks", "bool-start", "float-duration-after-first"],
    )
    def test_rejects_tick_that_is_no_integer(self, segments, u):
        """``write_truth`` would write ``segment 1.0 4.0 0`` or ``segment
        True 4 0``, which ``read_truth`` refuses."""
        with pytest.raises(MalformedSegmentation, match=f"^segment {u} has start "):
            Segmentation(segments, 4)

    @pytest.mark.parametrize("T, d", [(4.0, 4), (True, 1)], ids=["float", "bool"])
    def test_rejects_T_that_is_no_integer(self, T, d):
        with pytest.raises(MalformedSegmentation, match="^T must be an integer"):
            Segmentation((Segment(1, d, 0),), T)

    def test_numpy_integers_are_integers(self):
        i = np.int64
        seg = Segmentation((Segment(i(1), i(2), i(0)), Segment(i(3), i(2), i(1))), i(4))
        assert tick_states(seg) == [0, 0, 1, 1]

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40)
    )
    def test_round_trip_property(self, labels):
        assert tick_states(encode_segments(labels)) == labels


#: Calls that break one rule each, as ``assert_named_error`` takes them.
BAD_CALLS = {
    "no-segments": (lambda: Segmentation((), 3), MalformedSegmentation, None,
                    "^segmentation has no segments"),
    "zero-duration": (lambda: Segmentation((Segment(1, 0, 0),), 0), MalformedSegmentation,
                      None, "^segment 0 has duration 0"),
    "encode-empty": (lambda: encode_segments([]), EmptySequence, None,
                     "^cannot encode an empty label sequence"),
    "mean-std-lengths": (lambda: DurationModel([2.0, 3.0], [1.0], 4), BadArgument, None,
                         "^mean and std must be 1-d arrays of equal length"),
    # numpy cannot hold 2**70 in an intp
    "run-state-overflow": (
        lambda: segment_runs([Segmentation((Segment(1, 2, 2**70),), 2)], 2, "labels"),
        BadArgument, "labels", "^labels must hold Segmentations whose run states",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_broken_rule_is_named(case):
    assert_named_error(*BAD_CALLS[case])


@pytest.mark.parametrize(
    "mean, std, d_max",
    [([math.nan], [1.0], 4), ([math.inf], [1.0], 4), ([2.0], [math.nan], 4),
     ([2.0], [1.0], 2.5), ([2.0], [1.0], math.nan)],
    ids=["mean-nan", "mean-inf", "std-nan", "d-max-2.5", "d-max-nan"],
)
def test_duration_model_rejects_unusable_parameters(mean, std, d_max):
    with pytest.raises(BadArgument):
        DurationModel(np.array(mean), np.array(std), d_max)


@pytest.mark.parametrize(
    "mean, std, param",
    [([1e200], [1.0], "mean"), ([-1e200], [1.0], "mean"),
     ([2.0, 2.0], [1.0, 1e-200], "std"), ([2.5], [1e-160], "std")],
    ids=["mean-huge", "mean-huge-negative", "std-underflows", "std-overflows-spread"],
)
def test_duration_model_rejects_parameters_without_a_finite_pmf(mean, std, param):
    """(d - mean)**2 overflowing, or 2 std**2 too small for the gap to the
    nearest tick, would make the whole pmf row NaN."""
    with pytest.raises(BadArgument) as exc:
        DurationModel(np.array(mean), np.array(std), 4)
    assert exc.value.param == param
    assert f"of state {len(mean) - 1} " in str(exc.value)


@pytest.mark.parametrize(
    "build",
    [lambda d_max: DurationModel(np.array([2.0]), np.array([1.0]), d_max),
     lambda d_max: GeometricDurationModel(np.array([0.5]), d_max)],
    ids=["gaussian", "geometric"],
)
def test_d_max_no_table_can_hold_names_d_max(build):
    """A d_max above ``D_MAX_LIMIT`` (a fortiori one above the largest intp)
    is refused; the limit itself is accepted.  Tables are built on first
    use, so no call here allocates one."""
    assert build(D_MAX_LIMIT).d_max == D_MAX_LIMIT
    for d_max in (D_MAX_LIMIT + 1, int(np.iinfo(np.intp).max) + 1):
        with pytest.raises(BadArgument, match=f"limit {D_MAX_LIMIT}$") as exc:
            build(d_max)
        assert exc.value.param == "d_max"


def test_duration_model_keeps_a_tiny_std_with_a_finite_pmf():
    """2 std**2 is subnormal but the mean sits on a tick: the row is a point
    mass, as before."""
    model = DurationModel(np.array([4.0]), np.array([1e-160]), 4)
    assert model.pmf_table()[0].tolist() == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "std, row", [(1e-160, [0.0, 0.0, 0.0, 1.0]), (1e300, [0.25] * 4)]
)
def test_extreme_std_row_warns_nothing(std, row):
    """A tiny std overflows the exponent off the mean and a huge one its
    square; both rows are right, and building them warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = DurationModel(np.array([4.0]), np.array([std]), 4).pmf_table()
    assert table[0].tolist() == row


class TestGeometricDurations:
    def test_pmf_values(self):
        a = 0.3
        for d in range(1, 6):
            assert geometric_duration_pmf(a, d) == pytest.approx(
                a ** (d - 1) * (1 - a)
            )

    def test_partial_sums_match_closed_form(self):
        a = 0.85
        total = sum(geometric_duration_pmf(a, d) for d in range(1, 51))
        assert total == pytest.approx(1.0 - a**50, rel=1e-12)

    def test_degenerate_self_loop_rejected(self):
        with pytest.raises(DegenerateSelfLoop):
            geometric_duration_pmf(1.0, 1)
        with pytest.raises(DegenerateSelfLoop):
            GeometricDurationModel(np.array([1.0]), 5)

    def test_nan_self_loop_and_fractional_d_max_rejected(self):
        with pytest.raises(DegenerateSelfLoop):
            GeometricDurationModel(np.array([math.nan]), 5)
        with pytest.raises(BadArgument):
            GeometricDurationModel(np.array([0.5]), 2.5)

    def test_duration_out_of_range(self):
        with pytest.raises(DurationOutOfRange):
            geometric_duration_pmf(0.5, 0)

    def test_untruncated_table_keeps_raw_mass(self):
        m = GeometricDurationModel(np.array([0.5]), 3, truncated=False)
        assert m.pmf_table()[0].tolist() == pytest.approx([0.5, 0.25, 0.125])

    def test_truncated_table_renormalizes(self):
        m = GeometricDurationModel(np.array([0.5]), 3, truncated=True)
        assert m.pmf_table()[0].sum() == pytest.approx(1.0, abs=1e-12)


class TestGaussianDurations:
    def test_direct_normalization_oracle(self):
        # independent dense computation of the same discretized Gaussian
        mean, std, d_max = 4.2, 1.7, 9
        model = DurationModel(np.array([mean]), np.array([std]), d_max)
        dense = np.array(
            [math.exp(-((d - mean) ** 2) / (2 * std**2)) for d in range(1, d_max + 1)]
        )
        dense /= dense.sum()
        for d in range(1, d_max + 1):
            assert model.pmf_table()[0, d - 1] == pytest.approx(dense[d - 1], rel=1e-12)

    def test_mode_at_rounded_mean(self):
        model = DurationModel(np.array([5.4]), np.array([1.0]), 12)
        assert int(model.pmf_table()[0].argmax()) + 1 == 5

    def test_flat_limit(self):
        model = DurationModel(np.array([3.0]), np.array([1e9]), 6)
        assert model.pmf_table()[0] == pytest.approx(np.full(6, 1 / 6), abs=1e-9)

    def test_tiny_std_concentrates(self):
        model = DurationModel(np.array([4.0]), np.array([1e-12]), 10)
        pmf = model.pmf_table()[0]
        assert pmf[3] == pytest.approx(1.0)
        assert np.isfinite(pmf).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = DurationModel(rng.uniform(0.5, 20, 8), rng.uniform(0.2, 6, 8), 15)
        assert model.pmf_table().sum(axis=1) == pytest.approx(np.ones(8), abs=1e-12)

    def test_log_table_column_zero_impossible(self):
        model = DurationModel(np.array([2.0]), np.array([1.0]), 4)
        table = model.log_pmf_table()
        assert table.shape == (1, 5)
        assert table[0, 0] == -np.inf
        assert np.exp(table[0, 1:]).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model, fields", [
    (DurationModel(np.array([2.0, 3.0]), np.array([1.0, 0.5]), 4),
     ["mean", "std", "d_max"]),
    (GeometricDurationModel(np.array([0.5, 0.25]), 4),
     ["self_loop", "d_max", "truncated"]),
], ids=["gaussian", "geometric"])
def test_pmf_cache_is_no_constructor_field(model, fields):
    """The cached table is computed from the parameters alone: no field holds
    it, so no caller can pass one that disagrees, and repr shows only the
    parameters."""
    assert [f.name for f in dataclasses.fields(model)] == fields
    with pytest.raises(TypeError):
        type(model)(*(getattr(model, f) for f in fields), model.pmf_table())
    assert model.pmf_table() is model.pmf_table()
    assert "_pmf" not in repr(model)

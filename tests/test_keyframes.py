"""Keyframe selection stages, tie rules, and robustness."""

import math

import numpy as np
import pytest

from posehsmm.emission import ChannelId, FeatureStream
from posehsmm.errors import BadArgument, EmptySequence
from posehsmm.keyframes import (
    Keyframe,
    KeyframeSet,
    _frame_scores,
    keyframes_to_pseudo_pose_stream,
    select_keyframes,
)

RGB = ChannelId.parse("left:RGB")
DEPTH = ChannelId.parse("center:Depth")
MASK = ChannelId.parse("right:Mask")


def clip_from(rows, channel=RGB, masks=None):
    x = np.asarray(rows, dtype=float)
    avail = None if masks is None else {channel: np.asarray(masks, dtype=bool)}
    return FeatureStream.from_arrays({channel: x}, avail)


def endpoint_score(clip):
    """Stage 1's endpoint dissimilarity, as its endpoint keyframes carry it."""
    first = select_keyframes(clip, threshold=0.0).frames[0]
    assert first.frame_index == 1 and first.stage == 1
    return first.score


class TestEndpointDissimilarity:
    def test_closed_form(self):
        clip = clip_from([[0.0, 0.0], [1.0, 1.0]])
        assert endpoint_score(clip) == pytest.approx(1.0)

    def test_normalized_by_feature_dim(self):
        # one differing unit feature out of four: sqrt(1)/sqrt(4)
        clip = clip_from([[0, 0, 0, 0], [1, 0, 0, 0]])
        assert endpoint_score(clip) == pytest.approx(0.5)

    def test_missing_endpoint_channel(self):
        # no channel at both endpoints: static, no channel, score 0
        clip = clip_from([[0.0], [1.0], [1.0]], masks=[True, True, False])
        kfs = select_keyframes(clip, threshold=0.0)
        assert kfs.static
        assert [(kf.channel, kf.score) for kf in kfs] == [(None, 0.0), (None, 0.0)]


class TestStage1:
    def test_identical_frames_static(self):
        clip = clip_from([[0.3, 0.7]] * 6)
        kfs = select_keyframes(clip)
        assert kfs.static
        assert kfs.ticks == (1, 6)

    def test_threshold_is_strict(self):
        clip = clip_from([[0.0], [1.0]])  # dissimilarity exactly 1.0
        assert select_keyframes(clip, threshold=1.0).static
        assert not select_keyframes(clip, threshold=0.999).static

    def test_too_short_clip(self):
        with pytest.raises(EmptySequence):
            select_keyframes(clip_from([[0.0]]))

    def test_k_max_floor(self):
        with pytest.raises(ValueError):
            select_keyframes(clip_from([[0.0], [1.0]]), k_max=1)

    @pytest.mark.parametrize(
        "kwargs, param",
        [({"k_max": 2.5}, "k_max"), ({"threshold": math.nan}, "threshold"),
         ({"threshold": -1.0}, "threshold"), ({"threshold": math.inf}, "threshold"),
         ({"stage2_threshold": math.nan}, "stage2_threshold"),
         ({"stage2_threshold": -0.5}, "stage2_threshold")],
        ids=["k-max-2.5", "th-nan", "th-negative", "th-inf", "stage2-nan",
             "stage2-negative"],
    )
    def test_bad_parameter_is_named(self, kwargs, param):
        with pytest.raises(BadArgument) as exc:
            select_keyframes(clip_from([[0.0], [0.5], [1.0]]), **kwargs)
        assert exc.value.param == param

    def test_strongest_channel_selected(self):
        strong = np.zeros((4, 1)); strong[-1] = 1.0
        weak = np.zeros((4, 1)); weak[-1] = 0.4
        clip = FeatureStream.from_arrays({RGB: weak, DEPTH: strong})
        kfs = select_keyframes(clip, threshold=0.2)
        assert kfs.frames[0].channel == DEPTH
        assert kfs.frames[0].score == pytest.approx(1.0)


class TestStage2:
    def test_linear_ramp_peaks_at_midpoint(self):
        # 21 frames from 0 to 1: min(d1, d2) is maximized at the middle
        values = [[t / 20.0] for t in range(21)]
        kfs = select_keyframes(clip_from(values), k_max=5, threshold=0.8)
        stage2 = [kf for kf in kfs if kf.stage == 2]
        assert stage2[0].frame_index == 11
        assert stage2[0].score == pytest.approx(0.5)

    def test_minimum_gap_suppresses_neighbors(self):
        # two adjacent near-equal peaks: the gap rule admits only one, and
        # the second admitted frame must sit at least ceil(T/K) away
        values = np.zeros((20, 1))
        values[9] = 0.55
        values[10] = 0.6
        values[-1] = 1.0
        kfs = select_keyframes(clip_from(values), k_max=5, threshold=0.5)
        stage2 = sorted(kf.frame_index for kf in kfs if kf.stage == 2)
        assert 10 in stage2
        assert 11 not in stage2
        gap = math.ceil(20 / 5)
        ticks = sorted(kfs.ticks)
        assert all(b - a >= gap for a, b in zip(ticks, ticks[1:]))

    def test_plateau_ratio_cuts_weak_candidates(self):
        # second-best interior score falls under ratio * best and the budget
        # goes unused even though frames remain
        values = np.zeros((12, 1))
        values[5] = 0.5
        values[8] = 0.1  # below 0.8 * 0.1... kept distinct from the peak
        values[-1] = 1.0
        kfs = select_keyframes(clip_from(values), k_max=5, threshold=0.09,
                               stage2_threshold=0.8)
        stage2 = [kf for kf in kfs if kf.stage == 2]
        assert [kf.frame_index for kf in stage2] == [6]

    def test_zero_score_frames_never_admitted(self):
        values = np.zeros((8, 1))
        values[-1] = 1.0
        # interior frames identical to the first endpoint score 0
        kfs = select_keyframes(clip_from(values), k_max=5, threshold=0.5)
        assert all(kf.score > 0 for kf in kfs if kf.stage == 2)

    def test_budget_is_k_max_minus_three(self):
        values = [[t / 30.0] for t in range(31)]
        kfs = select_keyframes(clip_from(values), k_max=5, threshold=0.8)
        assert sum(kf.stage == 2 for kf in kfs) <= 2


class TestStage3:
    def test_fills_between_inner_frames(self):
        # two plateaus give stage 2 exactly frames 6 and 16; everything in
        # between is flat, so stage 3 takes the earliest interior frame
        values = np.zeros((21, 1))
        values[5] = 0.45
        values[15] = 0.55
        values[16:] = 1.0
        kfs = select_keyframes(clip_from(values), k_max=5, threshold=0.4)
        assert kfs.ticks == (1, 6, 7, 16, 21)
        assert [kf.stage for kf in kfs] == [1, 2, 3, 2, 1]

    def test_skipped_when_k_max_reached(self):
        values = [[t / 30.0] for t in range(31)]
        kfs = select_keyframes(clip_from(values), k_max=3, threshold=0.8)
        # endpoints + stage 3 only: budget 0, then one fill
        assert len(kfs) == 3
        assert [kf.stage for kf in kfs] == [1, 3, 1]


class TestContract:
    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.random((25, 3))
        a = select_keyframes(clip_from(x), threshold=0.2)
        b = select_keyframes(clip_from(x), threshold=0.2)
        assert a == b

    def test_sorted_and_capped(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.random((int(rng.integers(5, 40)), 2))
            x[0] = 0.0
            x[-1] = 1.0
            kfs = select_keyframes(clip_from(x), k_max=5, threshold=0.3)
            assert len(kfs) <= 5
            assert kfs.ticks[0] == 1 and kfs.ticks[-1] == x.shape[0]
            assert list(kfs.ticks) == sorted(set(kfs.ticks))

    def test_unused_channel_removal_is_invisible(self):
        rng = np.random.default_rng(9)
        strong = rng.random((18, 2))
        strong[0] = 0.0
        strong[-1] = 1.0
        noise = np.full((18, 2), 0.5)  # flat channel never wins any stage
        with_noise = FeatureStream.from_arrays({RGB: strong, DEPTH: noise})
        without = FeatureStream.from_arrays({RGB: strong})
        a = select_keyframes(with_noise, threshold=0.3)
        b = select_keyframes(without, threshold=0.3)
        assert a.ticks == b.ticks
        assert [kf.channel for kf in a] == [kf.channel for kf in b]


class TestPseudoPoseStream:
    def test_reticks_in_order(self):
        values = [[t / 20.0] for t in range(21)]
        clip = clip_from(values)
        kfs = select_keyframes(clip, k_max=5, threshold=0.8)
        pseudo = keyframes_to_pseudo_pose_stream(clip, kfs)
        assert pseudo.T == len(kfs)
        for frame, kf in zip(pseudo.frames, kfs):
            src = clip.frames[kf.frame_index - 1]
            assert frame.vectors[RGB].tolist() == src.vectors[RGB].tolist()
        assert [f.t for f in pseudo.frames] == list(range(1, len(kfs) + 1))

    @pytest.mark.parametrize("ticks", [(0, 4), (3, 1), (2, 2), (1, 2.5)],
                             ids=["tick-zero", "decreasing", "repeated", "fraction"])
    def test_set_ticks_must_increase_from_one(self, ticks):
        frames = tuple(Keyframe(t, RGB, 1.0, 1) for t in ticks)
        with pytest.raises(BadArgument) as exc:
            KeyframeSet(frames, 5, 0.8)
        assert exc.value.param == "frames"

    @pytest.mark.parametrize("ticks", [(1, 5), ()], ids=["past-T", "empty"])
    def test_ticks_outside_the_clip_are_named(self, ticks):
        clip = clip_from([[0.0], [0.25], [0.5], [1.0]])
        kfs = KeyframeSet(tuple(Keyframe(t, RGB, 1.0, 1) for t in ticks), 5, 0.8)
        with pytest.raises(BadArgument) as exc:
            keyframes_to_pseudo_pose_stream(clip, kfs)
        assert exc.value.param == "keyframes"
        ends = KeyframeSet((Keyframe(1, RGB, 1.0, 1), Keyframe(4, RGB, 1.0, 1)), 5, 0.8)
        assert keyframes_to_pseudo_pose_stream(clip, ends).X[0, :, 0].tolist() == [0.0, 1.0]


def scalar_distance(a, b):
    """Euclidean distance over sqrt(F) of one pair of vectors."""
    return float(np.linalg.norm(a - b)) / math.sqrt(a.shape[0])


class TestVectorizedScores:
    def test_frame_scores_equal_scalar_distance_exactly(self):
        # reference: per frame, loop over the channels available at the frame
        # and both references, score min(d_a, d_b) with the scalar distance,
        # keep the first channel with the strictly largest score
        rng = np.random.default_rng(11)
        for _ in range(60):
            T = int(rng.integers(2, 30))
            F = int(rng.integers(1, 10))
            clip = FeatureStream.from_arrays(
                {c: rng.random((T, F)) for c in (RGB, DEPTH, MASK)},
                {c: rng.random(T) < 0.7 for c in (RGB, DEPTH, MASK)},
            )
            a, b = sorted(int(v) for v in rng.choice(T, 2, replace=False))
            scores, rows = _frame_scores(clip, a, b)
            ref_a, ref_b = clip.frames[a], clip.frames[b]
            for t, frame in enumerate(clip.frames):
                best, best_row = -1.0, -1
                shared = frame.available & ref_a.available & ref_b.available
                for k, c in enumerate(clip.channel_ids):
                    if c not in shared:
                        continue
                    score = min(
                        scalar_distance(frame.vectors[c], ref_a.vectors[c]),
                        scalar_distance(frame.vectors[c], ref_b.vectors[c]),
                    )
                    if score > best:
                        best, best_row = score, k
                assert float(scores[t]) == best
                if best_row >= 0:
                    assert int(rows[t]) == best_row

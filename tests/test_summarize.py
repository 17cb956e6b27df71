"""Windowed pose history and transition-library classification."""

from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posehsmm.emission import ChannelEmissionModel, ChannelId, FeatureStream
from posehsmm.errors import BadArgument, LabelMismatch, NoTransitionDetected
from posehsmm.inference import HsmmModel
from posehsmm.states import (
    DurationModel,
    PoseLabel,
    RotationDirection,
    SceneCondition,
    StateSpace,
    encode_segments,
)
from posehsmm.summarize import (
    HistoryRecord,
    TransitionChain,
    TransitionLibrary,
    build_transition_library,
    classify_transition,
    frame_accuracy,
    history_from_segments,
    summarize_history,
    window_detection_rate,
)

from conftest import tick_states
from reference_history import history_from_labels

PL = PoseLabel
RGB = ChannelId.parse("left:RGB")

SPACE3 = StateSpace.from_poses(
    [PL.SOLDIER_UP, PL.YEARNER_RIGHT, PL.LOG_RIGHT], scene_doubling=False
)


def clip_from(rows, channel=RGB):
    return FeatureStream.from_arrays({channel: np.asarray(rows, dtype=float)})


def history(labels, space=SPACE3, *args, **kwargs):
    return history_from_segments(encode_segments(labels), space, *args, **kwargs)


class TestHistoryFromLabels:
    def test_nine_of_ten_reported(self):
        (rec,) = history([0] * 9 + [1], window=10)
        assert rec.label is PL.SOLDIER_UP
        assert rec.confidence == pytest.approx(0.9)

    def test_seven_of_ten_demoted_to_other(self):
        (rec,) = history([0] * 7 + [1] * 3, window=10)
        assert rec.label is PL.OTHER
        assert rec.confidence == pytest.approx(0.7)

    def test_trailing_partial_window_kept(self):
        recs = history([0] * 23, window=10)
        assert [r.window_start for r in recs] == [1, 11, 21]
        assert recs[-1].window_len == 3

    def test_sampling_rate(self):
        # samples at ticks 1, 4, 7, 10: three of the four hit state 0
        labels = [0, 1, 1, 0, 1, 1, 0, 1, 1, 1]
        (rec,) = history(labels, sample_every=3, window=10, consistency=0.7)
        assert rec.label is PL.SOLDIER_UP
        assert rec.confidence == pytest.approx(0.75)

    def test_windows_sample_ticks_one_mod_rate(self):
        # each window summarizes exactly the ticks t = 1 (mod sample_every)
        # inside it, and a window with no such tick yields no record
        T = 47
        labels = np.random.default_rng(0).integers(0, 3, T).tolist()
        for every in range(1, 7):
            for window in range(every, 14):
                recs = history(labels, SPACE3, every, window, 0.0)
                got = [(r.window_start, r.window_len, r.confidence) for r in recs]
                want = []
                for start in range(1, T + 1, window):
                    end = min(start + window - 1, T)
                    ticks = [t for t in range(1, T + 1, every) if start <= t <= end]
                    if ticks:
                        poses = Counter(SPACE3[labels[t - 1]].pose for t in ticks)
                        modal = max(poses.values()) / len(ticks)
                        want.append((start, end - start + 1, modal))
                assert got == want

    def test_pose_tie_breaks_by_name(self):
        # 5 vs 5: logR sorts before solU
        (rec,) = history([0] * 5 + [2] * 5, window=10, consistency=0.5)
        assert rec.label is PL.LOG_RIGHT

    def test_scene_mode(self):
        space = StateSpace.from_poses([PL.SOLDIER_UP], scene_doubling=True)
        # two BC ticks, one DO tick
        (rec,) = history([0, 0, 1], space, window=3)
        assert rec.scene is SceneCondition.BC
        assert history([0])[0].scene is None

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            history([0], sample_every=4, window=2)
        with pytest.raises(ValueError):
            history([0], sample_every=0)

    @pytest.mark.parametrize(
        "kwargs, param",
        [({"window": 2.5}, "window"), ({"window": float("nan")}, "window"),
         ({"sample_every": 0}, "sample_every"),
         ({"sample_every": 4, "window": 2}, "window"),
         ({"consistency": float("inf")}, "consistency")],
        ids=["window-2.5", "window-nan", "sample-every-0", "window-below-step",
             "consistency-inf"],
    )
    def test_bad_parameter_is_named(self, kwargs, param):
        with pytest.raises(BadArgument) as exc:
            history([0] * 10, **kwargs)
        assert exc.value.param == param

    def test_step_and_window_beyond_int64(self):
        labels = [0, 1, 1, 2, 0, 0, 1]
        huge = history(labels, sample_every=10**19, window=10**19)
        assert huge == history(labels, sample_every=7, window=7)
        assert history(labels, window=10**19) == history(labels, window=7)

    @pytest.mark.parametrize("state", [-1, 3, 99])
    def test_state_index_outside_space_rejected(self, state):
        with pytest.raises(BadArgument, match=r"\[0, 3\)") as exc:
            history([state] * 10)
        assert exc.value.param == "segmentation"

    @pytest.mark.parametrize("arg", [[0, 1], [], None], ids=["labels", "empty", "none"])
    def test_argument_that_is_not_a_segmentation_rejected(self, arg):
        with pytest.raises(BadArgument) as exc:
            history_from_segments(arg, SPACE3)
        assert exc.value.param == "segmentation"

    @pytest.mark.parametrize("consistency", [float("nan"), 1.5, -0.1])
    def test_unusable_consistency_rejected(self, consistency):
        with pytest.raises(BadArgument, match="consistency must be in"):
            history([0] * 10, consistency=consistency)

    @pytest.mark.parametrize("consistency", [0.0, 1.0])
    def test_consistency_bounds_accepted(self, consistency):
        (rec,) = history([0] * 10, consistency=consistency)
        assert rec.label is PL.SOLDIER_UP


SPACES = [
    SPACE3,
    StateSpace.from_poses([PL.SOLDIER_UP, PL.LOG_RIGHT], scene_doubling=True),
    StateSpace.from_poses([PL.OTHER, PL.FETAL_LEFT, PL.FETAL_RIGHT, PL.FALLER_UP]),
]


@given(data=st.data(), space=st.sampled_from(SPACES),
       consistency=st.sampled_from([0.0, 0.5, 2 / 3, 0.8, 1.0]))
@settings(max_examples=300, deadline=None)
def test_history_matches_the_per_tick_reference(data, space, consistency):
    """Random runs give the records of the per-tick summary, with bit-equal
    confidences."""
    runs = data.draw(st.lists(st.tuples(st.integers(0, len(space) - 1), st.integers(1, 12)),
                              min_size=1, max_size=30), label="runs")
    segmentation = encode_segments([y for y, d in runs for _ in range(d)])
    T = segmentation.T
    every = data.draw(st.integers(1, T + 2), label="sample_every")
    window = data.draw(st.integers(every, T + 5), label="window")
    got = history_from_segments(segmentation, space, every, window, consistency)
    want = history_from_labels(tick_states(segmentation), space, every, window, consistency)
    assert got == want
    assert [r.confidence.hex() for r in got] == [r.confidence.hex() for r in want]


class TestSummarizeHistory:
    def test_matches_truth_on_peaked_emissions(self):
        # near-deterministic emissions make the decode recover the plan
        plan = [0] * 10 + [1] * 10 + [0] * 10
        probs = np.array([[0.99], [0.01], [0.5]])
        # feed the Bernoulli means back as soft evidence: decode is exact
        x = np.array([[probs[y, 0]] for y in plan])
        stream = FeatureStream.from_arrays({RGB: x})
        A = np.array([[0, 1, 0], [1, 0, 0], [0.5, 0.5, 0]], dtype=float)
        model = HsmmModel(
            pi=np.array([0.8, 0.1, 0.1]),
            A=A,
            durations=DurationModel(np.full(3, 10.0), np.full(3, 1.0), 15),
            emissions={RGB: ChannelEmissionModel(RGB, probs)},
            states=SPACE3,
        )
        recs = summarize_history(stream, model, window=10)
        assert [r.label for r in recs] == [PL.SOLDIER_UP, PL.YEARNER_RIGHT,
                                           PL.SOLDIER_UP]
        assert all(r.confidence == 1.0 for r in recs)

    def test_requires_state_space(self):
        model = HsmmModel(
            pi=np.ones(2) / 2,
            A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            durations=DurationModel(np.ones(2), np.ones(2), 4),
            emissions={RGB: ChannelEmissionModel(RGB, np.array([[0.2], [0.8]]))},
        )
        with pytest.raises(ValueError):
            summarize_history(clip_from([[1.0]] * 4), model)


def test_library_build_checks_its_parameters_without_clips():
    with pytest.raises(BadArgument) as exc:
        build_transition_library([], threshold=float("nan"))
    assert exc.value.param == "threshold"


def test_model_without_states_is_a_bad_argument():
    model = HsmmModel(
        pi=np.ones(2) / 2,
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        durations=DurationModel(np.ones(2), np.ones(2), 4),
        emissions={RGB: ChannelEmissionModel(RGB, np.array([[0.2], [0.8]]))},
    )
    with pytest.raises(BadArgument, match="no state space"):
        summarize_history(clip_from([[1.0]] * 4), model)


class TestWindowDetectionRate:
    def rec(self, label):
        return HistoryRecord(1, 10, label, None, 1.0)

    def test_exact_match(self):
        recs = [self.rec(PL.SOLDIER_UP), self.rec(PL.OTHER)]
        assert window_detection_rate(recs, list(recs)) == 1.0

    def test_partial(self):
        a = [self.rec(PL.SOLDIER_UP), self.rec(PL.OTHER), self.rec(PL.LOG_RIGHT)]
        b = [self.rec(PL.SOLDIER_UP), self.rec(PL.LOG_RIGHT), self.rec(PL.LOG_RIGHT)]
        assert window_detection_rate(a, b) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LabelMismatch):
            window_detection_rate([self.rec(PL.OTHER)], [])

    def test_no_windows(self):
        with pytest.raises(BadArgument, match="no windows"):
            window_detection_rate([], [])


def per_tick_accuracy(predicted, reference):
    """``evaluate``'s frame accuracy as it was: a zip of per-tick labels."""
    pred, ref = tick_states(predicted), tick_states(reference)
    return sum(p == r for p, r in zip(pred, ref)) / len(ref)


class TestFrameAccuracy:
    @given(data=st.data(), T=st.integers(1, 60), Q=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_tick_zip(self, data, T, Q):
        labels = st.lists(st.integers(0, Q - 1), min_size=T, max_size=T)
        a, b = (encode_segments(data.draw(labels, label=n)) for n in ("pred", "ref"))
        got = frame_accuracy(a, b)
        assert type(got) is float and got == per_tick_accuracy(a, b)

    @pytest.mark.parametrize(
        "pred, ref",
        [([0], [0]), ([0], [1]), ([2] * 7, [2] * 7), ([0] * 5, [1] * 5),
         ([0] * 7, [1] * 3 + [0] * 4), ([0, 1, 0], [1, 1, 1])],
        ids=["one-tick-hit", "one-tick-miss", "one-segment-hit", "one-segment-miss",
             "one-segment-against-two", "three-against-one"],
    )
    def test_single_segment_and_one_tick(self, pred, ref):
        a, b = encode_segments(pred), encode_segments(ref)
        assert frame_accuracy(a, b) == per_tick_accuracy(a, b)

    def test_length_mismatch(self):
        with pytest.raises(LabelMismatch):
            frame_accuracy(encode_segments([0, 0]), encode_segments([0, 0, 0]))


def ramp_clip(lo=0.0, hi=1.0, T=21, F=2):
    rows = np.linspace(lo, hi, T)[:, None] * np.ones(F)
    return FeatureStream.from_arrays({RGB: rows})


class TestTransitionLibrary:
    KEY = (PL.SOLDIER_UP, PL.YEARNER_RIGHT, RotationDirection.LEFT)

    def test_single_clip_means_are_keyframe_vectors(self):
        from posehsmm.keyframes import select_keyframes

        clip = ramp_clip()
        lib = build_transition_library([(clip, *self.KEY)], threshold=0.4)
        chain = lib.entries[self.KEY]
        kfs = select_keyframes(clip, 5, 0.4)
        assert chain.length == len(kfs)
        for p, kf in enumerate(kfs):
            expect = clip.frames[kf.frame_index - 1].vectors[RGB]
            assert chain.means[RGB][p].tolist() == expect.tolist()
        assert chain.n_clips == 1

    def test_two_clips_average_positionwise(self):
        a = ramp_clip(0.0, 1.0)
        b = ramp_clip(0.0, 0.9)
        lib = build_transition_library(
            [(a, *self.KEY), (b, *self.KEY)], threshold=0.4
        )
        chain = lib.entries[self.KEY]
        assert chain.n_clips == 2
        # endpoints align at position 0 and the last position
        assert chain.means[RGB][0, 0] == pytest.approx(0.0)
        assert chain.means[RGB][-1, 0] == pytest.approx((1.0 + 0.9) / 2)

    def test_static_clips_contribute_nothing(self):
        still = clip_from([[0.5, 0.5]] * 8)
        lib = build_transition_library([(still, *self.KEY)], threshold=0.4)
        assert len(lib) == 0

    def test_gap_statistics(self):
        clip = ramp_clip(T=21)
        lib = build_transition_library([(clip, *self.KEY)], threshold=0.4)
        chain = lib.entries[self.KEY]
        from posehsmm.keyframes import select_keyframes

        ticks = select_keyframes(clip, 5, 0.4).ticks
        expect = [t1 - t0 for t0, t1 in zip(ticks, ticks[1:])] + [21 + 1 - ticks[-1]]
        assert chain.gap_mean.tolist() == pytest.approx(expect)
        assert (chain.gap_std >= 0.5).all()  # floored for single-clip chains

    def test_mixed_feature_widths_rejected(self):
        clips = [(ramp_clip(F=2), *self.KEY), (ramp_clip(F=3), *self.KEY)]
        with pytest.raises(BadArgument, match=r"\[2, 3\]"):
            build_transition_library(clips, threshold=0.4)

    def test_stacked_fields_cannot_be_reassigned(self):
        lib = build_transition_library([(ramp_clip(), *self.KEY)], threshold=0.4)
        assert lib.keys == (self.KEY,) and lib.offsets == (0, lib.lengths[0])
        for name in ("entries", "keys", "offsets", "groups", "structure"):
            with pytest.raises(FrozenInstanceError):
                setattr(lib, name, None)


def chain_with(means=None, gap_mean=None, gap_std=None):
    """A five-position chain on one channel, with one part swapped."""
    means = {RGB: np.full((5, 2), 0.5)} if means is None else means
    gap_mean = np.ones(5) if gap_mean is None else gap_mean
    return TransitionChain(means, gap_mean, np.ones(5) if gap_std is None else gap_std, 1)


DEPTH = ChannelId.parse("left:Depth")
KEY = TestTransitionLibrary.KEY

#: Library entries the constructor cannot stack, each named by its defect.
BAD_ENTRIES = {
    "means-rows-against-gaps": (KEY, chain_with({RGB: np.full((4, 2), 0.5)})),
    "one-d-means": (KEY, chain_with({RGB: np.full(5, 0.5)})),
    "means-of-two-widths": (
        KEY, chain_with({RGB: np.full((5, 2), 0.5), DEPTH: np.full((5, 3), 0.5)})
    ),
    "means-list": (KEY, chain_with({RGB: [[0.5, 0.5]] * 5})),
    "means-keyed-by-string": (KEY, chain_with({"left:RGB": np.full((5, 2), 0.5)})),
    "gap-lengths-differ": (KEY, chain_with(gap_std=np.ones(4))),
    "two-d-gaps": (KEY, chain_with({}, np.ones((5, 1)), np.ones((5, 1)))),
    "no-position": (KEY, chain_with({RGB: np.full((0, 2), 0.5)}, np.ones(0), np.ones(0))),
    "not-a-chain": (KEY, {"means": {}}),
    "key-of-strings": (("solU", "yeaR", "left"), chain_with()),
    "key-pair": (KEY[:2], chain_with()),
}


@pytest.mark.parametrize("key, chain", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
def test_library_names_an_entry_it_cannot_stack(key, chain):
    with pytest.raises(BadArgument) as exc:
        TransitionLibrary({KEY: chain_with(), key: chain})
    assert exc.value.param == "entries"


class TestClassifyTransition:
    KEY_A = (PL.SOLDIER_UP, PL.YEARNER_RIGHT, RotationDirection.LEFT)
    KEY_B = (PL.SOLDIER_UP, PL.LOG_RIGHT, RotationDirection.LEFT)

    def test_self_match(self):
        up = ramp_clip(0.0, 1.0)
        down = ramp_clip(1.0, 0.0)
        lib = build_transition_library(
            [(up, *self.KEY_A), (down, *self.KEY_B)], threshold=0.4
        )
        rec = classify_transition(up, lib, threshold=0.4)
        assert (rec.from_pose, rec.to_pose, rec.direction) == self.KEY_A
        rec = classify_transition(down, lib, threshold=0.4)
        assert (rec.from_pose, rec.to_pose, rec.direction) == self.KEY_B

    def test_full_rate_self_match(self):
        up = ramp_clip(0.0, 1.0)
        down = ramp_clip(1.0, 0.0)
        lib = build_transition_library(
            [(up, *self.KEY_A), (down, *self.KEY_B)], threshold=0.4
        )
        rec = classify_transition(up, lib, threshold=0.4, use_keyframes=False)
        assert rec.to_pose is PL.YEARNER_RIGHT
        assert rec.n_pseudo_poses == lib.entries[self.KEY_A].length

    def test_static_clip_rejected(self):
        lib = build_transition_library(
            [(ramp_clip(), *self.KEY_A)], threshold=0.4
        )
        with pytest.raises(NoTransitionDetected):
            classify_transition(clip_from([[0.5, 0.5]] * 8), lib, threshold=0.4)

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            classify_transition(ramp_clip(), TransitionLibrary({}), threshold=0.4)

    def test_empty_library_is_a_bad_argument(self):
        with pytest.raises(BadArgument, match="library is empty"):
            classify_transition(ramp_clip(), TransitionLibrary({}), threshold=0.4)

    def test_clip_shorter_than_every_chain(self):
        lib = build_transition_library([(ramp_clip(), *self.KEY_A)], threshold=0.4)
        assert lib.entries[self.KEY_A].length > 2
        two = clip_from([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NoTransitionDetected):
            classify_transition(two, lib, threshold=0.4)

    def test_exact_tie_breaks_by_name_order(self):
        # identical chains under two labels: LEFT sorts before RIGHT
        clip = ramp_clip()
        key_r = (PL.SOLDIER_UP, PL.YEARNER_RIGHT, RotationDirection.RIGHT)
        lib = build_transition_library(
            [(clip, *self.KEY_A), (clip, *key_r)], threshold=0.4
        )
        rec = classify_transition(clip, lib, threshold=0.4)
        assert rec.direction is RotationDirection.LEFT

    def test_clip_width_must_match_library(self):
        lib = build_transition_library([(ramp_clip(F=2), *self.KEY_A)], threshold=0.4)
        with pytest.raises(BadArgument, match=r"width 3, library chains \[2\]"):
            classify_transition(ramp_clip(F=3), lib, threshold=0.4)

    def test_deterministic(self):
        up = ramp_clip(0.0, 1.0)
        lib = build_transition_library([(up, *self.KEY_A)], threshold=0.4)
        a = classify_transition(up, lib, threshold=0.4)
        b = classify_transition(up, lib, threshold=0.4)
        assert a == b

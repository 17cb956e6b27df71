"""The run-built simulator against the frozen per-tick one.

``sample_sequence`` builds its truth from the sampled pose runs cut at the
scene-run ends, and ``sample_transition_clip`` fills its ramp one leg at a
time.  Both must give the features, masks and segmentation (types of its
ticks and states included) that the per-tick construction of
``reference_simulate_truth`` gives, for any config.
"""

from hypothesis import assume, given, settings, strategies as st

from posehsmm.simulate import (
    preset_config,
    sample_sequence,
    sample_transition_clip,
    transition_protocol,
)
from posehsmm.states import MOCK_ICU_POSES, RotationDirection

from reference_simulate_truth import (
    reference_sample_sequence,
    reference_sample_transition_clip,
)

POSES = st.one_of(
    st.just(MOCK_ICU_POSES),
    st.lists(st.sampled_from(MOCK_ICU_POSES), min_size=1, max_size=4, unique=True),
)


def assert_same(got, want):
    (stream, truth), (ref_stream, ref_truth) = got, want
    assert stream.channels == ref_stream.channels
    assert stream.X.tobytes() == ref_stream.X.tobytes()
    assert stream.mask.tobytes() == ref_stream.mask.tobytes()
    # repr tells a numpy integer from an int
    assert repr(truth.segmentation) == repr(ref_truth.segmentation)
    assert truth.scene_track == ref_truth.scene_track
    assert truth.transition == ref_truth.transition


@given(
    preset=st.sampled_from(["bc-sim", "do-sim"]),
    poses=POSES,
    doubling=st.booleans(),
    switch=st.booleans(),
    T=st.integers(1, 400),
    mean=st.floats(1.0, 20.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_sequence_matches_per_tick_reference(preset, poses, doubling, switch, T, mean, seed):
    # one pose doubled without a switch has no transition; the model refuses it
    assume(len(poses) > 1 or switch or not doubling)
    config = preset_config(preset, poses=poses, scene_doubling=doubling, scene_switch=switch,
                           t_target=T, duration_mean=mean, F=2, seed=seed)
    assert_same(sample_sequence(config), reference_sample_sequence(config))


@given(
    preset=st.sampled_from(["bc-sim", "do-sim"]),
    poses=POSES,
    doubling=st.booleans(),
    hold=st.integers(1, 8),
    ramp=st.integers(1, 8),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_transition_clip_matches_per_tick_reference(preset, poses, doubling, hold, ramp,
                                                    data, seed):
    assume(len(poses) > 1 or not doubling)
    combo = data.draw(st.sampled_from(transition_protocol(poses)), label="combo")
    config = preset_config(preset, poses=poses, scene_doubling=doubling, transition_hold=hold,
                           transition_ramp=ramp, F=2, seed=seed)
    assert_same(sample_transition_clip(*combo, config),
                reference_sample_transition_clip(*combo, config))


def test_self_pair_is_one_segment():
    pose = MOCK_ICU_POSES[0]
    config = preset_config("bc-sim", seed=1)
    for direction in RotationDirection:
        got = sample_transition_clip(pose, pose, direction, config)
        assert len(got[1].segmentation) == 1
        assert_same(got, reference_sample_transition_clip(pose, pose, direction, config))

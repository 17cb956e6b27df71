"""Simulator reproducibility, degenerate limits, and planted-truth geometry."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from posehsmm.cli import main
from posehsmm.errors import BadArgument, PoseHsmmError
from posehsmm.keyframes import select_keyframes
from posehsmm.simulate import (
    ANCHOR_MAGNITUDES,
    DEFAULT_CHANNELS,
    REGIME_DROPOUT,
    REGIME_NOISE,
    ScenarioConfig,
    build_generating_model,
    preset_config,
    sample_sequence,
    sample_transition_clip,
    transition_protocol,
)
from posehsmm.states import (
    CANONICAL_POSES,
    PoseLabel,
    RotationDirection,
    SceneCondition,
)

from conftest import tick_states

PL = PoseLabel


def small_config(**kw):
    base = dict(
        poses=CANONICAL_POSES[:4],
        scene_doubling=False,
        t_target=200,
        duration_mean=6.0,
        duration_std=1.5,
        seed=3,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def streams_equal(a, b):
    if a.T != b.T or a.channels != b.channels:
        return False
    for fa, fb in zip(a.frames, b.frames):
        if fa.available != fb.available:
            return False
        for c in fa.available:
            if fa.vectors[c].tolist() != fb.vectors[c].tolist():
                return False
    return True


class TestConfig:
    def test_scalar_noise_broadcasts(self):
        cfg = small_config(noise=0.1, dropout=0.0)
        assert cfg.noise == {SceneCondition.BC: 0.1, SceneCondition.DO: 0.1}

    def test_resolved_d_max(self):
        assert small_config(duration_mean=6.0).resolved_d_max() == 18
        assert small_config(duration_mean=0.2, d_max=None).resolved_d_max() == 2
        assert small_config(d_max=40).resolved_d_max() == 40

    @pytest.mark.parametrize("field", ["duration_mean", "duration_std"])
    @pytest.mark.parametrize("value", [[1.0, 2.0], [[3.0]], np.ones((2, 2))],
                             ids=["two-values", "nested", "matrix"])
    def test_duration_sequence_of_wrong_shape(self, field, value):
        with pytest.raises(BadArgument) as exc:
            small_config(**{field: value})
        assert exc.value.param == field

    def test_duration_sequence_one_per_pose(self):
        n = small_config().n_poses
        mean, std = small_config(duration_mean=[4.0] * n, duration_std=[1.0]).duration_arrays()
        assert mean.tolist() == [4.0] * n and std.tolist() == [1.0] * n

    def test_tiny_std_on_a_tick_is_accepted(self):
        # 2 std**2 is subnormal, so the pmf is finite only for a mean on a
        # tick: 6 is one within the resolved d_max (18), though not within 1
        assert small_config(duration_mean=6.0, duration_std=1e-160).resolved_d_max() == 18

    def test_mean_needing_a_table_too_long_names_duration_mean(self):
        # ceil(3 x mean) is no intp; 1e308 x 3 overflows a float as well
        for mean in (1e200, 1e308):
            with pytest.raises(BadArgument) as exc:
                sample_sequence(ScenarioConfig(duration_mean=mean, t_target=20))
            assert exc.value.param == "duration_mean"
        with pytest.raises(BadArgument) as exc:
            ScenarioConfig(duration_mean=1e200, d_max=2**63)
        assert exc.value.param == "d_max"

    @pytest.mark.parametrize(
        "field, value",
        [("channels", (DEFAULT_CHANNELS[0], DEFAULT_CHANNELS[0])),
         ("poses", (PL.SOLDIER_UP, PL.SOLDIER_UP, PL.FETAL_LEFT))],
        ids=["channel-twice", "pose-twice"],
    )
    def test_repeat_is_named(self, field, value):
        with pytest.raises(BadArgument) as exc:
            small_config(**{field: value})
        assert exc.value.param == field

    def test_presets(self):
        assert preset_config("bc-sim").base_scene is SceneCondition.BC
        assert preset_config("do-sim").base_scene is SceneCondition.DO
        assert preset_config("bc-sim", t_target=50).t_target == 50
        with pytest.raises(BadArgument) as exc:
            preset_config("nope")
        assert exc.value.param == "name"

    @pytest.mark.parametrize("override", ["bogus", "name"])
    def test_preset_override_that_is_no_field_is_named(self, override):
        with pytest.raises(BadArgument) as exc:
            preset_config("do-sim", **{override: 1})
        assert exc.value.param == override
        assert repr(override) in str(exc.value)

    def test_regime_constants(self):
        assert REGIME_NOISE[SceneCondition.BC] == 0.05
        assert REGIME_DROPOUT[SceneCondition.BC] == 0.0
        assert REGIME_NOISE[SceneCondition.DO] > REGIME_NOISE[SceneCondition.BC]
        assert REGIME_DROPOUT[SceneCondition.DO] > 0.0


class TestGeneratingModel:
    def test_shapes_and_normalization(self):
        cfg = small_config()
        model, space = build_generating_model(cfg)
        Q = len(space)
        assert model.pi.shape == (Q,)
        assert model.pi.sum() == 1.0
        assert np.allclose(model.A.sum(axis=1), 1.0)
        assert np.diag(model.A).max() == 0.0
        assert set(model.emissions) == set(DEFAULT_CHANNELS)

    def test_doubled_blocks_share_pose_rows(self):
        cfg = small_config(scene_doubling=True)
        model, space = build_generating_model(cfg)
        p = cfg.n_poses
        assert np.array_equal(model.A[:p, :p], model.A[p:, p:])
        # no scene switching unless asked for
        assert model.A[:p, p:].max() == 0.0

    def test_scene_switch_mass(self):
        cfg = small_config(scene_doubling=True, scene_switch=True)
        model, _ = build_generating_model(cfg)
        p = cfg.n_poses
        assert model.A[:p, p:].sum() > 0.0
        assert np.allclose(model.A.sum(axis=1), 1.0)

    @pytest.mark.parametrize("n_poses", [1, 2])
    @pytest.mark.parametrize("doubling", [False, True])
    @pytest.mark.parametrize("switch", [False, True])
    def test_one_pose_doubled_scenario_needs_a_switch(self, n_poses, doubling, switch):
        """Only one pose with scene doubling and no switch leaves states with
        no transition; it is refused by name, the other seven all sample."""
        cfg = preset_config("bc-sim", poses=CANONICAL_POSES[:n_poses], t_target=40,
                            scene_doubling=doubling, scene_switch=switch)
        pose = CANONICAL_POSES[0]
        samplers = (
            build_generating_model,
            sample_sequence,
            lambda c: sample_transition_clip(pose, pose, RotationDirection.LEFT, c),
        )
        for sample in samplers:
            if n_poses == 1 and doubling and not switch:
                with pytest.raises(BadArgument, match="needs scene_switch") as exc:
                    sample(cfg)
                assert exc.value.param == "poses"
            else:
                sample(cfg)

    def test_effective_means_follow_noise(self):
        cfg = small_config(noise=0.1, dropout=0.0)
        model, space = build_generating_model(cfg)
        means = model.emissions[DEFAULT_CHANNELS[0]].means
        # flip noise maps bits {0,1} to {0.1, 0.9}
        assert set(np.round(np.unique(means), 12)) <= {0.1, 0.9}

    def test_do_contrast_shrinks_means(self):
        cfg = ScenarioConfig(
            poses=CANONICAL_POSES[:3],
            scene_doubling=True,
            noise=0.1,
            dropout=0.0,
        )
        model, space = build_generating_model(cfg)
        means = model.emissions[DEFAULT_CHANNELS[0]].means
        p = cfg.n_poses
        bc, do = means[:p], means[p:]
        assert np.allclose(do - 0.5, (bc - 0.5) * 0.5)


class TestSampleSequence:
    def test_deterministic(self):
        a_stream, a_truth = sample_sequence(small_config())
        b_stream, b_truth = sample_sequence(small_config())
        assert streams_equal(a_stream, b_stream)
        assert a_truth.segmentation == b_truth.segmentation

    def test_seed_changes_trajectory(self):
        a, _ = sample_sequence(small_config(seed=3))
        b, _ = sample_sequence(small_config(seed=4))
        assert not streams_equal(a, b)

    def test_t_target_hit_exactly(self):
        stream, truth = sample_sequence(small_config(t_target=137))
        assert stream.T == 137
        assert sum(seg.d for seg in truth.segmentation) == 137

    def test_zero_noise_emits_rounded_templates(self):
        cfg = small_config(noise=0.0, dropout=0.0)
        stream, truth = sample_sequence(cfg)
        model = truth.generating_model
        labels = tick_states(truth.segmentation)
        for c in cfg.channels:
            # stored means are clamped away from {0, 1}; emitted bits are not
            bits = (model.emissions[c].means >= 0.5).astype(float)
            for t, frame in enumerate(stream.frames):
                assert frame.vectors[c].tolist() == bits[labels[t]].tolist()
                assert c in frame.available

    def test_consecutive_segments_change_pose(self):
        _, truth = sample_sequence(small_config(t_target=500))
        space = truth.generating_model.states
        poses = [space[seg.y_index].pose for seg in truth.segmentation]
        assert all(a is not b for a, b in zip(poses, poses[1:]))

    def test_duration_statistics(self):
        cfg = small_config(t_target=6000, duration_mean=6.0, duration_std=1.5)
        _, truth = sample_sequence(cfg)
        durations = [seg.d for seg in truth.segmentation][:-1]  # last is truncated
        assert abs(np.mean(durations) - 6.0) < 0.4
        assert 1.0 < np.std(durations) < 2.0

    def test_dropout_rate(self):
        cfg = small_config(noise=0.0, dropout=0.4, t_target=2000)
        stream, _ = sample_sequence(cfg)
        miss = np.mean(
            [c not in f.available for f in stream.frames for c in cfg.channels]
        )
        assert abs(miss - 0.4) < 0.05

    def test_scene_track(self):
        cfg = ScenarioConfig(poses=CANONICAL_POSES[:3], scene_switch=True,
                             t_target=100, seed=5)
        _, truth = sample_sequence(cfg)
        # two runs tiling 1..T: exactly one switch
        (b0, n0, first), (b1, n1, last) = truth.scene_track
        assert (b0, b1, b1 + n1 - 1) == (1, b0 + n0, truth.segmentation.T)
        assert first is SceneCondition.BC
        assert last is SceneCondition.DO
        switch = b1 - 1  # 0-based index of the first DO tick
        assert 100 // 4 <= switch <= 3 * 100 // 4

    def test_day_long_peak_holds_one_copy_of_X(self):
        """The sampled means, the noise draw and the stream's one copy of X:
        2.6 x X for a day at 1 Hz of the benchmark's recording config, where
        stacking the channels before the copy read 3.6 x."""
        config = preset_config("do-sim", seed=1, t_target=86_400, d_max=36,
                               scene_switch=True)
        tracemalloc.start()
        try:
            stream, _ = sample_sequence(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * stream.X.nbytes


class TestTransitionClips:
    CFG = ScenarioConfig(
        poses=CANONICAL_POSES,
        scene_doubling=False,
        noise=0.0,
        dropout=0.0,
        seed=9,
    )
    COMBO = (PL.SOLDIER_UP, PL.FETAL_RIGHT, RotationDirection.LEFT)

    def test_clip_layout(self):
        stream, truth = sample_transition_clip(*self.COMBO, self.CFG)
        h, g = self.CFG.transition_hold, self.CFG.transition_ramp
        assert stream.T == 2 * h + 4 * g - 1
        assert truth.transition.anchor_ticks == (h + g, h + 2 * g, h + 3 * g)
        assert truth.transition.n_pseudo == 3

    def test_holds_equal_templates(self):
        stream, truth = sample_transition_clip(*self.COMBO, self.CFG)
        h = self.CFG.transition_hold
        first = stream.frames[0]
        for t in range(h):
            for c in self.CFG.channels:
                assert stream.frames[t].vectors[c].tolist() == first.vectors[c].tolist()
        last = stream.frames[-1]
        for t in range(stream.T - h + 1, stream.T):
            for c in self.CFG.channels:
                assert stream.frames[t].vectors[c].tolist() == last.vectors[c].tolist()

    def test_directions_share_holds_but_not_intermediates(self):
        a, b = self.COMBO[0], self.COMBO[1]
        left, lt = sample_transition_clip(a, b, RotationDirection.LEFT, self.CFG)
        right, _ = sample_transition_clip(a, b, RotationDirection.RIGHT, self.CFG)
        c = self.CFG.channels[0]
        t1, t2, t3 = lt.transition.anchor_ticks
        assert left.frames[0].vectors[c].tolist() == right.frames[0].vectors[c].tolist()
        assert left.frames[-1].vectors[c].tolist() == right.frames[-1].vectors[c].tolist()
        for t in (t1, t2, t3):
            assert left.frames[t - 1].vectors[c].tolist() != right.frames[t - 1].vectors[c].tolist()

    def test_self_pair_is_static_at_zero_noise(self):
        clip, _ = sample_transition_clip(
            PL.SOLDIER_UP, PL.SOLDIER_UP, RotationDirection.LEFT, self.CFG
        )
        kfs = select_keyframes(clip, threshold=0.25)
        assert kfs.static

    def test_midpoint_recovered_by_keyframes(self):
        stream, truth = sample_transition_clip(*self.COMBO, self.CFG)
        kfs = select_keyframes(stream, k_max=5, threshold=0.25)
        assert not kfs.static
        mid = truth.transition.anchor_ticks[1]
        assert min(abs(kf.frame_index - mid) for kf in kfs) <= 1

    def test_anchor_magnitude_balance(self):
        # the middle anchor is the motion peak, but the outer anchors must
        # still swing: they carry direction evidence of their own
        assert ANCHOR_MAGNITUDES[1] > ANCHOR_MAGNITUDES[0]
        assert ANCHOR_MAGNITUDES[1] > ANCHOR_MAGNITUDES[2]
        assert min(ANCHOR_MAGNITUDES) >= 0.3

    def test_planted_segmentation(self):
        stream, truth = sample_transition_clip(*self.COMBO, self.CFG)
        segs = truth.segmentation.segments
        assert len(segs) == 2
        space = truth.generating_model.states
        assert space[segs[0].y_index].pose is self.COMBO[0]
        assert space[segs[1].y_index].pose is self.COMBO[1]
        mid = truth.transition.anchor_ticks[1]
        assert segs[0].d == mid

    def test_endpoints_survive_dropout(self):
        cfg = dataclasses.replace(self.CFG, dropout=0.9, seed=2)
        stream, _ = sample_transition_clip(*self.COMBO, cfg)
        for c in cfg.channels:
            assert c in stream.frames[0].available
            assert c in stream.frames[-1].available

    def test_deterministic(self):
        a, _ = sample_transition_clip(*self.COMBO, self.CFG)
        b, _ = sample_transition_clip(*self.COMBO, self.CFG)
        assert streams_equal(a, b)

    def test_unknown_pose_rejected(self):
        cfg = small_config()
        with pytest.raises(PoseHsmmError):
            sample_transition_clip(
                PL.OTHER, CANONICAL_POSES[0], RotationDirection.LEFT, cfg
            )


class TestProtocol:
    def test_full_protocol(self):
        combos = transition_protocol()
        assert len(combos) == 200
        assert len(set(combos)) == 200
        assert sum(a is b for a, b, _ in combos) == 20  # self-pairs, both ways

    def test_restricted_protocol(self):
        combos = transition_protocol(CANONICAL_POSES[:3])
        assert len(combos) == 18

    @pytest.mark.parametrize(
        "poses",
        [[1, 2], "ab", [], (), 5, None, [PL.OTHER, PL.OTHER], [PL.OTHER, "other"]],
        ids=["ints", "string", "empty-list", "empty-tuple", "int", "none",
             "pose-twice", "pose-and-string"],
    )
    def test_poses_that_are_not_distinct_poses_are_named(self, poses):
        with pytest.raises(BadArgument) as exc:
            transition_protocol(poses)
        assert exc.value.param == "poses"


#: sha256 of the stream and truth files ``posehsmm simulate`` writes,
#: recorded while sequences and clips still drew their flips, contrast and
#: dropout in separate copies; the one shared observation step keeps every
#: byte.
PINNED_OUTPUTS = {
    "do-sim-scene-switch": (
        ["--preset", "do-sim", "--seed", "5", "--t-target", "300", "--scene-switch"],
        "4286fe559631763a9fe42bd6f4420c3e32e54789440dec96707678b6289852e8",
        "15c098e913b22cc3324d0ebe2fefee942826a48f1dec1ad3d60c8144369128e4",
    ),
    "bc-sim-dropout": (
        ["--preset", "bc-sim", "--seed", "6", "--t-target", "200", "--dropout", "0.3"],
        "a11702ace7c6a4fffa0543bae14792de4659872025b266ead4369315974d7f51",
        "00123108f6553ba04c1ffa5557e5aed8739f423ac9fd3f2fd7a0c2fe1d5daa09",
    ),
    "bc-sim-clip": (
        ["--preset", "bc-sim", "--seed", "7", "--dropout", "0.25",
         "--transition", "solU", "fetR", "left"],
        "c964227f5e550c1828cc25e2f04c299eae690ea02939e868457f8a76d31dc3db",
        "6928e5b76002f288c541dd9f2c49e07e0f66384ef442a89ea34ee58c9e2fd735",
    ),
    "do-sim-clip": (
        ["--preset", "do-sim", "--seed", "8", "--transition", "logR", "falD", "right"],
        "65005653f2855046be0e6a799d46829a63bd8f304606372dfa86c04dd36cc0d4",
        "29bf235a07d8d66eefccfd183ed027b0ea2766d1661927aa19d119a755bb0759",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_simulate_outputs_are_pinned(name, tmp_path, capsys):
    flags, stream_sha, truth_sha = PINNED_OUTPUTS[name]
    stream, truth = tmp_path / "out.stream", tmp_path / "out.truth"
    assert main(["simulate", *flags, "--out", str(stream), "--truth-out", str(truth)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (stream, truth)]
    assert digests == [stream_sha, truth_sha]

"""Text formats round-trip bit-exactly; the CLI wires them together."""

import filecmp
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from posehsmm import cli, fileio
from posehsmm.cli import main
from posehsmm.emission import ChannelId, FeatureStream, Modality, View
from posehsmm.errors import FormatError
from posehsmm.inference import hsmm_viterbi
from posehsmm.keyframes import select_keyframes
from posehsmm.simulate import (
    ScenarioConfig,
    preset_config,
    sample_sequence,
    sample_transition_clip,
)
from posehsmm.states import (
    D_MAX_LIMIT,
    PoseLabel,
    RotationDirection,
    SceneCondition,
    Segment,
    Segmentation,
)
from posehsmm.summarize import HistoryRecord, TransitionRecord

from conftest import run_cli_limited

PL = PoseLabel


@pytest.fixture(scope="module")
def sim():
    cfg = ScenarioConfig(t_target=150, seed=20, dropout={SceneCondition.BC: 0.2,
                                                         SceneCondition.DO: 0.45})
    return sample_sequence(cfg)


def joined_stream_text(stream):
    """A stream file as one text: the listed channels' rows copied out of X
    and mask, one line per tick, joined.  The bytes ``write_stream`` keeps."""
    ever = stream.mask.any(axis=1)
    X, mask = stream.X[ever], stream.mask[ever]
    lines = ["format: v1", "kind: stream", f"T: {stream.T}", f"F: {stream.F}",
             "channels: " + " ".join(str(c) for c in stream.channels)]
    for t in range(stream.T):
        bits = "".join("1" if b else "0" for b in mask[:, t])
        values = " ".join(format(v, ".17g") for v in X[mask[:, t], t].ravel().tolist())
        lines.append(f"tick {t + 1} {bits} {values}")
    return "\n".join(lines) + "\n"


ALL_CHANNELS = sorted(ChannelId(view, modality) for view in View for modality in Modality)


class TestStreamFile:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_joined_text(self, tmp_path_factory, data):
        """Never-available channels, ticks with no channel (whose line ends
        in a space) and 0, 1 and -0 under a True mask."""
        C, T, F = (data.draw(st.integers(1, n), label=k) for k, n in zip("CTF", (4, 50, 5)))
        channels = sorted(data.draw(st.lists(st.sampled_from(ALL_CHANNELS), min_size=C,
                                             max_size=C, unique=True), label="channels"))
        never = data.draw(st.lists(st.booleans(), min_size=C, max_size=C), label="never")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        mask = rng.random((C, T)) < data.draw(st.sampled_from([0.2, 0.6, 1.0]), label="p")
        mask[never] = False
        assume(mask.any())
        X = rng.random((C, T, F))
        pick = rng.integers(0, 4, X.shape)
        for k, value in enumerate([0.0, 1.0, -0.0], start=1):
            X[pick == k] = value
        stream = FeatureStream(X, mask, tuple(channels))
        path = tmp_path_factory.mktemp("joined") / "s.stream"
        fileio.write_stream(stream, path)
        assert path.read_bytes() == joined_stream_text(stream).encode()

    def test_write_holds_no_copy_of_the_stream(self, tmp_path):
        """Tick lines go to the file as they are formatted: a T = 20,000
        do-sim stream with a scene switch writes at 0.25 x X at most, where
        copying X and joining every tick line first peaked at 2.64 x."""
        stream, _ = sample_sequence(preset_config("do-sim", seed=1, t_target=20_000,
                                                  d_max=36, scene_switch=True))
        tracemalloc.start()
        try:
            fileio.write_stream(stream, tmp_path / "day.stream")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * stream.X.nbytes

    def test_round_trip_bit_exact(self, sim, tmp_path):
        stream, _ = sim
        p1, p2 = tmp_path / "a.stream", tmp_path / "b.stream"
        fileio.write_stream(stream, p1)
        back = fileio.read_stream(p1)
        fileio.write_stream(back, p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        assert back.T == stream.T
        assert back.channels == stream.channels
        for fa, fb in zip(stream.frames, back.frames):
            assert fa.available == fb.available
            for c in fa.available:
                assert fa.vectors[c].tolist() == fb.vectors[c].tolist()

    def test_wrong_kind_rejected(self, sim, tmp_path):
        stream, _ = sim
        p = tmp_path / "a.stream"
        fileio.write_stream(stream, p)
        with pytest.raises(FormatError):
            fileio.read_truth(p)

    def test_stream_without_channels_is_not_written(self, tmp_path):
        """A header listing no channel could not be read back: refuse it
        before the file exists."""
        never = FeatureStream.from_arrays(
            {ChannelId.parse("left:RGB"): np.zeros((4, 2))},
            {ChannelId.parse("left:RGB"): np.zeros(4, dtype=bool)},
        )
        p = tmp_path / "never.stream"
        with pytest.raises(FormatError, match="^" + re.escape(f"{p}: ")):
            fileio.write_stream(never, p)
        assert not p.exists()

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "junk"
        p.write_text("not a header\n")
        with pytest.raises(FormatError):
            fileio.read_stream(p)


class TestTruthFile:
    def test_round_trip(self, sim, tmp_path):
        _, truth = sim
        space = truth.generating_model.states
        p1, p2 = tmp_path / "a.truth", tmp_path / "b.truth"
        fileio.write_truth(space, truth.segmentation, truth.scene_track, p1)
        back = fileio.read_truth(p1)
        fileio.write_truth(back.space, back.segmentation, back.scene_track, p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        assert back.space == space
        assert back.segmentation == truth.segmentation
        assert back.scene_track == truth.scene_track
        assert back.transition is None

    def test_transition_line(self, tmp_path):
        cfg = ScenarioConfig(noise=0.0, dropout=0.0, scene_doubling=False)
        _, truth = sample_transition_clip(
            PL.SOLDIER_UP, PL.FETAL_RIGHT, RotationDirection.LEFT, cfg
        )
        p = tmp_path / "t.truth"
        fileio.write_truth(
            truth.generating_model.states,
            truth.segmentation,
            truth.scene_track,
            p,
            transition=truth.transition,
        )
        back = fileio.read_truth(p)
        assert back.transition == (PL.SOLDIER_UP, PL.FETAL_RIGHT,
                                   RotationDirection.LEFT)

    @pytest.mark.parametrize("switch", [False, True], ids=["one-scene", "switch"])
    def test_scene_runs_round_trip(self, tmp_path, switch):
        """read_truth returns exactly the runs write_truth was given."""
        _, truth = sample_sequence(ScenarioConfig(t_target=60, seed=3, scene_switch=switch))
        assert len(truth.scene_track) == 1 + switch
        p = tmp_path / "a.truth"
        fileio.write_truth(truth.generating_model.states, truth.segmentation,
                           truth.scene_track, p)
        assert fileio.read_truth(p).scene_track == truth.scene_track


class TestModelFile:
    def test_round_trip_bit_exact(self, sim, tmp_path):
        stream, truth = sim
        model = truth.generating_model
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        fileio.write_model(model, p1)
        back = fileio.read_model(p1)
        fileio.write_model(back, p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        a = hsmm_viterbi(stream, model)
        b = hsmm_viterbi(stream, back)
        assert a.log_prob == b.log_prob
        assert a.segmentation == b.segmentation


class TestDecodedFile:
    def test_round_trip(self, sim, tmp_path):
        stream, truth = sim
        result = hsmm_viterbi(stream, truth.generating_model)
        p = tmp_path / "d.decoded"
        fileio.write_decoded(result.segmentation, result.log_prob, p,
                             truth.generating_model.states)
        segmentation, log_prob = fileio.read_decoded(p)
        assert segmentation == result.segmentation
        assert log_prob == result.log_prob


class TestHistoryFile:
    def test_round_trip_with_params(self, tmp_path):
        records = [
            HistoryRecord(1, 10, PL.SOLDIER_UP, SceneCondition.BC, 0.9),
            HistoryRecord(11, 5, PL.OTHER, None, 0.6),
        ]
        p = tmp_path / "h.history"
        fileio.write_history(records, p, {"window": 10, "sample_every": 2})
        assert fileio.read_history(p) == ((2, 10, 0.8), records)


class TestTransitionRecordFile:
    def test_round_trip(self, tmp_path):
        rec = TransitionRecord(PL.SOLDIER_UP, PL.FETAL_RIGHT,
                               RotationDirection.RIGHT, -12.5, 5)
        p = tmp_path / "t.transition"
        fileio.write_transition(rec, p)
        assert fileio.read_transitions(p) == [rec]


class TestKeyframesFile:
    def test_written_lines(self, tmp_path):
        cfg = ScenarioConfig(noise=0.0, dropout=0.0, scene_doubling=False)
        clip, _ = sample_transition_clip(
            PL.SOLDIER_UP, PL.FETAL_RIGHT, RotationDirection.LEFT, cfg
        )
        kfs = select_keyframes(clip, threshold=0.25)
        p = tmp_path / "k.keyframes"
        fileio.write_keyframes(kfs, p)
        text = p.read_text().splitlines()
        assert text[0] == "format: v1"
        assert sum(line.startswith("keyframe ") for line in text) == len(kfs)


# =====================================================================
# CLI
# =====================================================================


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Simulated corpus plus a trained model, built once through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    for seed in (1, 2):
        rc = main([
            "simulate", "--seed", str(seed), "--t-target", "120",
            "--out", str(root / f"s{seed}.stream"),
            "--truth-out", str(root / f"s{seed}.truth"),
        ])
        assert rc == 0
    rc = main([
        "train",
        "--data", str(root / "s1.stream"), str(root / "s1.truth"),
        "--data", str(root / "s2.stream"), str(root / "s2.truth"),
        "--out", str(root / "fit.model"),
    ])
    assert rc == 0
    return root


def metric_lines(capsys):
    out = capsys.readouterr().out
    metrics = {}
    for line in out.splitlines():
        if line.startswith("metric "):
            _, name, value = line.split()
            metrics[name] = float(value)
    return metrics, out


class TestCliPipeline:
    def test_simulate_deterministic(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["simulate", "--seed", "5", "--t-target", "60",
                       "--out", str(tmp_path / f"{name}.stream")])
            assert rc == 0
        assert filecmp.cmp(tmp_path / "a.stream", tmp_path / "b.stream",
                           shallow=False)

    def test_decode_and_evaluate(self, workdir, tmp_path, capsys):
        rc = main(["decode", "--model", str(workdir / "fit.model"),
                   "--stream", str(workdir / "s1.stream"),
                   "--out", str(tmp_path / "s1.decoded")])
        assert rc == 0
        rc = main(["evaluate", "--truth", str(workdir / "s1.truth"),
                   "--decoded", str(tmp_path / "s1.decoded")])
        assert rc == 0
        metrics, _ = metric_lines(capsys)
        assert metrics["frame_accuracy"] >= 0.9

    def test_decoded_file_matches_api(self, workdir, tmp_path):
        rc = main(["decode", "--model", str(workdir / "fit.model"),
                   "--stream", str(workdir / "s2.stream"),
                   "--out", str(tmp_path / "s2.decoded")])
        assert rc == 0
        model = fileio.read_model(workdir / "fit.model")
        stream = fileio.read_stream(workdir / "s2.stream")
        want = hsmm_viterbi(stream, model)
        segmentation, log_prob = fileio.read_decoded(tmp_path / "s2.decoded")
        assert log_prob == want.log_prob
        assert segmentation == want.segmentation

    def test_summarize_and_evaluate_history(self, workdir, tmp_path, capsys):
        rc = main(["summarize", "--model", str(workdir / "fit.model"),
                   "--stream", str(workdir / "s1.stream"),
                   "--window", "10", "--out", str(tmp_path / "s1.history")])
        assert rc == 0
        rc = main(["evaluate", "--truth", str(workdir / "s1.truth"),
                   "--history", str(tmp_path / "s1.history")])
        assert rc == 0
        metrics, _ = metric_lines(capsys)
        assert metrics["window_detection_rate"] >= 0.8

    def test_keyframes_command(self, tmp_path, capsys):
        rc = main(["simulate", "--transition", "solU", "fetR", "left",
                   "--noise", "0", "--dropout", "0",
                   "--out", str(tmp_path / "clip.stream")])
        assert rc == 0
        rc = main(["keyframes", "--stream", str(tmp_path / "clip.stream"),
                   "--th", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "keyframe 1 " in out
        assert "static" not in out

    def test_classify_transition_command(self, tmp_path, capsys):
        for a, b, d in (("solU", "fetR", "left"), ("solU", "logR", "right")):
            rc = main(["simulate", "--transition", a, b, d,
                       "--noise", "0", "--dropout", "0",
                       "--out", str(tmp_path / f"{a}-{b}-{d}.stream")])
            assert rc == 0
        manifest = tmp_path / "train.manifest"
        manifest.write_text(
            "# stream from to direction\n"
            "solU-fetR-left.stream solU fetR left\n"
            "solU-logR-right.stream solU logR right\n"
        )
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(tmp_path / "solU-fetR-left.stream"),
                   "--th", "0.25",
                   "--out", str(tmp_path / "clip.transition")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "solU -> fetR (left)" in out
        (rec,) = fileio.read_transitions(tmp_path / "clip.transition")
        assert rec.to_pose is PL.FETAL_RIGHT

    def test_static_clip_exits_3(self, tmp_path, capsys):
        rc = main(["simulate", "--transition", "solU", "solU", "left",
                   "--noise", "0", "--dropout", "0",
                   "--out", str(tmp_path / "still.stream")])
        assert rc == 0
        manifest = tmp_path / "train.manifest"
        rc = main(["simulate", "--transition", "solU", "fetR", "left",
                   "--noise", "0", "--dropout", "0",
                   "--out", str(tmp_path / "moving.stream")])
        assert rc == 0
        manifest.write_text("moving.stream solU fetR left\n")
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(tmp_path / "still.stream"), "--th", "0.25"])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestCliErrors:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--model"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_evaluate_needs_an_output(self, workdir, capsys):
        rc = main(["evaluate", "--truth", str(workdir / "s1.truth")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_train_rejects_length_mismatch(self, workdir, tmp_path, capsys):
        rc = main(["simulate", "--seed", "1", "--t-target", "80",
                   "--out", str(tmp_path / "short.stream")])
        assert rc == 0
        rc = main(["train",
                   "--data", str(tmp_path / "short.stream"),
                   str(workdir / "s1.truth"),
                   "--out", str(tmp_path / "bad.model")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateArguments:
    """simulate rejects a scenario it cannot sample, or a transition it cannot
    name, with one error line, exit code 1 and no output file."""

    @pytest.mark.parametrize(
        "flags, message",
        [(["--t-target", "0"], "t_target must be an integer >= 1, got 0"),
         (["--duration-std", "0"], None),
         (["--transition", "solU", "fetR", "left", "--hold", "0", "--ramp", "0"], None),
         (["--transition", "solU", "fetR", "sideways"], None),
         (["--dropout", "1.0"], None)],
        ids=["t-target-0", "duration-std-0", "hold-and-ramp-0",
             "transition-sideways", "dropout-1"],
    )
    def test_bad_flag(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.stream"
        assert main(["simulate", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert message is None or err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["bc-sim", "do-sim"])
    @pytest.mark.parametrize("transition", [False, True], ids=["sequence", "transition"])
    def test_flags_set_the_preset_fields(self, tmp_path, preset, transition):
        """Every scenario flag reaches the field it names: the CLI writes
        the bytes that ``preset_config(preset, **fields)`` samples to."""
        flags = ["--seed", "5", "--t-target", "60", "--d-max", "20",
                 "--duration-mean", "5.5", "--duration-std", "1.5",
                 "--noise", "0.1", "--dropout", "0.2", "--scene-switch"]
        fields = dict(seed=5, t_target=60, d_max=20, duration_mean=5.5,
                      duration_std=1.5, noise=0.1, dropout=0.2, scene_switch=True)
        if transition:
            flags += ["--transition", "solU", "fetR", "left", "--hold", "4", "--ramp", "3"]
            fields.update(transition_hold=4, transition_ramp=3)
        rc = main(["simulate", "--preset", preset, *flags,
                   "--out", str(tmp_path / "cli.stream"),
                   "--truth-out", str(tmp_path / "cli.truth")])
        assert rc == 0
        config = preset_config(preset, **fields)
        if transition:
            stream, truth = sample_transition_clip(
                PL.SOLDIER_UP, PL.FETAL_RIGHT, RotationDirection.LEFT, config
            )
        else:
            stream, truth = sample_sequence(config)
        fileio.write_stream(stream, tmp_path / "api.stream")
        fileio.write_truth(truth.generating_model.states, truth.segmentation,
                           truth.scene_track, tmp_path / "api.truth",
                           transition=truth.transition)
        for kind in ("stream", "truth"):
            assert (tmp_path / f"cli.{kind}").read_bytes() == (
                tmp_path / f"api.{kind}"
            ).read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--t-target", "1000000000000"],
          "t_target 1000000000000 asks for 3 channel(s) x T=1000000000000 x F=6"),
         (["--t-target", "10000000000000000000"],
          "t_target 10000000000000000000 asks for 3 channel(s) x "
          "T=10000000000000000000 x F=6"),
         (["--transition", "solU", "fetR", "left", "--hold", "100000000"],
          "transition_hold 100000000 asks for 3 channel(s) x T=200000023 x F=6"),
         (["--transition", "solU", "fetR", "left", "--ramp", "100000000"],
          "transition_ramp 100000000 asks for 3 channel(s) x T=400000011 x F=6")],
        ids=["t-target", "t-target-beyond-intp", "hold", "ramp"],
    )
    def test_stream_beyond_memory(self, tmp_path, flags, message):
        """The stream's arrays (29 GB to 144 TB here, or more bytes than an
        intp counts) are allocated before anything is sampled, so simulate
        runs in a child under a 2 GiB address-space cap and fails at once."""
        out = tmp_path / "s.stream"
        proc = run_cli_limited("simulate", *flags, "--out", out)
        assert (proc.returncode, proc.stderr) == (
            1, f"error: {message} values, more than memory holds\n"
        )
        assert not out.exists()

    def test_noise_draw_beyond_memory(self, tmp_path):
        """A clip whose 220 MiB means fit under a 512 MiB address-space cap
        while the noise draw or the stream's copy of the same size does not
        ends in the same one-line error."""
        out = tmp_path / "s.stream"
        proc = run_cli_limited("simulate", "--transition", "solU", "fetR", "left",
                               "--hold", "800000", "--out", out, limit=512 * 1024**2)
        assert (proc.returncode, proc.stderr) == (
            1, "error: transition_hold 800000 asks for 3 channel(s) x T=1600023 x F=6 "
            "values, more than memory holds\n"
        )
        assert not out.exists()


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    """Two moving transition clips, a manifest listing them, and a clip
    with four features instead of six."""
    root = tmp_path_factory.mktemp("clips")
    for a, b, d in (("solU", "fetR", "left"), ("solU", "logR", "right")):
        rc = main(["simulate", "--transition", a, b, d, "--noise", "0",
                   "--dropout", "0", "--out", str(root / f"{a}-{b}-{d}.stream")])
        assert rc == 0
    (root / "train.manifest").write_text(
        "solU-fetR-left.stream solU fetR left\n"
        "solU-logR-right.stream solU logR right\n"
    )
    ramp = np.linspace(0.0, 1.0, 12)[:, None] * np.ones(4)
    narrow = FeatureStream.from_arrays({ChannelId.parse("left:RGB"): ramp})
    fileio.write_stream(narrow, root / "narrow.stream")
    return root


class TestCliArgumentErrors:
    """Bad keyframe settings are a one-line error with exit code 1."""

    @pytest.mark.parametrize("command", ["keyframes", "classify-transition"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--k-max", "1"), ("--th", "nan"), ("--stage2-th", "-0.5"),
         ("--stage2-th", "inf")],
        ids=["k-max-1", "th-nan", "stage2-negative", "stage2-inf"],
    )
    def test_bad_keyframe_argument(self, clips, capsys, command, flag, value):
        clip = str(clips / "solU-fetR-left.stream")
        if command == "keyframes":
            argv = ["keyframes", "--stream", clip]
        else:
            argv = ["classify-transition", "--manifest",
                    str(clips / "train.manifest"), "--clip", clip]
        assert main(argv + ["--th", "0.25", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be ")
        assert err.count("\n") == 1

    def test_all_static_manifest(self, clips, capsys):
        # at the default --th 0.8 neither simulated clip shows endpoint motion
        manifest = clips / "train.manifest"
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(clips / "solU-fetR-left.stream")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: every clip is static at --th 0.8")
        assert err.count("\n") == 1


class TestSummarizeArguments:
    """summarize rejects settings the history cannot use, and a model whose
    states have no pose names, with one error line and exit code 1."""

    @pytest.mark.parametrize(
        "flags",
        [["--window", "0"], ["--sample-every", "0"],
         ["--sample-every", "3", "--window", "2"], ["--consistency", "nan"],
         ["--consistency", "1.5"], ["--tick-seconds", "0"],
         ["--tick-seconds", "inf"]],
        ids=["window-0", "sample-every-0", "window-below-step", "consistency-nan",
             "consistency-above-1", "tick-seconds-0", "tick-seconds-inf"],
    )
    def test_bad_flag(self, workdir, capsys, flags):
        rc = main(["summarize", "--model", str(workdir / "fit.model"),
                   "--stream", str(workdir / "s1.stream"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[-2]} must be ")
        assert err.count("\n") == 1

    def test_tick_seconds_overflowing_the_stream(self, workdir, capsys):
        # 1e308 is finite, but 120 ticks of it are not
        rc = main(["summarize", "--model", str(workdir / "fit.model"),
                   "--stream", str(workdir / "s1.stream"), "--tick-seconds", "1e308"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --tick-seconds 1e+308 times T=120 ticks is not finite\n"

    def test_model_without_states(self, workdir, tmp_path, capsys):
        text = (workdir / "fit.model").read_text().splitlines()
        nameless = tmp_path / "nameless.model"
        nameless.write_text(
            "\n".join(ln for ln in text if not ln.startswith("state ")) + "\n"
        )
        assert fileio.read_model(nameless).states is None
        rc = main(["summarize", "--model", str(nameless),
                   "--stream", str(workdir / "s1.stream")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {nameless}: model has no state lines")
        assert err.count("\n") == 1


class TestEvaluateInputs:
    """evaluate rejects a history header or transitions file it cannot use
    with one error line naming the file, and exit code 1."""

    @pytest.fixture(scope="class")
    def history(self, workdir, tmp_path_factory):
        path = tmp_path_factory.mktemp("history") / "s1.history"
        rc = main(["summarize", "--model", str(workdir / "fit.model"),
                   "--stream", str(workdir / "s1.stream"), "--out", str(path)])
        assert rc == 0
        return path.read_text().splitlines()

    @pytest.mark.parametrize(
        "key, value, bad_key",
        [("window", "abc", "window"), ("window", "0", "window"),
         ("sample_every", "0", "sample_every"),
         ("sample_every", "20", "window"),
         ("consistency", "nan", "consistency"),
         ("consistency", "1.5", "consistency")],
        ids=["window-abc", "window-0", "sample-every-0", "window-below-step",
             "consistency-nan", "consistency-above-1"],
    )
    def test_bad_history_header(
        self, workdir, history, tmp_path, capsys, key, value, bad_key
    ):
        lines = [f"{key}: {value}" if ln.startswith(f"{key}: ") else ln
                 for ln in history]
        path = tmp_path / "bad.history"
        path.write_text("\n".join(lines) + "\n")
        lineno = 1 + next(i for i, ln in enumerate(lines) if ln.startswith(f"{bad_key}: "))
        rc = main(["evaluate", "--truth", str(workdir / "s1.truth"),
                   "--history", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{lineno}: ")
        assert err.count("\n") == 1

    def test_history_record_count_against_truth(self, workdir, history, tmp_path, capsys):
        # the 120-tick truth gives 12 windows of the default 10 ticks
        records = [ln for ln in history if ln.startswith("record ")]
        assert len(records) == 12
        path = tmp_path / "short.history"
        path.write_text("\n".join(history[: len(history) - 4]) + "\n")
        truth = workdir / "s1.truth"
        rc = main(["evaluate", "--truth", str(truth), "--history", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: 8 records, but truth {truth} gives 12 windows of 10 ticks\n"
        )

    def test_transitions_without_records(self, tmp_path, capsys):
        rc = main(["simulate", "--transition", "solU", "fetR", "left",
                   "--out", str(tmp_path / "clip.stream"),
                   "--truth-out", str(tmp_path / "clip.truth")])
        assert rc == 0
        empty = tmp_path / "empty.transition"
        empty.write_text("format: v1\nkind: transition\n")
        rc = main(["evaluate", "--truth", str(tmp_path / "clip.truth"),
                   "--transitions", str(empty)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {empty}: ")
        assert err.count("\n") == 1


class TestDecodedAgainstTruth:
    """A decoded file scored against a truth must cover its T and name its
    states; else one error line names both files, with exit code 1."""

    def evaluate(self, workdir, tmp_path, capsys, records, T=120):
        decoded = tmp_path / "a.decoded"
        decoded.write_text("\n".join(["format: v1", "kind: decoded", f"T: {T}",
                                       "log_prob: -1.5", *records]) + "\n")
        capsys.readouterr()
        rc = main(["evaluate", "--truth", str(workdir / "s1.truth"),
                   "--decoded", str(decoded)])
        return rc, decoded, capsys.readouterr()

    @pytest.mark.parametrize(
        "record, why",
        [("segment 1 120 7 nope XX", "state 7 is 'falD BC' in {truth}, but the line "
          "names 'nope XX'"),
         ("segment 1 120 7 solU BC", "state 7 is 'falD BC' in {truth}, but the line "
          "names 'solU BC'"),
         ("segment 1 120 7 falD DO", "state 7 is 'falD BC' in {truth}, but the line "
          "names 'falD DO'"),
         ("segment 1 120 22 - -", "state 22 is outside the 22 states of {truth}")],
        ids=["unknown-names", "other-pose", "other-scene", "beyond-Q"],
    )
    def test_state_must_be_the_truths(self, workdir, tmp_path, capsys, record, why):
        rc, decoded, out = self.evaluate(workdir, tmp_path, capsys, [record])
        assert rc == 1
        why = why.format(truth=workdir / "s1.truth")
        assert out.err == f"error: {decoded}:5: {why}\n"

    @pytest.mark.parametrize("names", ["- -", "falD BC"])
    def test_unnamed_or_matching_state_is_scored(self, workdir, tmp_path, capsys, names):
        rc, _, out = self.evaluate(workdir, tmp_path, capsys, [f"segment 1 120 7 {names}"])
        assert rc == 0
        assert out.out.startswith("frame_accuracy  ")

    def test_T_mismatch_names_both_files(self, workdir, tmp_path, capsys):
        rc, decoded, out = self.evaluate(
            workdir, tmp_path, capsys, ["segment 1 60 7 - -"], T=60
        )
        assert rc == 1
        assert out.err == (f"error: {decoded}: decoded file covers T=60, but truth "
                           f"{workdir / 's1.truth'} covers T=120\n")


DISJOINT = tuple(map(ChannelId.parse, ("center:RGB", "left:Depth", "right:RGB")))


class TestDisjointChannels:
    """A stream none of whose channels the model (or, for a clip, any chain
    of the manifest) scores is a one-line error naming both files, with
    exit code 1; a partial overlap is still decoded."""

    def write(self, path, stream):
        fileio.write_stream(stream, path)
        return path

    @pytest.mark.parametrize("command", ["decode", "summarize"])
    def test_stream_against_model(self, workdir, tmp_path, capsys, command):
        stream, _ = sample_sequence(ScenarioConfig(t_target=40, seed=3, channels=DISJOINT))
        path = self.write(tmp_path / "disjoint.stream", stream)
        model = workdir / "fit.model"
        rc = main([command, "--model", str(model), "--stream", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: no channel of center:RGB left:Depth right:RGB is "
            f"modelled by model {model} (center:Depth left:RGB right:Mask)\n"
        )

    def test_partial_overlap_is_decoded(self, workdir, tmp_path, capsys):
        channels = (ChannelId.parse("left:RGB"), ChannelId.parse("center:RGB"))
        stream, _ = sample_sequence(ScenarioConfig(t_target=40, seed=3, channels=channels))
        path = self.write(tmp_path / "partial.stream", stream)
        rc = main(["decode", "--model", str(workdir / "fit.model"), "--stream", str(path)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_clip_against_manifest(self, clips, tmp_path, capsys):
        config = ScenarioConfig(noise=0.0, dropout=0.0, channels=DISJOINT)
        clip, _ = sample_transition_clip(PL.SOLDIER_UP, PL.FETAL_RIGHT,
                                         RotationDirection.LEFT, config)
        path = self.write(tmp_path / "disjoint.stream", clip)
        manifest = clips / "train.manifest"
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(path), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: no channel of center:RGB left:Depth right:RGB is "
            f"modelled by the chains of manifest {manifest} "
            "(center:Depth left:RGB right:Mask)\n"
        )


class TestFeatureWidthMismatch:
    """A stream whose F differs from the model's or the manifest's is a
    one-line error naming the stream file, with exit code 1."""

    @pytest.mark.parametrize("command", ["decode", "summarize"])
    def test_stream_against_model(self, workdir, clips, capsys, command):
        narrow = clips / "narrow.stream"
        rc = main([command, "--model", str(workdir / "fit.model"),
                   "--stream", str(narrow)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {narrow}: stream has F=4, model "
        )

    def test_clip_against_manifest(self, clips, capsys):
        narrow = clips / "narrow.stream"
        rc = main(["classify-transition", "--manifest", str(clips / "train.manifest"),
                   "--clip", str(narrow), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {narrow}: clip has F=4")

    def test_clip_against_manifest_before_library_fit(self, clips, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("the library was fitted before the clip's F was checked")

        monkeypatch.setattr(cli, "build_transition_library", no_fit)
        narrow = clips / "narrow.stream"
        manifest = clips / "train.manifest"
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(narrow), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {narrow}: clip has F=4, manifest {manifest} clips have F=6\n"
        )

    def test_manifest_mixing_widths(self, clips, capsys):
        manifest = clips / "mixed.manifest"
        manifest.write_text(
            "solU-fetR-left.stream solU fetR left\n"
            "narrow.stream solU logR right\n"
        )
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(clips / "solU-fetR-left.stream"), "--th", "0.25"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:2: {clips / 'narrow.stream'}: ")


class TestManifestLines:
    """Every manifest line is checked before any clip is read, and a clip
    that cannot be read is reported at its manifest line."""

    @pytest.mark.parametrize(
        "bad, why",
        [("solU-logR-right.stream solU bogus right", "'bogus'"),
         ("solU-logR-right.stream solU logR", "expected '<stream> ")],
        ids=["bad-label", "field-count"],
    )
    def test_bad_line_before_missing_clip(self, clips, capsys, bad, why):
        manifest = clips / "bad-line.manifest"
        manifest.write_text(
            "solU-fetR-left.stream solU fetR left\n"
            "missing.stream solU logR right\n"
            f"{bad}\n"
        )
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(clips / "solU-fetR-left.stream"), "--th", "0.25"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}:3: ")
        assert why in err
        assert err.count("\n") == 1

    def test_non_utf8_line_is_named(self, clips, capsys):
        manifest = clips / "latin1.manifest"
        manifest.write_bytes(
            b"solU-fetR-left.stream solU fetR left\n"
            b"# caf\xe9\n"
            b"solU-logR-right.stream solU logR right\n"
        )
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(clips / "solU-fetR-left.stream"), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {manifest}:2: not UTF-8 text\n"

    def test_missing_clip_names_its_line(self, clips, capsys):
        manifest = clips / "missing.manifest"
        manifest.write_text(
            "solU-fetR-left.stream solU fetR left\n"
            "missing.stream solU logR right\n"
        )
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(clips / "solU-fetR-left.stream"), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}:2: {clips / 'missing.stream'}: "
            "No such file or directory\n"
        )

    def test_bad_clip_before_library_fit(self, clips, tmp_path, monkeypatch, capsys):
        # tick 5 is line 10 of the clip; the missing manifest clip is never read
        lines = (clips / "solU-fetR-left.stream").read_text().splitlines()
        assert lines[9].startswith("tick 5 ")
        lines[9] = lines[9].rsplit(" ", 1)[0] + " abc"
        bad = tmp_path / "bad.stream"
        bad.write_text("\n".join(lines) + "\n")
        manifest = clips / "unread.manifest"
        manifest.write_text("missing.stream solU logR right\n")

        def no_fit(*args, **kwargs):
            raise AssertionError("the library was fitted before the clip was read")

        monkeypatch.setattr(cli, "build_transition_library", no_fit)
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(bad), "--th", "0.25"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:10: ")
        assert err.count("\n") == 1


class TestOneTickClips:
    """A clip too short to keyframe is a one-line error naming its file, and
    at its manifest line for a manifest clip, with exit code 1."""

    @pytest.fixture
    def one(self, clips, tmp_path):
        """The first tick of a simulated clip, with ``T: 1``."""
        text = (clips / "solU-fetR-left.stream").read_text()
        text = re.sub(r"(?m)^T: \d+$", "T: 1", text.split("\ntick 2 ")[0])
        path = tmp_path / "one.stream"
        path.write_text(text + "\n")
        return path

    def test_keyframes_stream(self, one, capsys):
        assert main(["keyframes", "--stream", str(one)]) == 1
        assert capsys.readouterr().err == (
            f"error: {one}: clip has 1 frame(s); need at least 2\n"
        )

    def test_classify_clip_before_library_fit(self, clips, one, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("the library was fitted before the clip's T was checked")

        monkeypatch.setattr(cli, "build_transition_library", no_fit)
        rc = main(["classify-transition", "--manifest", str(clips / "train.manifest"),
                   "--clip", str(one), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {one}: clip has 1 frame(s); need at least 2\n"
        )

    def test_manifest_clip_names_its_line(self, clips, one, capsys):
        manifest = one.parent / "one.manifest"
        manifest.write_text(
            f"{clips / 'solU-fetR-left.stream'} solU fetR left\n"
            "one.stream solU logR right\n"
        )
        rc = main(["classify-transition", "--manifest", str(manifest),
                   "--clip", str(clips / "solU-fetR-left.stream"), "--th", "0.25"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}:2: {one}: clip has 1 frame(s); need at least 2\n"
        )


@pytest.fixture(scope="module")
def clean_stream(tmp_path_factory):
    """A 40-tick bc-sim stream: no dropout, so every tick carries values."""
    path = tmp_path_factory.mktemp("strict") / "clean.stream"
    rc = main(["simulate", "--seed", "6", "--t-target", "40", "--out", str(path)])
    assert rc == 0
    return path


class TestStrictStreamParsing:
    #: header lines: format, kind, T, F, channels; so tick 5 is line 10
    LINE = 10

    @pytest.mark.parametrize(
        "field, token",
        [
            (1, "0"),
            (1, "4"),
            (1, "41"),
            (1, "five"),
            (3, "7.5"),
            (3, "-0.5"),
            (3, "nan"),
            (3, "inf"),
            (3, "abc"),
        ],
        ids=[
            "tick-zero",
            "duplicate-tick",
            "tick-past-end",
            "non-numeric-tick",
            "feature-above-one",
            "negative-feature",
            "nan-feature",
            "inf-feature",
            "non-numeric-feature",
        ],
    )
    def test_mutation_is_a_format_error(
        self, clean_stream, workdir, tmp_path, capsys, field, token
    ):
        lines = clean_stream.read_text().splitlines()
        rec = lines[self.LINE - 1].split()
        assert rec[:2] == ["tick", "5"]
        rec[field] = token
        lines[self.LINE - 1] = " ".join(rec)
        bad = tmp_path / "bad.stream"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="^" + re.escape(f"{bad}:{self.LINE}: ")):
            fileio.read_stream(bad)
        rc = main(["decode", "--model", str(workdir / "fit.model"),
                   "--stream", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:{self.LINE}: ")

    def test_clean_stream_still_parses(self, clean_stream):
        assert fileio.read_stream(clean_stream).T == 40


def _drop_last_value(line):
    return line.rsplit(" ", 1)[0]


def _zero_std(line):
    return line.rsplit(" ", 1)[0] + " 0"


class TestStrictTruthAndModelParsing:
    """Each mutation of a truth or model file is a one-line error naming
    the file and line, with exit code 1."""

    @pytest.mark.parametrize(
        "kind, prefix, mutate, line",
        [
            ("truth", "T: ", None, 2),  # missing field: the kind: line
            ("truth", "segment ", lambda ln: "segment 1 x 0", None),
            ("truth", "segment ", lambda ln: _drop_last_value(ln) + " 99", None),
            ("model", "trans 0 ", _drop_last_value, None),
            ("model", "dur 0 ", _zero_std, None),
        ],
        ids=["truth-without-T", "bad-segment-fields", "segment-state-out-of-range",
             "short-trans-row", "zero-dur-std"],
    )
    def test_mutation_is_a_format_error(
        self, workdir, tmp_path, capsys, kind, prefix, mutate, line
    ):
        src = workdir / ("s1.truth" if kind == "truth" else "fit.model")
        lines = src.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        if mutate is None:
            del lines[k]
        else:
            lines[k] = mutate(lines[k])
            line = k + 1
        bad = tmp_path / f"bad.{kind}"
        bad.write_text("\n".join(lines) + "\n")
        read = fileio.read_truth if kind == "truth" else fileio.read_model
        with pytest.raises(FormatError, match="^" + re.escape(f"{bad}:{line}: ")):
            read(bad)
        if kind == "truth":
            decoded = tmp_path / "s1.decoded"
            assert main(["decode", "--model", str(workdir / "fit.model"),
                         "--stream", str(workdir / "s1.stream"),
                         "--out", str(decoded)]) == 0
            argv = ["evaluate", "--truth", str(bad), "--decoded", str(decoded)]
        else:
            argv = ["decode", "--model", str(bad), "--stream", str(workdir / "s1.stream")]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:{line}: ")

    def test_dur_mean_without_a_finite_pmf(self, workdir, tmp_path, capsys):
        """A finite duration mean so far from 1..d_max that its pmf row would
        be NaN is a one-line error naming the file."""
        lines = (workdir / "fit.model").read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith("dur 0 "))
        lines[k] = f"dur 0 1e200 {lines[k].split()[3]}"
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines) + "\n")
        message = f"{bad}: duration mean 1e+200 of state 0 leaves no finite pmf"
        with pytest.raises(FormatError, match="^" + re.escape(message)):
            fileio.read_model(bad)
        capsys.readouterr()
        assert main(["decode", "--model", str(bad),
                     "--stream", str(workdir / "s1.stream")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_one_state_self_transition(self, workdir, tmp_path, capsys):
        """A one-state model whose only row chains the state into itself is
        rejected when read, not reported later as a decoder invariant."""
        bad = tmp_path / "self.model"
        bad.write_text("\n".join([
            "format: v1", "kind: model", "Q: 1", "F: 6", "d_max: 3",
            "channels: left:RGB", "pi 1", "trans 0 1", "dur 0 2 1",
            "emit left:RGB 0 " + " ".join(["0.5"] * 6),
        ]) + "\n")
        message = f"{bad}: diagonal must be structurally zero"
        with pytest.raises(FormatError, match="^" + re.escape(message) + "$"):
            fileio.read_model(bad)
        capsys.readouterr()
        assert main(["decode", "--model", str(bad),
                     "--stream", str(workdir / "s1.stream")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSizeHeaders:
    """A size header far beyond the file's records is a one-line error
    naming the file, raised before anything of that size is allocated."""

    def test_stream_T_beyond_tick_lines(self, workdir, tmp_path, capsys):
        lines = (workdir / "s1.stream").read_text().splitlines()
        k = lines.index("T: 120")
        lines[k] = "T: 100000000000"
        bad = tmp_path / "huge.stream"
        bad.write_text("\n".join(lines[: k + 4]) + "\n")
        message = f"{bad}: 1 ticks for T=100000000000"
        with pytest.raises(FormatError, match="^" + re.escape(message) + "$"):
            fileio.read_stream(bad)
        capsys.readouterr()
        rc = main(["decode", "--model", str(workdir / "fit.model"),
                   "--stream", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "T, F, ticks, longest",
        [(1, 10**12, ["tick 1 10 0.5"], 13),
         (2, 10**9, ["tick 1 00", "tick 2 00"], 9)],
        ids=["one-tick-with-values", "no-channel-available"],
    )
    def test_stream_F_beyond_tick_lines(self, tmp_path, T, F, ticks, longest):
        """X for these headers would take 14.6 TiB or 29.8 GiB, so keyframes
        runs in a child under a 2 GiB address-space cap."""
        bad = tmp_path / "wide.stream"
        bad.write_text("\n".join(["format: v1", "kind: stream", f"T: {T}", f"F: {F}",
                                  "channels: left:RGB center:RGB", *ticks]) + "\n")
        message = (f"{bad}:4: F={F} values fit on no tick line, "
                   f"the longest has {longest} characters")
        proc = run_cli_limited("keyframes", "--stream", bad)
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")

    @pytest.mark.parametrize(
        "T, F", [(100_000, 100_000), (1_000, 150_000)], ids=["values", "tick-chunk"]
    )
    def test_sparse_stream_beyond_memory(self, tmp_path, T, F):
        """One tick holds all F values and the rest none, so the file is
        small, while its (1, T, F) values would take 74.5 or 1.1 GiB: the
        first fails at the values array, the second at a chunk of tick
        rows.  keyframes runs in a child under a 2 GiB address-space cap."""
        bad = tmp_path / "sparse.stream"
        bad.write_text("\n".join([
            "format: v1", "kind: stream", f"T: {T}", f"F: {F}", "channels: left:RGB",
            "tick 1 1 " + " ".join(["0"] * F), *(f"tick {t} 0" for t in range(2, T + 1)),
        ]) + "\n")
        proc = run_cli_limited("keyframes", "--stream", bad)
        assert (proc.returncode, proc.stderr) == (
            1, f"error: {bad}: 1 channel(s) x T={T} x F={F} values do not fit in memory\n"
        )

    def test_model_Q_beyond_records(self, workdir, tmp_path, capsys):
        text = (workdir / "fit.model").read_text()
        bad = tmp_path / "huge.model"
        bad.write_text(re.sub(r"(?m)^Q: \d+$", "Q: 10000000", text))
        with pytest.raises(FormatError, match="^" + re.escape(f"{bad}: ")):
            fileio.read_model(bad)
        capsys.readouterr()
        rc = main(["decode", "--model", str(bad),
                   "--stream", str(workdir / "s1.stream")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_model_d_max_beyond_the_limit(self, workdir, tmp_path):
        """A (Q, d_max + 1) duration table for this d_max would take 176 TB,
        so decode runs in a child under a 2 GiB address-space cap."""
        text = (workdir / "fit.model").read_text()
        bad = tmp_path / "huge.model"
        bad.write_text(re.sub(r"(?m)^d_max: \d+$", "d_max: 1000000000000", text))
        message = f"{bad}: d_max 1000000000000 exceeds the limit {D_MAX_LIMIT}"
        with pytest.raises(FormatError, match="^" + re.escape(message) + "$"):
            fileio.read_model(bad)
        proc = run_cli_limited("decode", "--model", bad, "--stream", workdir / "s1.stream")
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")


class TestSceneRunBeyondT:
    """A scene run past tick T is rejected on its own line, before a
    per-tick scene list of the run's length is built."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "huge.truth"
        path.write_text(
            "format: v1\nkind: truth\nT: 4\nQ: 1\n"
            "state 0 solU BC\nsegment 1 4 0\nscene 1 100000000000 BC\n"
        )
        return path

    def message(self, bad):
        return f"{bad}:7: malformed record: scene runs must tile 1..T, got 1 100000000000"

    def test_read_truth(self, bad):
        with pytest.raises(FormatError, match="^" + re.escape(self.message(bad)) + "$"):
            fileio.read_truth(bad)

    def test_evaluate(self, bad, tmp_path, capsys):
        decoded = tmp_path / "a.decoded"
        fileio.write_decoded(Segmentation((Segment(1, 4, 0),), 4), 0.0, decoded)
        rc = main(["evaluate", "--truth", str(bad), "--decoded", str(decoded)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {self.message(bad)}\n"


class TestHugeConsistentTruth:
    """A consistent truth of 10**11 ticks is scored run by run, so evaluate
    fits in a 2 GiB address space."""

    T = 100_000_000_000

    def evaluate(self, tmp_path, flag, path):
        truth = tmp_path / "huge.truth"
        truth.write_text(
            f"format: v1\nkind: truth\nT: {self.T}\nQ: 1\n"
            f"state 0 solU BC\nsegment 1 {self.T} 0\nscene 1 {self.T} BC\n"
        )
        proc = run_cli_limited("evaluate", "--truth", truth, flag, path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[0]

    def test_evaluate_under_2_gib(self, tmp_path):
        T = self.T
        decoded = tmp_path / "huge.decoded"
        fileio.write_decoded(Segmentation((Segment(1, T, 0),), T), 0.0, decoded)
        assert self.evaluate(tmp_path, "--decoded", decoded) == "frame_accuracy  1.000000"

    def test_history_under_2_gib(self, tmp_path):
        T = self.T
        history = tmp_path / "huge.history"
        record = HistoryRecord(1, T, PL.SOLDIER_UP, SceneCondition.BC, 1.0)
        fileio.write_history([record], history,
                             {"sample_every": 1, "window": T, "consistency": 0.8})
        assert self.evaluate(tmp_path, "--history", history) == (
            "window_detection_rate  1.000000"
        )


class TestStrictDecodedParsing:
    """A record write_decoded does not write is a one-line error naming the
    file and line, with exit code 1."""

    TRUTH = (
        "format: v1\nkind: truth\nT: 4\nQ: 2\nstate 0 solU BC\nstate 1 fetR BC\n"
        "segment 1 2 0\nsegment 3 2 1\nscene 1 4 BC\n"
    )

    @pytest.mark.parametrize(
        "records, line",
        [
            (["segment 1 2 0 solU BC extra fields", "segment 3 2 1 fetR BC"], 5),
            (["segment 1 2 0 solU BC", "garbage here", "segment 3 2 1 fetR BC"], 6),
            (["segment 1 2 0 solU BC", "segment 3 2 -1 - -"], 6),
        ],
        ids=["extra-fields", "unexpected-record", "negative-state"],
    )
    def test_bad_record(self, tmp_path, capsys, records, line):
        bad = tmp_path / "bad.decoded"
        bad.write_text("\n".join(["format: v1", "kind: decoded", "T: 4",
                                  "log_prob: -1.5", *records]) + "\n")
        with pytest.raises(FormatError, match="^" + re.escape(f"{bad}:{line}: ")):
            fileio.read_decoded(bad)
        truth = tmp_path / "a.truth"
        truth.write_text(self.TRUTH)
        capsys.readouterr()
        assert main(["evaluate", "--truth", str(truth), "--decoded", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: ")
        assert err.count("\n") == 1


class TestStrictResultRecords:
    """A history, transitions or decoded file whose records write_history,
    write_transition or write_decoded could not have written is a one-line
    error naming the file and line, with exit code 1."""

    TRUTH = (
        "format: v1\nkind: truth\nT: 15\nQ: 1\nstate 0 solU BC\n"
        "segment 1 15 0\nscene 1 15 BC\ntransition solU fetR left\n"
    )
    #: format, kind and three parameters: records on lines 6 and 7
    HISTORY = ["format: v1", "kind: history", "sample_every: 1", "window: 10",
               "consistency: 0.8", "record 1 10 1 solU BC 1", "record 11 5 1 solU BC 1"]

    def check(self, tmp_path, capsys, kind, lines, line):
        bad = tmp_path / f"bad.{kind}"
        bad.write_text("\n".join(lines) + "\n")
        read = {"history": fileio.read_history, "transitions": fileio.read_transitions,
                "decoded": fileio.read_decoded}[kind]
        with pytest.raises(FormatError, match="^" + re.escape(f"{bad}:{line}: ")):
            read(bad)
        truth = tmp_path / "a.truth"
        truth.write_text(self.TRUTH)
        capsys.readouterr()
        assert main(["evaluate", "--truth", str(truth), f"--{kind}", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: ")
        assert err.count("\n") == 1

    def test_valid_files_are_scored(self, tmp_path, capsys):
        history, transitions = tmp_path / "a.history", tmp_path / "a.transition"
        history.write_text("\n".join(self.HISTORY) + "\n")
        transitions.write_text("format: v1\nkind: transition\n"
                               "transition solU fetR left -12.5 5\n")
        truth = tmp_path / "a.truth"
        truth.write_text(self.TRUTH)
        assert main(["evaluate", "--truth", str(truth), "--history", str(history),
                     "--transitions", str(transitions)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "window_detection_rate  1.000000", "transition_accuracy    1.000000"
        ]

    @pytest.mark.parametrize(
        "record, line",
        [("record 1 10 1 solU BC nan extra", 6),
         ("record -5 0 99 fetR - inf", 6),
         ("record 11 5 1 solU BC 1 extra", 7),
         ("record 12 5 1 solU BC 1", 7),
         ("record 11 0 1 solU BC 1", 7),
         ("record 11 11 1 solU BC 1", 7),
         ("record 11 5 -1 solU BC 1", 7),
         ("record 11 5 1 solU BC nan", 7),
         ("record 11 5 1 solU BC inf", 7),
         ("record 11 5 1 solU BC 1.5", 7)],
        ids=["extra-field-and-nan", "negative-start", "extra-field", "wrong-start",
             "zero-length", "longer-than-window", "wrong-symbol", "nan-confidence",
             "inf-confidence", "confidence-above-1"],
    )
    def test_bad_history_record(self, tmp_path, capsys, record, line):
        lines = list(self.HISTORY)
        lines[line - 1] = record
        self.check(tmp_path, capsys, "history", lines, line)

    @pytest.mark.parametrize(
        "record",
        ["transition solU fetR left nan -1 junk",
         "transition solU fetR left -12.5 5 junk",
         "transition solU fetR left nan 5",
         "transition solU fetR left inf 5",
         "transition solU fetR left -inf 5",
         "transition solU fetR left -12.5 0",
         "transition solU fetR left -12.5 -1"],
        ids=["nan-and-count-and-extra", "extra-field", "nan-log-prob", "inf-log-prob",
             "minus-inf-log-prob", "zero-pseudo-poses", "negative-pseudo-poses"],
    )
    def test_bad_transition_record(self, tmp_path, capsys, record):
        self.check(tmp_path, capsys, "transitions",
                   ["format: v1", "kind: transition", record], 3)

    @pytest.mark.parametrize("log_prob", ["nan", "inf", "-inf"])
    def test_decoded_log_prob_must_be_finite(self, tmp_path, capsys, log_prob):
        self.check(tmp_path, capsys, "decoded",
                   ["format: v1", "kind: decoded", "T: 15", f"log_prob: {log_prob}",
                    "segment 1 15 0 solU BC"], 4)


class TestMissingFile:
    def test_missing_input_is_one_line_error(self, workdir, tmp_path, capsys):
        missing = tmp_path / "missing.stream"
        rc = main(["decode", "--model", str(workdir / "fit.model"),
                   "--stream", str(missing)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {missing}: No such file or directory\n"

"""Bernoulli channel emissions: fitting, fusion, and missing-channel rules."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posehsmm.emission import (
    MEAN_CLAMP,
    ChannelEmissionModel,
    ChannelId,
    FeatureFrame,
    FeatureStream,
    binarize_stream,
    fit_channel_emissions,
    log_emission_matrix,
)
from posehsmm.errors import (
    BadArgument,
    ChannelAbsent,
    EmptySequence,
    LabelMismatch,
)
from posehsmm.states import encode_segments
from reference_emission import NoObservation, emission_log_likelihood

RGB = ChannelId.parse("left:RGB")
DEPTH = ChannelId.parse("center:Depth")
MASK = ChannelId.parse("right:Mask")
ALL_CHANNELS = [
    ChannelId.parse(f"{view}:{modality}")
    for view in ("left", "center", "right")
    for modality in ("RGB", "Depth", "Mask")
]


def two_temporary_emission(stream, models, Q):
    """``log_emission_matrix`` as it was before it summed in place: both
    products and their sum are separate temporaries."""
    E = np.zeros((stream.T, Q))
    covered = np.zeros(stream.T, dtype=bool)
    for k, channel in enumerate(stream.channel_ids):
        rows = np.flatnonzero(stream.mask[k])
        if channel not in models or rows.size == 0:
            continue
        X = stream.X[k, rows]
        means = models[channel].means
        E[rows] += X @ np.log(means).T + (1.0 - X) @ np.log1p(-means).T
        covered[rows] = True
    E[~covered] = stream.F * np.log(0.5)
    return E


def stream_from(rows, channel=RGB, masks=None):
    x = np.asarray(rows, dtype=float)
    avail = None if masks is None else {channel: np.asarray(masks, dtype=bool)}
    return FeatureStream.from_arrays({channel: x}, avail)


class TestChannelId:
    def test_parse_round_trip(self):
        for text in ("left:RGB", "center:Depth", "right:Mask"):
            assert str(ChannelId.parse(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            ChannelId.parse("left-RGB")
        with pytest.raises(ValueError):
            ChannelId.parse("top:RGB")

    def test_order_is_view_then_modality_value(self):
        want = sorted(ALL_CHANNELS, key=lambda c: (c.view.value, c.modality.value))
        assert sorted(ALL_CHANNELS[::-1]) == want == sorted(ALL_CHANNELS, key=str)
        assert [str(c) for c in want[:3]] == ["center:Depth", "center:Mask", "center:RGB"]
        assert RGB < MASK and not MASK < RGB and not RGB < RGB


class TestStreamConstruction:
    def test_empty_stream_rejected(self):
        with pytest.raises(EmptySequence):
            FeatureStream.from_arrays({RGB: np.zeros((0, 3))})

    @pytest.mark.parametrize("value", [math.nan, -0.5, 1.5, math.inf])
    def test_available_features_outside_unit_interval_rejected(self, value):
        with pytest.raises(BadArgument, match=r"in \[0, 1\]"):
            stream_from([[0.5], [value]])
        # an unavailable tick's value is never read
        assert stream_from([[0.5], [value]], masks=[True, False]).X[0, 1, 0] == 0.0

    @pytest.mark.parametrize("value", [math.nan, -0.5, 1.5])
    def test_emission_means_outside_unit_interval_rejected(self, value):
        with pytest.raises(BadArgument, match=r"in \[0, 1\]"):
            ChannelEmissionModel(RGB, np.array([[0.5], [value]]))

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError):
            FeatureStream(np.zeros((1, 4, 2)), np.ones((1, 3), dtype=bool), (RGB,))

    def test_unavailable_values_are_zeroed(self):
        s = stream_from([[0.2, 0.7], [0.5, 0.49]], masks=[True, False])
        assert s.X[0].tolist() == [[0.2, 0.7], [0.0, 0.0]]
        assert s.frames[1].available == frozenset()
        with pytest.raises(ValueError):
            s.X[0, 0, 0] = 1.0

    def test_binarize(self):
        s = stream_from([[0.2, 0.7], [0.5, 0.49]])
        b = binarize_stream(s)
        assert b.frames[0].vectors[RGB].tolist() == [0.0, 1.0]
        assert b.frames[1].vectors[RGB].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "vectors, available, param",
        [({RGB: np.zeros((3, 2)), DEPTH: np.zeros((4, 2))}, None, None),
         ({RGB: [["0.5", "high"]]}, None, None),
         ({RGB: np.zeros((3, 2)), DEPTH: np.zeros((3, 2))}, {RGB: np.ones(3, bool)},
          "available"),
         ({}, None, None)],
        ids=["ragged-channels", "text-values", "missing-available", "no-channel"],
    )
    def test_unconvertible_input_is_bad_argument(self, vectors, available, param):
        with pytest.raises(BadArgument) as exc:
            FeatureStream.from_arrays(vectors, available)
        assert exc.value.param == param

    @settings(max_examples=200, deadline=None)
    @given(
        C=st.integers(1, 4), T=st.integers(1, 50), F=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_copy_keeps_the_stacked_bits(self, C, T, F, seed):
        """Both ways into a stream give the bytes of stacking the channels
        and then zeroing unavailable values with ``np.where``, keep -0.0
        where a channel is available, and share no memory with the input."""
        rng = np.random.default_rng(seed)
        ids = sorted(rng.choice(ALL_CHANNELS, C, replace=False).tolist())
        mask = rng.random((C, T)) < 0.6
        X = rng.random((C, T, F))
        X[rng.random((C, T, F)) < 0.2] = -0.0
        hidden = rng.choice([math.nan, -0.0, -2.5, 1.5, math.inf], (C, T, F))
        X = np.where(mask[..., None], X, hidden)
        rows = [X[k] for k in range(C)]
        want_X = np.where(mask[..., None], np.stack(rows), 0.0)
        want_mask = np.stack([m.astype(bool) for m in mask])
        order = rng.permutation(C)
        built = [
            FeatureStream.from_arrays({ids[k]: rows[k] for k in order},
                                      {ids[k]: mask[k] for k in order}),
            FeatureStream(X, mask, tuple(ids)),
            FeatureStream(rows, list(mask), tuple(ids)),
        ]
        for stream in built:
            assert stream.X.tobytes() == want_X.tobytes()
            assert stream.mask.tobytes() == want_mask.tobytes()
            assert not (stream.X.flags.writeable or stream.mask.flags.writeable)
            assert not np.shares_memory(stream.X, X)
            assert not np.shares_memory(stream.mask, mask)


def runs(*label_lists):
    return [encode_segments(labels) for labels in label_lists]


class TestFitting:
    def test_two_state_worked_example(self):
        # state 0 rows average to (0.5, 1.0); state 1 sees one row
        s = stream_from([[1, 1], [0, 1], [1, 0]])
        model = fit_channel_emissions([s], runs([0, 0, 1]), RGB, 2)
        assert model.means[0].tolist() == pytest.approx([0.5, 1.0 - MEAN_CLAMP])
        assert model.means[1].tolist() == pytest.approx([1.0 - MEAN_CLAMP, MEAN_CLAMP])

    def test_unavailable_ticks_excluded(self):
        s = stream_from([[1.0], [0.0], [0.0]], masks=[True, False, True])
        model = fit_channel_emissions([s], runs([0, 0, 0]), RGB, 1)
        assert model.means[0, 0] == pytest.approx(0.5)

    def test_unobserved_state_falls_back_to_half(self):
        s = stream_from([[1.0]])
        model = fit_channel_emissions([s], runs([0]), RGB, 3)
        assert model.means[1].tolist() == [0.5]
        assert model.means[2].tolist() == [0.5]

    def test_never_available_channel_raises(self):
        s = stream_from([[1.0], [0.0]], masks=[False, False])
        with pytest.raises(ChannelAbsent):
            fit_channel_emissions([s], runs([0, 0]), RGB, 1)
        s = FeatureStream.from_arrays({DEPTH: np.zeros((2, 1))})
        with pytest.raises(ChannelAbsent):
            fit_channel_emissions([s], runs([0, 0]), RGB, 1)

    def test_pooled_streams_match_one_long_stream(self):
        rng = np.random.default_rng(5)
        x = rng.random((30, 3))
        avail = rng.random(30) < 0.7
        labels = rng.integers(0, 4, 30).tolist()
        whole = stream_from(x, masks=avail)
        parts = [stream_from(x[a:b], masks=avail[a:b]) for a, b in ((0, 7), (7, 30))]
        pooled = fit_channel_emissions(parts, runs(labels[:7], labels[7:]), RGB, 4)
        single = fit_channel_emissions([whole], runs(labels), RGB, 4)
        assert pooled.means.tobytes() == single.means.tobytes()
        with pytest.raises(LabelMismatch):
            fit_channel_emissions(parts, runs(labels), RGB, 4)

    def test_label_count_mismatch(self):
        s = stream_from([[1.0], [0.0]])
        with pytest.raises(LabelMismatch):
            fit_channel_emissions([s], runs([0]), RGB, 1)

    @pytest.mark.parametrize(
        "segmentation",
        [encode_segments([0, -1]), encode_segments([0, 2])],
        ids=["negative", "beyond-Q"],
    )
    def test_label_outside_states_names_label_lists(self, segmentation):
        # the check covers ticks where the channel is unavailable too
        s = stream_from([[1.0], [0.0]], masks=[True, False])
        with pytest.raises(BadArgument) as exc:
            fit_channel_emissions([s], [segmentation], RGB, 2)
        assert exc.value.param == "segmentations"

    def test_means_clamped_away_from_boundary(self):
        s = stream_from([[1.0], [1.0]])
        model = fit_channel_emissions([s], runs([0, 0]), RGB, 1)
        assert model.means[0, 0] == 1.0 - MEAN_CLAMP


class TestLogLikelihood:
    def test_single_channel_hand_value(self):
        mu = np.array([[0.8, 0.3]])
        model = {RGB: ChannelEmissionModel(RGB, mu)}
        frame = FeatureFrame(1, {RGB: np.array([1.0, 0.0])}, frozenset({RGB}))
        expected = math.log(0.8) + math.log(0.7)
        assert emission_log_likelihood(frame, 0, model) == pytest.approx(expected)

    def test_channels_fuse_additively(self):
        m1 = {RGB: ChannelEmissionModel(RGB, np.array([[0.9]]))}
        m2 = {DEPTH: ChannelEmissionModel(DEPTH, np.array([[0.2]]))}
        both = {**m1, **m2}
        frame = FeatureFrame(
            1,
            {RGB: np.array([1.0]), DEPTH: np.array([0.0])},
            frozenset({RGB, DEPTH}),
        )
        only_rgb = FeatureFrame(1, {RGB: np.array([1.0])}, frozenset({RGB}))
        only_depth = FeatureFrame(1, {DEPTH: np.array([0.0])}, frozenset({DEPTH}))
        assert emission_log_likelihood(frame, 0, both) == pytest.approx(
            emission_log_likelihood(only_rgb, 0, m1)
            + emission_log_likelihood(only_depth, 0, m2)
        )

    def test_missing_channel_marginalized_by_omission(self):
        both = {
            RGB: ChannelEmissionModel(RGB, np.array([[0.9]])),
            DEPTH: ChannelEmissionModel(DEPTH, np.array([[0.2]])),
        }
        frame = FeatureFrame(1, {RGB: np.array([1.0])}, frozenset({RGB}))
        assert emission_log_likelihood(frame, 0, both) == pytest.approx(math.log(0.9))

    def test_no_scoreable_channel_raises(self):
        models = {RGB: ChannelEmissionModel(RGB, np.array([[0.9]]))}
        frame = FeatureFrame(1, {DEPTH: np.array([1.0])}, frozenset({DEPTH}))
        with pytest.raises(NoObservation):
            emission_log_likelihood(frame, 0, models)

    def test_binary_likelihoods_normalize(self):
        # sum over all binary feature vectors of one channel equals 1
        rng = np.random.default_rng(3)
        F = 4
        model = {RGB: ChannelEmissionModel(RGB, rng.uniform(0.1, 0.9, (1, F)))}
        total = 0.0
        for bits in itertools.product((0.0, 1.0), repeat=F):
            frame = FeatureFrame(1, {RGB: np.array(bits)}, frozenset({RGB}))
            total += math.exp(emission_log_likelihood(frame, 0, model))
        assert total == pytest.approx(1.0, rel=1e-12)


class TestLogEmissionMatrix:
    def test_matches_per_frame_scores(self):
        rng = np.random.default_rng(7)
        Q, F, T = 3, 2, 6
        models = {
            RGB: ChannelEmissionModel(RGB, rng.uniform(0.1, 0.9, (Q, F))),
            DEPTH: ChannelEmissionModel(DEPTH, rng.uniform(0.1, 0.9, (Q, F))),
        }
        x1 = (rng.random((T, F)) < 0.5).astype(float)
        x2 = (rng.random((T, F)) < 0.5).astype(float)
        masks = {
            RGB: np.array([1, 1, 0, 1, 1, 1], dtype=bool),
            DEPTH: np.array([1, 0, 0, 1, 1, 1], dtype=bool),
        }
        stream = FeatureStream.from_arrays({RGB: x1, DEPTH: x2}, masks)
        E = log_emission_matrix(stream, models, Q)
        for t, frame in enumerate(stream.frames):
            for i in range(Q):
                if frame.available:
                    assert E[t, i] == pytest.approx(
                        emission_log_likelihood(frame, i, models), rel=1e-12
                    )

    def test_uncovered_tick_gets_uniform_surrogate(self):
        models = {RGB: ChannelEmissionModel(RGB, np.array([[0.9, 0.9]]))}
        stream = stream_from([[1.0, 1.0], [1.0, 1.0]], masks=[True, False])
        E = log_emission_matrix(stream, models, 1)
        assert E[1, 0] == pytest.approx(2 * math.log(0.5))

    def test_real_valued_features_are_cross_entropy(self):
        models = {RGB: ChannelEmissionModel(RGB, np.array([[0.8]]))}
        stream = stream_from([[0.25]])
        E = log_emission_matrix(stream, models, 1)
        assert E[0, 0] == pytest.approx(0.25 * math.log(0.8) + 0.75 * math.log(0.2))

    @settings(max_examples=150, deadline=None)
    @given(
        T=st.integers(1, 12),
        F=st.integers(1, 4),
        Q=st.integers(1, 4),
        stream_channels=st.lists(
            st.sampled_from(ALL_CHANNELS), min_size=1, max_size=4, unique=True
        ),
        model_channels=st.lists(
            st.sampled_from(ALL_CHANNELS), min_size=1, max_size=4, unique=True
        ),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_matrix_matches_oracle_under_random_masks(
        self, T, F, Q, stream_channels, model_channels, density, seed
    ):
        # model channels are drawn independently of the stream's, so some
        # stream channels go unmodelled and some frames have no scoreable
        # channel at all; those must get the flat F * log(1/2) surrogate
        rng = np.random.default_rng(seed)
        stream = FeatureStream.from_arrays(
            {c: rng.random((T, F)) for c in stream_channels},
            {c: rng.random(T) < density for c in stream_channels},
        )
        models = {
            c: ChannelEmissionModel(c, rng.uniform(0.01, 0.99, (Q, F)))
            for c in model_channels
        }
        E = log_emission_matrix(stream, models, Q)
        assert E.tobytes() == two_temporary_emission(stream, models, Q).tobytes()
        for t, frame in enumerate(stream.frames):
            if frame.available & set(models):
                for i in range(Q):
                    assert E[t, i] == pytest.approx(
                        emission_log_likelihood(frame, i, models), rel=1e-12
                    )
            else:
                assert E[t].tolist() == [F * math.log(0.5)] * Q

    def test_one_day_peak(self):
        """T = 86,400 (one day at 1 Hz), Q = 22, F = 6, the channel available
        at 70% of ticks: the matrix sums its two products in place, so above
        its inputs it peaks at E and three (rows, Q) arrays.  The
        two-temporary sum peaked at 51.1 MiB, above this bound."""
        rng = np.random.default_rng(0)
        T, Q, F = 86_400, 22, 6
        stream = FeatureStream.from_arrays(
            {RGB: rng.random((T, F))}, {RGB: rng.random(T) < 0.7}
        )
        models = {RGB: ChannelEmissionModel(RGB, rng.uniform(0.05, 0.95, (Q, F)))}
        rows = int(stream.mask.sum())
        tracemalloc.start()
        try:
            E = log_emission_matrix(stream, models, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert E.tobytes() == two_temporary_emission(stream, models, Q).tobytes()
        assert peak < (T + 3 * rows) * Q * 8

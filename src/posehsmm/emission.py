"""Multimodal multiview observations and per-state Bernoulli emissions.

A recording exposes up to nine channels (three camera views times three
modalities).  Each channel delivers an F-dimensional feature vector per tick
with values in [0, 1]; channels drop in and out freely.  Emissions are
per-state Bernoulli means fused across available channels by summing log
likelihoods (conditional independence given the state), so a missing channel
is marginalized simply by omission.  Real-valued features are scored with the
same cross-entropy form, which is the natural generalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadArgument,
    ChannelAbsent,
    EmptySequence,
    LabelMismatch,
)
from .states import Segmentation, segment_runs, state_table

#: Clamp for fitted Bernoulli means; keeps log terms finite.
MEAN_CLAMP = 1e-6


class View(Enum):
    LEFT = "left"
    CENTER = "center"
    RIGHT = "right"


class Modality(Enum):
    RGB = "RGB"
    DEPTH = "Depth"
    MASK = "Mask"


@dataclass(frozen=True)
class ChannelId:
    """One (camera view, modality) pair, e.g. the left-view depth stream.

    Channels order by view value, then modality value.
    """

    view: View
    modality: Modality

    def __str__(self) -> str:
        return f"{self.view.value}:{self.modality.value}"

    def __lt__(self, other: "ChannelId") -> bool:
        return (self.view.value, self.modality.value) < (
            other.view.value,
            other.modality.value,
        )

    @classmethod
    def parse(cls, text: str) -> "ChannelId":
        view, _, modality = text.partition(":")
        return cls(View(view), Modality(modality))


@dataclass(frozen=True)
class FeatureFrame:
    """Observations at one tick: per-channel vectors plus availability flags."""

    t: int
    vectors: Mapping[ChannelId, np.ndarray]
    available: frozenset[ChannelId]


@dataclass(frozen=True, eq=False)
class FeatureStream:
    """A fixed-rate observation array: C channels x T ticks x F features.

    ``X[k, t]`` is channel ``channel_ids[k]``'s vector at tick t + 1 and
    ``mask[k, t]`` says whether that channel was available then.  Each is
    one read-only copy of its input (per-channel rows are stacked), with
    zeros under a False mask; an input that does not convert raises
    ``BadArgument``.  Channels are sorted by (view, modality).
    """

    X: np.ndarray
    mask: np.ndarray
    channel_ids: tuple[ChannelId, ...]

    def __post_init__(self):
        try:
            X, mask = np.array(self.X, dtype=float), np.array(self.mask, dtype=bool)
        except (TypeError, ValueError) as exc:
            raise BadArgument(f"stream values and mask must be numeric arrays: {exc}") from None
        ids = self.channel_ids
        if X.ndim != 3 or mask.shape != X.shape[:2] or len(ids) != X.shape[0]:
            raise BadArgument(f"X {X.shape}, mask {mask.shape}, {len(ids)} channels")
        if list(ids) != sorted(set(ids)):
            raise BadArgument("stream channels must be unique and sorted")
        if X.shape[1] == 0:
            raise EmptySequence("feature stream has no frames")
        X[~mask] = 0.0
        # NaN fails the comparison too
        if not np.all((X >= 0.0) & (X <= 1.0)):
            raise BadArgument("available features must lie in [0, 1]")
        X.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "mask", mask)

    @property
    def T(self) -> int:
        return self.X.shape[1]

    @property
    def F(self) -> int:
        return self.X.shape[2]

    @property
    def channels(self) -> list[ChannelId]:
        """Channels available at one tick at least, in channel order."""
        ever = self.mask.any(axis=1)
        return [c for c, seen in zip(self.channel_ids, ever) if seen]

    def channel_index(self, channel: ChannelId) -> int | None:
        """Row of ``channel`` in X and mask, or None if the stream lacks it."""
        return self.channel_ids.index(channel) if channel in self.channel_ids else None

    @cached_property
    def frames(self) -> tuple[FeatureFrame, ...]:
        """Per-tick view of the stream, one ``FeatureFrame`` per tick."""
        frames = []
        ids = self.channel_ids
        for t in range(self.T):
            vecs = {c: self.X[k, t] for k, c in enumerate(ids) if self.mask[k, t]}
            frames.append(FeatureFrame(t + 1, vecs, frozenset(vecs)))
        return tuple(frames)

    @classmethod
    def from_arrays(
        cls,
        vectors: Mapping[ChannelId, np.ndarray],
        available: Mapping[ChannelId, np.ndarray] | None = None,
    ) -> "FeatureStream":
        """Build a stream from (T, F) arrays, one per channel.

        ``available`` holds a length-T boolean mask per channel, else
        ``BadArgument``; when None, every channel is always available.
        """
        channels = tuple(sorted(vectors))
        if available is None:
            available = {c: np.ones(len(vectors[c]), dtype=bool) for c in channels}
        elif missing := [str(c) for c in channels if c not in available]:
            raise BadArgument(f"available has no mask for {', '.join(missing)}", "available")
        return cls([vectors[c] for c in channels], [available[c] for c in channels], channels)


def binarize_stream(stream: FeatureStream) -> FeatureStream:
    """Threshold every feature at 0.5; availability is untouched."""
    return FeatureStream(stream.X >= 0.5, stream.mask, stream.channel_ids)


@dataclass
class ChannelEmissionModel:
    """Per-state Bernoulli means for a single channel: a (Q, F) matrix."""

    channel: ChannelId
    means: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2:
            raise BadArgument("means must be a (Q, F) matrix")
        # NaN fails the comparison too
        if not np.all((means >= 0.0) & (means <= 1.0)):
            raise BadArgument("emission means must lie in [0, 1]")
        self.means = np.clip(means, MEAN_CLAMP, 1.0 - MEAN_CLAMP)

    @property
    def n_states(self) -> int:
        return self.means.shape[0]

    @property
    def F(self) -> int:
        return self.means.shape[1]


def fit_channel_emissions(
    streams: Sequence[FeatureStream],
    segmentations: Sequence[Segmentation],
    channel: ChannelId,
    n_states: int,
) -> ChannelEmissionModel:
    """Maximum-likelihood Bernoulli means for one channel.

    mu[i] is the per-feature average of this channel's vectors over ticks
    in a run of state i; ticks where the channel is unavailable are excluded
    from both numerator and denominator.  States with no observation fall
    back to the uninformative 0.5 row.  Takes a list of streams of one
    feature width and one segmentation of the same T per stream; the sums
    are pooled in stream order, tick by tick.  An item that is not a
    ``FeatureStream`` or a ``Segmentation``, a list that is not iterable,
    a run state outside [0, n_states), or an ``n_states`` that is no
    integer or sizes tables memory cannot hold, raises ``BadArgument``.
    """
    runs = segment_runs(segmentations, n_states, "segmentations")
    try:
        streams = list(streams)
    except TypeError:
        raise BadArgument(
            f"streams must be a list of FeatureStreams, got {type(streams).__name__}",
            "streams",
        ) from None
    if len(streams) != len(runs):
        raise LabelMismatch(f"{len(runs)} segmentations for {len(streams)} streams")
    for s, (_, durations) in zip(streams, runs):
        if not isinstance(s, FeatureStream):
            raise BadArgument(
                f"streams must hold FeatureStreams, got {type(s).__name__}", "streams"
            )
        if durations.sum() != s.T:
            raise LabelMismatch(f"segmentation covers {durations.sum()} ticks for {s.T} frames")
    widths = {s.F for s in streams}
    if len(widths) != 1:
        raise BadArgument(
            f"streams must share one feature width, got {sorted(widths)}", "streams"
        )
    (F,) = widths
    sums = state_table(n_states, F)
    counts = np.zeros(n_states)
    for s, (states, durations) in zip(streams, runs):
        k = s.channel_index(channel)
        if k is None:
            continue
        rows = s.mask[k]
        idx = np.repeat(states, durations)[rows]
        # np.add.at adds row by row in tick order, like a running sum
        np.add.at(sums, idx, s.X[k, rows])
        np.add.at(counts, idx, 1.0)
    if not counts.any():
        raise ChannelAbsent(f"{channel} is never available in this stream")
    means = np.full((n_states, F), 0.5)
    observed = counts > 0
    means[observed] = sums[observed] / counts[observed, None]
    return ChannelEmissionModel(channel, means)


def log_emission_matrix(
    stream: FeatureStream,
    models: Mapping[ChannelId, ChannelEmissionModel],
    n_states: int,
) -> np.ndarray:
    """(T, Q) fused emission log-likelihoods for a whole stream.

    Frames with no scoreable channel contribute the flat surrogate
    F * log(1/2) to every state, so they never sway the decoder but keep
    scores finite.  A modelled stream channel whose means are not
    (n_states, F) raises ``BadArgument``.
    """
    E = np.zeros((stream.T, n_states))
    covered = np.zeros(stream.T, dtype=bool)
    # stream channels are sorted, so channels add up in a fixed order
    for k, channel in enumerate(stream.channel_ids):
        if channel not in models:
            continue
        means = models[channel].means
        if means.shape != (n_states, stream.F):
            raise BadArgument(
                f"{channel} emission means have shape {means.shape}, expected "
                f"({n_states}, {stream.F})", "emissions"
            )
        rows = np.flatnonzero(stream.mask[k])
        if rows.size == 0:
            continue
        X = stream.X[k, rows]
        # summed in place: two (rows, Q) temporaries at a time, not four
        S = X @ np.log(means).T
        S += (1.0 - X) @ np.log1p(-means).T
        E[rows] += S
        covered[rows] = True
    E[~covered] = stream.F * np.log(0.5)
    return E

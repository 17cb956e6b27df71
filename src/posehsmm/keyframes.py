"""Keyframe selection: compress a motion clip to at most K representative frames.

Selection runs in three stages on Euclidean feature dissimilarity, always
normalized by sqrt(F) so channels and clips of different width are
comparable.  Stage 1 finds the channel with the strongest endpoint motion
and admits the first and last frames.  Stage 2 admits interior frames that
are simultaneously far from both endpoints, subject to a plateau ratio rule
and a minimum index gap.  Stage 3 fills in the motion peak between the
second and second-to-last admitted frames.  A clip whose endpoints look the
same on every channel is flagged static and keeps only its endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .emission import ChannelId, FeatureStream
from .errors import BadArgument, EmptySequence

#: Keyframe budget and Stage-1/2 threshold unless a caller sets them.
DEFAULT_K_MAX = 5
DEFAULT_THRESHOLD = 0.8


@dataclass(frozen=True)
class Keyframe:
    """One admitted frame: 1-based tick, the channel that scored it, and the
    dissimilarity score it was admitted with.  ``stage`` records which stage
    admitted it."""

    frame_index: int
    channel: ChannelId | None
    score: float
    stage: int


@dataclass(frozen=True)
class KeyframeSet:
    """Admitted keyframes in tick order plus the selection parameters.

    ``static`` marks clips whose endpoint dissimilarity never clears the
    threshold; such sets hold exactly the two endpoints.
    """

    frames: tuple[Keyframe, ...]
    k_max: int
    threshold: float
    static: bool = False

    @property
    def ticks(self) -> tuple[int, ...]:
        return tuple(kf.frame_index for kf in self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)


def _distances(X: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Euclidean distance over sqrt(F) of every (C, T, F) row to its
    channel's (C, F) reference; ``np.vecdot`` sums squares as
    ``np.linalg.norm`` does, so bit for bit."""
    D = X - ref[:, None, :]
    return np.sqrt(np.vecdot(D, D)) / math.sqrt(X.shape[2])


def _frame_scores(clip: FeatureStream, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Per frame, the best min-distance to frames ``a`` and ``b`` (0-based)
    over channels available in all three, and the row of the first channel
    reaching it.  A frame sharing no channel with both scores -1.
    """
    X, mask = clip.X, clip.mask
    d = np.minimum(_distances(X, X[:, a]), _distances(X, X[:, b]))
    d = np.where(mask & mask[:, a : a + 1] & mask[:, b : b + 1], d, -1.0)
    rows = d.argmax(axis=0)
    return d[rows, np.arange(clip.T)], rows


def check_keyframe_params(
    k_max, threshold, stage2_threshold, names=("k_max", "threshold", "stage2_threshold")
) -> None:
    """Raise ``BadArgument`` unless ``k_max`` is an integer >= 2, ``threshold``
    a finite number >= 0 and ``stage2_threshold`` None or a finite number
    >= 0; its message calls them by ``names`` (a caller's flags, say) and its
    ``param`` is the one that failed."""
    if not isinstance(k_max, Integral) or k_max < 2:
        raise BadArgument(f"{names[0]} must be an integer >= 2, got {k_max}", "k_max")
    # a None Stage-2 threshold takes the Stage-1 one; NaN fails the comparison
    ratio = threshold if stage2_threshold is None else stage2_threshold
    for param, name, value in (
        ("threshold", names[1], threshold), ("stage2_threshold", names[2], ratio)
    ):
        if not (isinstance(value, Real) and math.isfinite(value) and value >= 0.0):
            raise BadArgument(f"{name} must be a finite number >= 0, got {value}", param)


def check_clip(clip: FeatureStream, where: str | None = None) -> None:
    """Raise ``EmptySequence`` unless the clip has the two ticks its
    endpoints need; the message starts with ``where`` (a file, say) if given."""
    if clip.T < 2:
        prefix = f"{where}: " if where is not None else ""
        raise EmptySequence(f"{prefix}clip has {clip.T} frame(s); need at least 2")


def select_keyframes(
    clip: FeatureStream,
    k_max: int = DEFAULT_K_MAX,
    threshold: float = DEFAULT_THRESHOLD,
    stage2_threshold: float | None = None,
) -> KeyframeSet:
    """Pick 2..k_max keyframes from a clip.

    ``threshold`` gates Stage 1 (endpoint motion must exceed it) and, unless
    ``stage2_threshold`` overrides it, also sets the Stage-2 plateau ratio:
    interior candidates are admitted best-first while their score stays at or
    above ratio * best, at least ceil(T / k_max) ticks away from every frame
    admitted so far.  Deterministic: ties prefer the earlier frame and the
    channel-order-first channel.  Parameters ``check_keyframe_params``
    rejects raise ``BadArgument``.
    """
    check_keyframe_params(k_max, threshold, stage2_threshold)
    check_clip(clip)
    ratio = threshold if stage2_threshold is None else stage2_threshold
    channels = clip.channel_ids

    # Stage 1: strongest endpoint-motion channel.
    endpoint = _distances(clip.X[:, :1], clip.X[:, -1])[:, 0]
    endpoint = np.where(clip.mask[:, 0] & clip.mask[:, -1], endpoint, -1.0)
    k = int(endpoint.argmax())
    best_dis = float(endpoint[k])
    best_channel = channels[k] if best_dis >= 0.0 else None
    endpoint_score = max(best_dis, 0.0)
    endpoints = (
        Keyframe(1, best_channel, endpoint_score, 1),
        Keyframe(clip.T, best_channel, endpoint_score, 1),
    )
    if best_channel is None or best_dis <= threshold:
        return KeyframeSet(endpoints, k_max, threshold, static=True)

    admitted: list[Keyframe] = list(endpoints)

    # Stage 2: interior frames far from both endpoints.
    budget = max(0, k_max - 3)
    if budget > 0 and clip.T > 2:
        gap = math.ceil(clip.T / k_max)
        scores, rows = _frame_scores(clip, 0, clip.T - 1)
        candidates = [
            (float(scores[n - 1]), n, channels[rows[n - 1]])
            for n in range(2, clip.T)
            if scores[n - 1] >= 0.0
        ]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        if candidates:
            top = candidates[0][0]
            taken = 0
            for score, n, channel in candidates:
                if taken == budget:
                    break
                if score <= 0.0 or score < ratio * top:
                    break
                if min(abs(n - kf.frame_index) for kf in admitted) < gap:
                    continue
                admitted.append(Keyframe(n, channel, score, 2))
                taken += 1

    # Stage 3: motion peak between the second and second-to-last keyframes.
    admitted.sort(key=lambda kf: kf.frame_index)
    if len(admitted) < k_max:
        ticks = [kf.frame_index for kf in admitted]
        lo, hi = sorted((ticks[1], ticks[-2]))
        scores, rows = _frame_scores(clip, lo - 1, hi - 1)
        # eligible: ticks strictly between lo and hi, not yet admitted
        eligible = np.zeros(clip.T, dtype=bool)
        eligible[lo : hi - 1] = True
        eligible[[t - 1 for t in ticks]] = False
        best = np.where(eligible, scores, 0.0)
        t = int(best.argmax())
        if best[t] > 0.0:
            admitted.append(Keyframe(t + 1, channels[rows[t]], float(scores[t]), 3))
            admitted.sort(key=lambda kf: kf.frame_index)

    return KeyframeSet(tuple(admitted), k_max, threshold, static=False)


def keyframes_to_pseudo_pose_stream(
    clip: FeatureStream, keyframes: KeyframeSet
) -> FeatureStream:
    """Re-tick the selected frames 1..K, keeping every channel they carry."""
    rows = np.array(keyframes.ticks) - 1
    return FeatureStream(clip.X[:, rows], clip.mask[:, rows], clip.channel_ids)

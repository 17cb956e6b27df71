"""Per-tick history oracle: ``history_from_segments`` must match it.

The windowed summary as it was computed from one state index per tick:
every sampled tick is looked up in the per-tick list and counted by
``np.bincount``.  Tests expand a segmentation to one state per tick and
compare records and confidences bit for bit.
"""

from typing import Sequence

import numpy as np

from posehsmm.errors import BadArgument
from posehsmm.states import PoseLabel, StateSpace
from posehsmm.summarize import (
    DEFAULT_CONSISTENCY,
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_WINDOW,
    HistoryRecord,
    check_history_params,
)


def history_from_labels(
    state_indices: Sequence[int],
    space: StateSpace,
    sample_every: int = DEFAULT_SAMPLE_EVERY,
    window: int = DEFAULT_WINDOW,
    consistency: float = DEFAULT_CONSISTENCY,
) -> list[HistoryRecord]:
    """Windowed modal summary of a per-tick state sequence."""
    check_history_params(sample_every, window, consistency)
    T = len(state_indices)
    labels = np.asarray(state_indices) if T else np.zeros(0, dtype=int)
    if T and not (labels.dtype.kind in "iu" and labels.min() >= 0 and labels.max() < len(space)):
        raise BadArgument(f"state indices must be integers in 0..{len(space) - 1}")
    # a step or window past T makes the same history as one of T, and fits in int64
    sample_every, window = min(sample_every, max(T, 1)), min(window, max(T, 1))
    # value order, so the first of the modal counts is the tie-break winner
    poses = sorted({s.pose for s in space}, key=lambda p: p.value)
    scenes = sorted({s.scene for s in space} - {None}, key=lambda c: c.value)
    pose_of = np.array([poses.index(s.pose) for s in space])
    # scene-agnostic states count in a last column
    scene_of = np.array([len(scenes) if s.scene is None else scenes.index(s.scene)
                         for s in space])
    # sampled ticks 1, 1 + sample_every, ...; tick t lies in window (t - 1) // window
    sampled = labels[::sample_every]
    where = np.arange(0, T, sample_every) // window
    n_windows = -(-T // window)

    def counts(code, width):
        flat = np.bincount(where * width + code[sampled], minlength=n_windows * width)
        return flat.reshape(n_windows, width)

    pose_counts = counts(pose_of, len(poses))
    scene_counts = counts(scene_of, len(scenes) + 1)
    # the last column, read as no scene, is the mode only when no sampled
    # state has a scene
    scene_counts[:, -1] = scene_counts[:, :-1].sum(axis=1) == 0
    scenes.append(None)
    rows = zip(
        np.bincount(where, minlength=n_windows).tolist(),
        pose_counts.argmax(axis=1).tolist(),
        pose_counts.max(axis=1).tolist(),
        scene_counts.argmax(axis=1).tolist(),
    )
    records: list[HistoryRecord] = []
    for w, (n, pose, count, scene) in enumerate(rows):
        if not n:
            continue
        start = w * window + 1
        confidence = count / n
        label = poses[pose] if confidence >= consistency else PoseLabel.OTHER
        records.append(
            HistoryRecord(
                start, min(window, T - start + 1), label, scenes[scene], confidence
            )
        )
    return records

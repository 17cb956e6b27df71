"""Frozen per-tick simulator tails: the reference the run-built ones must match.

These are the original ends of ``sample_sequence`` and
``sample_transition_clip`` of ``posehsmm.simulate``, kept verbatim in
arithmetic.  A sequence expands its pose runs and scene runs to one pose,
one scene and one state label per tick, takes the template bits row by
row, and run-length encodes the labels with ``encode_segments``.  A clip
fills its ramp one tick at a time and encodes a per-tick label list.  Both
draw from the simulator's own generators in the same order, so tests
compare features, masks and segmentations bit for bit.
"""

import numpy as np

from posehsmm.emission import FeatureStream
from posehsmm.simulate import (
    GroundTruth,
    TransitionInfo,
    _observe,
    _pose_templates,
    _sample_pose_segments,
    _scene_track,
    _stream_arrays,
    _transition_anchors,
    build_generating_model,
)
from posehsmm.states import RotationDirection, encode_segments


def reference_sample_sequence(config):
    """One pose-sequence stream and its truth, built tick by tick."""
    T = config.t_target
    means, avail = _stream_arrays(config, T, "t_target")
    model, space = build_generating_model(config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    runs = [(config.poses[k], d) for k, d in _sample_pose_segments(config, rng)]
    scene_track = _scene_track(config, rng, T)
    scene_per_tick = [scene for _, n, scene in scene_track for _ in range(n)]
    pose_per_tick = [pose for pose, d in runs for _ in range(d)]
    labels = [
        space.index_of(pose, scene if config.scene_doubling else None)
        for pose, scene in zip(pose_per_tick, scene_per_tick)
    ]
    pose_index = {pose: k for k, pose in enumerate(config.poses)}
    bits = (_pose_templates(config) >= 0.5).astype(float)
    pose_rows = np.array([pose_index[p] for p in pose_per_tick])
    np.take(bits, pose_rows, axis=0, out=means)
    stream = FeatureStream.from_arrays(*_observe(config, means, avail, scene_track, rng))
    return stream, GroundTruth(encode_segments(labels), scene_track, model)


def reference_sample_transition_clip(from_pose, to_pose, direction, config):
    """One transition clip and its truth, its ramp filled tick by tick."""
    h = config.transition_hold
    g = config.transition_ramp
    T = 2 * h - 1 + 4 * g
    longer = "transition_hold" if 2 * h - 1 >= 4 * g else "transition_ramp"
    means, avail = _stream_arrays(config, T, longer)
    model, space = build_generating_model(config)
    templates = _pose_templates(config)
    anchors = _transition_anchors(config, templates, from_pose, to_pose, direction)
    pose_index = {pose: k for k, pose in enumerate(config.poses)}

    waypoints = [
        templates[pose_index[from_pose]],
        anchors[0],
        anchors[1],
        anchors[2],
        templates[pose_index[to_pose]],
    ]
    means[:h] = waypoints[0]
    for k in range(4):
        for step in range(1, g + 1):
            a = step / g
            means[h + k * g + step - 1] = (1.0 - a) * waypoints[k] + a * waypoints[k + 1]
    means[h + 4 * g :] = waypoints[4]
    anchor_ticks = (h + g, h + 2 * g, h + 3 * g)

    scene = config.base_scene
    scene_track = ((1, T, scene),)
    rng = np.random.default_rng(
        np.random.SeedSequence(
            (config.seed, 4, pose_index[from_pose], pose_index[to_pose],
             0 if direction is RotationDirection.LEFT else 1)
        )
    )
    observed = _observe(config, means, avail, scene_track, rng)
    avail[[0, -1]] = True
    stream = FeatureStream.from_arrays(*observed)

    mid = anchor_ticks[1]
    scene_value = scene if config.scene_doubling else None
    from_state = space.index_of(from_pose, scene_value)
    to_state = space.index_of(to_pose, scene_value)
    labels = [from_state] * mid + [to_state] * (T - mid)
    info = TransitionInfo(from_pose, to_pose, direction, anchor_ticks, len(anchors))
    return stream, GroundTruth(encode_segments(labels), scene_track, model, info)

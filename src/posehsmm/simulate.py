"""Synthetic bedside scenes: pose-sequence streams and transition clips.

Every pose gets a per-channel mean template drawn once from a model seed.
A pose-sequence stream's per-tick means are the binarized template bits of
its poses.  A transition clip's means interpolate the real-valued templates
through a short chain of planted pseudo-pose anchors, so the motion path is
smooth and the planted anchor ticks are recoverable by keyframe selection at
zero noise.
Both then pass one observation step, tick by tick under the tick's scene:
each value flips x -> 1 - x at the scene's noise rate, the dark-or-occluded
regime shrinks it toward 0.5 (contrast loss), and whole channels drop out at
the scene's dropout rate.

Two named presets fix the regime constants: ``bc-sim`` (flip noise 0.05, no
dropout) and ``do-sim`` (flip noise 0.18, channel dropout 0.45, halved
contrast).  Everything is reproducible from the two seeds in the config.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .emission import ChannelEmissionModel, ChannelId, FeatureStream, Modality, View
from .errors import BadArgument, PoseHsmmError, is_integer, is_number
from .inference import HsmmModel
from .states import (
    CANONICAL_POSES,
    D_MAX_LIMIT,
    INITIAL_POSE_PRIORS,
    MOCK_ICU_POSES,
    DurationModel,
    PoseLabel,
    RotationDirection,
    SceneCondition,
    Segment,
    Segmentation,
    StateSpace,
    build_initial_distribution,
)

#: Per-regime feature corruption constants.
REGIME_NOISE = {SceneCondition.BC: 0.05, SceneCondition.DO: 0.18}
REGIME_DROPOUT = {SceneCondition.BC: 0.0, SceneCondition.DO: 0.45}

#: Dark-or-occluded contrast: features shrink toward 0.5 by this factor.
DO_CONTRAST = 0.5

#: Cross-scene transition mass used when a scene switch is enabled.
SCENE_SWITCH_MASS = 0.02

DEFAULT_CHANNELS = (
    ChannelId(View.LEFT, Modality.RGB),
    ChannelId(View.CENTER, Modality.DEPTH),
    ChannelId(View.RIGHT, Modality.MASK),
)


def _per_scene(value, name) -> dict[SceneCondition, float]:
    """One float per scene from a number or a map of one number per scene;
    anything else is a ``BadArgument`` naming ``name``."""
    per_scene = value if isinstance(value, Mapping) else dict.fromkeys(SceneCondition, value)
    if set(per_scene) != set(SceneCondition) or not all(
        is_number(p) for p in per_scene.values()
    ):
        raise BadArgument(
            f"{name} must be a number or a map of one number per SceneCondition, "
            f"got {value!r}", name
        )
    return {s: float(per_scene[s]) for s in SceneCondition}


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one synthetic scenario.

    ``seed`` drives the sampled trajectory and noise; ``model_seed`` drives
    the pose templates and generating parameters, so several trajectories can
    share one underlying scene.  ``noise``/``dropout`` may be single floats
    (applied to both regimes) or per-scene maps.  A field of another kind or
    outside its domain raises ``BadArgument`` naming it: poses and channels
    are non-empty sequences of distinct ``PoseLabel`` and ``ChannelId``
    items, base_scene is a ``SceneCondition``, scene_doubling and
    scene_switch are bools, F, t_target, transition_hold and transition_ramp
    integers >= 1, the seeds integers >= 0, noise numbers in [0, 1], dropout
    numbers in [0, 1), duration means finite numbers and stds numbers > 0,
    d_max None or an integer in [1, ``D_MAX_LIMIT``].  A
    d_max of None resolves to ceil(3 x the largest duration mean), which must
    not pass that limit either.
    """

    poses: tuple[PoseLabel, ...] = MOCK_ICU_POSES
    scene_doubling: bool = True
    base_scene: SceneCondition = SceneCondition.BC
    scene_switch: bool = False
    F: int = 6
    channels: tuple[ChannelId, ...] = DEFAULT_CHANNELS
    duration_mean: float | Sequence[float] = 12.0
    duration_std: float | Sequence[float] = 3.0
    d_max: int | None = None
    t_target: int = 400
    noise: Mapping[SceneCondition, float] | float = field(
        default_factory=lambda: dict(REGIME_NOISE)
    )
    dropout: Mapping[SceneCondition, float] | float = field(
        default_factory=lambda: dict(REGIME_DROPOUT)
    )
    transition_hold: int = 6
    transition_ramp: int = 6
    seed: int = 0
    model_seed: int = 7151

    def __post_init__(self):
        for name, kind in (("poses", PoseLabel), ("channels", ChannelId)):
            value = getattr(self, name)
            items = tuple(value) if isinstance(value, Iterable) else None
            if items is None or not all(isinstance(v, kind) for v in items):
                raise BadArgument(f"{name} must be a sequence of {kind.__name__}, got {value!r}",
                                  name)
            setattr(self, name, items)
        for name, kind in (("base_scene", SceneCondition), ("scene_doubling", bool),
                           ("scene_switch", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise BadArgument(f"{name} must be a {kind.__name__}, got {value!r}", name)
        self.noise = _per_scene(self.noise, "noise")
        self.dropout = _per_scene(self.dropout, "dropout")
        for name, low in (("F", 1), ("t_target", 1), ("transition_hold", 1),
                          ("transition_ramp", 1), ("seed", 0), ("model_seed", 0)):
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                raise BadArgument(f"{name} must be an integer >= {low}, got {value}", name)
        # NaN fails these comparisons too; a dropout of 1 leaves no channel to write
        if not all(0.0 <= p <= 1.0 for p in self.noise.values()):
            raise BadArgument(f"noise must be in [0, 1], got {list(self.noise.values())}",
                              "noise")
        if not all(0.0 <= p < 1.0 for p in self.dropout.values()):
            raise BadArgument(f"dropout must be in [0, 1), got {list(self.dropout.values())}",
                              "dropout")
        for name in ("poses", "channels"):
            value = getattr(self, name)
            if not value or len(set(value)) < len(value):
                raise BadArgument(
                    f"{name} must list at least one item and none twice, got "
                    f"{len(value)} with {len(set(value))} distinct", name
                )
        # the generating model's dwell-time checks, without building its tables;
        # a mean that is not finite fails them before d_max is read
        mean, std = self.duration_arrays()
        try:
            DurationModel(mean, std, self.resolved_d_max() if np.isfinite(mean).all() else 1)
        except BadArgument as exc:
            if exc.param != "d_max" or self.d_max is not None:
                raise
            raise BadArgument(
                f"duration_mean {mean.max()} resolves to a d_max above the limit "
                f"{D_MAX_LIMIT}; set d_max", "duration_mean"
            ) from None

    @property
    def n_poses(self) -> int:
        return len(self.poses)

    def duration_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pose duration means and stds; each field is one number or one
        per pose, else ``BadArgument`` names it."""
        arrays = []
        for name in ("duration_mean", "duration_std"):
            raw = getattr(self, name)
            try:
                numeric = np.asarray(raw).dtype.kind in "iuf"
            except ValueError:  # ragged nesting
                numeric = False
            if not numeric:
                raise BadArgument(f"{name} must be a number or a sequence of numbers, "
                                  f"got {raw!r}", name)
            value = np.asarray(raw, dtype=float)
            if value.shape not in ((), (1,), (self.n_poses,)):
                raise BadArgument(
                    f"{name} must be one value or {self.n_poses} (one per pose), "
                    f"got shape {value.shape}", name
                )
            arrays.append(np.broadcast_to(value, (self.n_poses,)).copy())
        return tuple(arrays)

    def resolved_d_max(self) -> int:
        if self.d_max is not None:
            return self.d_max
        mean, _ = self.duration_arrays()
        # 3 x a mean near the float maximum overflows; its ceiling stays finite
        return max(2, math.ceil(min(3.0 * float(mean.max()), sys.float_info.max)))


PRESETS = {
    "bc-sim": {"base_scene": SceneCondition.BC},
    "do-sim": {"base_scene": SceneCondition.DO},
}


def preset_config(name: str, /, **overrides) -> ScenarioConfig:
    """Build a ScenarioConfig for one of the named presets; another name is
    a ``BadArgument`` naming ``name``, and an override that is no
    ScenarioConfig field one naming that override."""
    if not isinstance(name, str) or name not in PRESETS:
        raise BadArgument(f"unknown preset {name!r}; choose from {sorted(PRESETS)}", "name")
    names = {f.name for f in fields(ScenarioConfig)}
    for key in overrides:
        if key not in names:
            raise BadArgument(f"{key!r} is not a ScenarioConfig field", key)
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


@dataclass(frozen=True)
class TransitionInfo:
    """Planted truth for one transition clip."""

    from_pose: PoseLabel
    to_pose: PoseLabel
    direction: RotationDirection
    anchor_ticks: tuple[int, ...]
    n_pseudo: int


@dataclass
class GroundTruth:
    """Planted state segments and scene runs behind one emitted stream."""

    segmentation: Segmentation
    scene_track: tuple[tuple[int, int, SceneCondition], ...]
    generating_model: HsmmModel
    transition: TransitionInfo | None = None


# =====================================================================
# Generating model
# =====================================================================


def _pose_templates(config: ScenarioConfig) -> np.ndarray:
    """(P, C, F) real-valued mean templates, deterministic in model_seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.model_seed))
    return rng.random((config.n_poses, len(config.channels), config.F))

def _pose_transition_matrix(config: ScenarioConfig) -> np.ndarray:
    """Random zero-diagonal pose transition rows, deterministic in model_seed."""
    rng = np.random.default_rng(np.random.SeedSequence((config.model_seed, 1)))
    p = config.n_poses
    if p == 1:
        return np.zeros((1, 1))
    A = np.zeros((p, p))
    for i in range(p):
        row = rng.dirichlet(np.ones(p - 1))
        A[i, :i] = row[:i]
        A[i, i + 1 :] = row[i:]
    return A


def _effective_state_means(
    config: ScenarioConfig, templates: np.ndarray, space: StateSpace
) -> np.ndarray:
    """(Q, C, F) expected feature values per state, after noise and contrast.

    These are the true Bernoulli parameters of the emitted features, which is
    what the generating model should carry for reference decoding.
    """
    bits = (templates >= 0.5).astype(float)
    out = np.zeros((len(space), templates.shape[1], templates.shape[2]))
    pose_index = {pose: k for k, pose in enumerate(config.poses)}
    for s in space:
        scene = s.scene if s.scene is not None else config.base_scene
        nu = config.noise[scene]
        eff = nu + bits[pose_index[s.pose]] * (1.0 - 2.0 * nu)
        if scene is SceneCondition.DO:
            eff = 0.5 + (eff - 0.5) * DO_CONTRAST
        out[s.index] = eff
    return out


def build_generating_model(config: ScenarioConfig) -> tuple[HsmmModel, StateSpace]:
    """The reference model whose joint law the simulator samples from.

    Emission means are the effective (post-noise, post-contrast) feature
    expectations.  With scene doubling the pose transition rows are copied
    into per-scene blocks; cross-scene mass is nonzero only when the config
    enables a scene switch, and then allows same-pose regime flips.  A
    one-pose scene-doubled scenario without a switch has no transition at
    all, so it raises ``BadArgument`` naming ``poses``.
    """
    p = config.n_poses
    if config.scene_doubling and p == 1 and not config.scene_switch:
        raise BadArgument(
            "a one-pose scene-doubled scenario needs scene_switch: its two states "
            "have no transition between them", "poses"
        )
    space = StateSpace.from_poses(config.poses, config.scene_doubling)
    templates = _pose_templates(config)
    A_pose = _pose_transition_matrix(config)

    if config.scene_doubling:
        w = SCENE_SWITCH_MASS if config.scene_switch else 0.0
        cross = 0.5 * np.eye(p) + 0.5 * A_pose
        A = np.zeros((2 * p, 2 * p))
        A[:p, :p] = (1.0 - w) * A_pose
        A[p:, p:] = (1.0 - w) * A_pose
        A[:p, p:] = w * cross
        A[p:, :p] = w * cross
        if p == 1:
            # single pose: all mass must cross scenes
            A[:] = 0.0
            A[0, 1] = 1.0
            A[1, 0] = 1.0
    else:
        A = A_pose

    mean, std = config.duration_arrays()
    reps = 2 if config.scene_doubling else 1
    durations = DurationModel(
        np.tile(mean, reps), np.tile(std, reps), config.resolved_d_max()
    )

    means = _effective_state_means(config, templates, space)
    emissions = {
        c: ChannelEmissionModel(c, means[:, k, :])
        for k, c in enumerate(config.channels)
    }

    pi = build_initial_distribution(space)
    return HsmmModel(pi, A, durations, emissions, space), space


# =====================================================================
# Pose-sequence sampling
# =====================================================================


def _sample_pose_segments(
    config: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """Sample (pose index, duration) runs until t_target ticks are covered."""
    mean, std = config.duration_arrays()
    pmf = DurationModel(mean, std, config.resolved_d_max()).pmf_table()
    A_pose = _pose_transition_matrix(config)
    start_raw = np.array(
        [INITIAL_POSE_PRIORS.get(p, {}).get(config.base_scene, 0.0) for p in config.poses]
    )
    if start_raw.sum() <= 0.0:
        start_raw = np.ones(config.n_poses)
    start = start_raw / start_raw.sum()

    runs = []
    total = 0
    pose_idx = int(rng.choice(config.n_poses, p=start))
    while total < config.t_target:
        d = int(rng.choice(pmf.shape[1], p=pmf[pose_idx])) + 1
        d = min(d, config.t_target - total)
        runs.append((pose_idx, d))
        total += d
        if total < config.t_target and config.n_poses > 1:
            pose_idx = int(rng.choice(config.n_poses, p=A_pose[pose_idx]))
    return np.array(runs)


def _scene_track(
    config: ScenarioConfig, rng: np.random.Generator, T: int
) -> tuple[tuple[int, int, SceneCondition], ...]:
    """(first tick, length, scene) runs; a switch falls in the middle half."""
    if config.scene_switch and T >= 4:
        (other,) = (s for s in SceneCondition if s is not config.base_scene)
        switch = int(rng.integers(T // 4, 3 * T // 4 + 1))
        return ((1, switch, config.base_scene), (switch + 1, T - switch, other))
    return ((1, T, config.base_scene),)


def _too_large(config: ScenarioConfig, T: int, param: str) -> BadArgument:
    """The error for a T-tick stream that memory cannot hold, naming ``param``."""
    return BadArgument(
        f"{param} {getattr(config, param)} asks for {len(config.channels)} channel(s) x "
        f"T={T} x F={config.F} values, more than memory holds", param
    )


def _stream_arrays(config: ScenarioConfig, T: int, param: str) -> tuple[np.ndarray, np.ndarray]:
    """Empty (T, C, F) means and (T, C) availability of a T-tick stream,
    allocated before anything is sampled; arrays that memory cannot hold
    are a ``BadArgument`` naming ``param``."""
    C = len(config.channels)
    try:
        return np.empty((T, C, config.F)), np.empty((T, C), dtype=bool)
    # numpy raises ValueError for a size beyond the largest intp
    except (MemoryError, ValueError):
        raise _too_large(config, T, param) from None


def _observe(
    config: ScenarioConfig, means: np.ndarray, avail: np.ndarray, scene_track,
    rng: np.random.Generator,
) -> tuple[dict, dict]:
    """Per-channel features and masks, as ``FeatureStream.from_arrays``
    takes them, of (T, C, F) ``means`` seen under each tick's scene run:
    every value flips x -> 1 - x with the scene's noise probability and
    shrinks toward 0.5 under DO contrast, then every channel drops with the
    scene's dropout probability.  The features overwrite ``means`` and the
    masks fill the (T, C) ``avail``."""
    _, lengths, scenes = zip(*scene_track)
    noise = np.repeat([config.noise[s] for s in scenes], lengths)
    np.subtract(1.0, means, out=means, where=rng.random(means.shape) < noise[:, None, None])
    for b, n, scene in scene_track:
        if scene is SceneCondition.DO:
            x = means[b - 1 : b - 1 + n]
            x[...] = 0.5 + (x - 0.5) * DO_CONTRAST
    dropout = np.repeat([config.dropout[s] for s in scenes], lengths)
    np.greater_equal(rng.random(avail.shape), dropout[:, None], out=avail)
    return dict(zip(config.channels, means.swapaxes(0, 1))), dict(zip(config.channels, avail.T))


def sample_sequence(config: ScenarioConfig) -> tuple[FeatureStream, GroundTruth]:
    """Emit one pose-sequence stream plus its planted truth.

    Each tick observes its pose's template bits (see ``_observe``).  At zero
    noise the features equal the rounded templates and, as std shrinks,
    durations concentrate on the rounded mean.
    """
    T = config.t_target  # the runs cover it exactly
    means, avail = _stream_arrays(config, T, "t_target")
    model, space = build_generating_model(config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
    run_poses, run_lengths = _sample_pose_segments(config, rng).T
    scene_track = _scene_track(config, rng, T)
    # the truth: the pose runs cut at the scene-run ends, equal neighbours merged
    pose_ends = np.cumsum(run_lengths)
    scene_ends = [b + n - 1 for b, n, _ in scene_track]
    scenes = [scene if config.scene_doubling else None for _, _, scene in scene_track]
    # a piece lies in the first pose run and scene run that end at or after it
    ends = np.union1d(pose_ends, scene_ends)
    ys = np.array([
        space.index_of(config.poses[k], scenes[r]) for k, r in
        zip(run_poses[np.searchsorted(pose_ends, ends)], np.searchsorted(scene_ends, ends))
    ])
    last = np.append(ys[1:] != ys[:-1], True)
    ends, ys = ends[last].tolist(), ys[last].tolist()
    segmentation = Segmentation(
        tuple(Segment(b + 1, e - b, y) for b, e, y in zip([0, *ends], ends, ys)), T
    )
    bits = (_pose_templates(config) >= 0.5).astype(float)
    # take's output buffer, the noise draw and the stream's copy each come
    # on top of the arrays above
    try:
        np.take(bits, np.repeat(run_poses, run_lengths), axis=0, out=means)
        stream = FeatureStream.from_arrays(*_observe(config, means, avail, scene_track, rng))
    except MemoryError:
        raise _too_large(config, T, "t_target") from None

    truth = GroundTruth(
        segmentation=segmentation,
        scene_track=scene_track,
        generating_model=model,
    )
    return stream, truth


# =====================================================================
# Transition clips
# =====================================================================

#: Interpolation weights and perturbation magnitudes of the three planted
#: pseudo-pose anchors along a transition.  The middle anchor swings hardest
#: so the motion peak sits at its tick; the outer anchors still swing enough
#: to carry direction information of their own.
ANCHOR_WEIGHTS = (0.25, 0.5, 0.75)
ANCHOR_MAGNITUDES = (0.5, 0.7, 0.5)


def _transition_anchors(
    config: ScenarioConfig,
    templates: np.ndarray,
    from_pose: PoseLabel,
    to_pose: PoseLabel,
    direction: RotationDirection,
) -> np.ndarray:
    """(3, C, F) planted intermediate means for one (from, to, direction).

    Left and right rotations between the same pose pair share their hold
    templates and differ only in these intermediates.
    """
    pose_index = {pose: k for k, pose in enumerate(config.poses)}
    i, j = pose_index[from_pose], pose_index[to_pose]
    dir_idx = 0 if direction is RotationDirection.LEFT else 1
    rng = np.random.default_rng(
        np.random.SeedSequence((config.model_seed, 3, i, j, dir_idx))
    )
    mu_from, mu_to = templates[i], templates[j]
    anchors = np.zeros((3, templates.shape[1], config.F))
    for k, (w, mag) in enumerate(zip(ANCHOR_WEIGHTS, ANCHOR_MAGNITUDES)):
        base = (1.0 - w) * mu_from + w * mu_to
        u = rng.standard_normal((templates.shape[1], config.F))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        anchors[k] = np.clip(base + mag * math.sqrt(config.F) * u, 0.0, 1.0)
    return anchors


def transition_protocol(
    poses: Sequence[PoseLabel] = CANONICAL_POSES,
) -> list[tuple[PoseLabel, PoseLabel, RotationDirection]]:
    """The full protocol: every ordered pose pair (self-pairs included, i.e.
    roll-away-and-back) in both rotation directions.  ``poses`` must be a
    non-empty sequence of distinct ``PoseLabel``s, else ``BadArgument``."""
    if (
        not isinstance(poses, Sequence)
        or not poses
        or not all(isinstance(p, PoseLabel) for p in poses)
        or len(set(poses)) < len(poses)
    ):
        raise BadArgument(
            f"poses must be a non-empty sequence of distinct PoseLabels, got {poses!r}",
            "poses",
        )
    combos = []
    for a in poses:
        for b in poses:
            for direction in RotationDirection:
                combos.append((a, b, direction))
    return combos


def sample_transition_clip(
    from_pose: PoseLabel,
    to_pose: PoseLabel,
    direction: RotationDirection,
    config: ScenarioConfig,
) -> tuple[FeatureStream, GroundTruth]:
    """Emit one transition clip: hold, three-anchor ramp, hold.

    The mean path interpolates linearly between hold template and anchors,
    and every tick observes it under the base scene (see ``_observe``); the
    two endpoints keep every channel.  Self-pairs are allowed and represent
    a roll away and back.
    """
    if from_pose not in config.poses or to_pose not in config.poses:
        raise PoseHsmmError("transition endpoints must be poses of the scenario")
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
    a = np.arange(1, g + 1)[:, None, None] / g
    for k in range(4):
        means[h + k * g : h + (k + 1) * g] = (1.0 - a) * waypoints[k] + a * waypoints[k + 1]
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
    try:
        observed = _observe(config, means, avail, scene_track, rng)
        # endpoints always observable so keyframe selection has a shared channel
        avail[[0, -1]] = True
        stream = FeatureStream.from_arrays(*observed)
    except MemoryError:
        raise _too_large(config, T, longer) from None

    mid = anchor_ticks[1]
    scene_value = scene if config.scene_doubling else None
    from_state = space.index_of(from_pose, scene_value)
    to_state = space.index_of(to_pose, scene_value)
    segments = ((Segment(1, T, from_state),) if from_state == to_state
                else (Segment(1, mid, from_state), Segment(mid + 1, T - mid, to_state)))
    truth = GroundTruth(
        segmentation=Segmentation(segments, T),
        scene_track=scene_track,
        generating_model=model,
        transition=TransitionInfo(
            from_pose, to_pose, direction, anchor_ticks, len(anchors)
        ),
    )
    return stream, truth

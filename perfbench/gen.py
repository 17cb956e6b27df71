"""Seeded, untimed input generation for the two benchmark workloads.

Everything here runs before any timed region.  The program under test only
ever sees the files written here: stream and truth files for ``recording``,
a manifest of training clips plus held-out clips for ``transitions``.  The
same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from posehsmm import fileio
from posehsmm.simulate import (
    CANONICAL_POSES,
    ScenarioConfig,
    preset_config,
    sample_sequence,
    sample_transition_clip,
    transition_protocol,
)
from posehsmm.states import PoseLabel, RotationDirection

#: ``recording``: do-sim with a scene switch, so Q = 22 and channel masks vary.
RECORDING_T = 8000
RECORDING_D_MAX = 36
N_TRAIN_RECORDINGS = 4

#: The walkthrough's keyframes step: one clip, the README's combination.
RECORDING_CLIP = ("solU", "fetR", "left")

#: ``transitions``: the acceptance-6 protocol (8 training seeds x 200 combos).
N_TRAIN_CLIP_SEEDS = 8
CLIP_NOISE = 0.05
K_MAX = 5
KEYFRAME_TH = 0.25


def recording_seeds(seed: int) -> tuple[list[int], int]:
    """Simulator seeds of the training recordings and of the held-out one."""
    base = 8 * seed
    return [base + k for k in range(N_TRAIN_RECORDINGS)], base + N_TRAIN_RECORDINGS


def clip_train_seeds(seed: int, n: int = N_TRAIN_CLIP_SEEDS) -> list[int]:
    """Training-clip seeds; seed 1 gives acceptance 6's 100..107.

    They never include the held-out seed itself for any seed >= 0.
    """
    return [100 + n * (seed - 1) + k for k in range(n)]


def make_recording(root: Path, seed: int, T: int = RECORDING_T) -> dict:
    """Write four labelled training recordings and one held-out recording."""
    root.mkdir(parents=True, exist_ok=True)
    train_seeds, held_seed = recording_seeds(seed)
    names = [f"train{k}" for k in range(len(train_seeds))] + ["held"]
    for name, s in zip(names, train_seeds + [held_seed]):
        config = preset_config(
            "do-sim", seed=s, t_target=T, d_max=RECORDING_D_MAX, scene_switch=True
        )
        stream, truth = sample_sequence(config)
        fileio.write_stream(stream, root / f"{name}.stream")
        fileio.write_truth(
            truth.generating_model.states,
            truth.segmentation,
            truth.scene_track,
            root / f"{name}.truth",
        )
    combo = (PoseLabel(RECORDING_CLIP[0]), PoseLabel(RECORDING_CLIP[1]),
             RotationDirection(RECORDING_CLIP[2]))
    clip, _ = sample_transition_clip(*combo, preset_config("bc-sim", seed=held_seed))
    fileio.write_stream(clip, root / "clip.stream")
    spec = {
        "workload": "recording",
        "seed": seed,
        "d_max": RECORDING_D_MAX,
        "train": [[f"{n}.stream", f"{n}.truth"] for n in names[:-1]],
        "held": ["held.stream", "held.truth"],
        "clip": "clip.stream",
        "k_max": K_MAX,
        "th": KEYFRAME_TH,
        "clip_static": endpoint_static(clip, KEYFRAME_TH),
    }
    (root / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec


def endpoint_static(stream, threshold: float) -> bool:
    """Whether keyframe selection must call this clip static.

    Recomputed here, not by the program's keyframe code: a clip is static
    when no channel seen at both endpoints moves by more than ``threshold``
    in sqrt(F)-normalised Euclidean distance.
    """
    first, last = stream.frames[0], stream.frames[-1]
    shared = first.available & last.available
    best = max(
        (
            float(np.linalg.norm(first.vectors[c] - last.vectors[c]))
            / math.sqrt(stream.F)
            for c in shared
        ),
        default=-1.0,
    )
    return best <= threshold


def make_transitions(
    root: Path,
    seed: int,
    n_train_seeds: int = N_TRAIN_CLIP_SEEDS,
    combos: list | None = None,
) -> dict:
    """Write the training-clip manifest and the held-out clips of one seed."""
    root.mkdir(parents=True, exist_ok=True)
    protocol = transition_protocol() if combos is None else combos

    def clip(combo, s):
        config = ScenarioConfig(
            seed=s, poses=CANONICAL_POSES, scene_doubling=False,
            noise=CLIP_NOISE, dropout=0.0,
        )
        return sample_transition_clip(*combo, config)[0]

    lines = []
    for s in clip_train_seeds(seed, n_train_seeds):
        for k, combo in enumerate(protocol):
            name = f"train_{s}_{k}.stream"
            fileio.write_stream(clip(combo, s), root / name)
            lines.append(f"{name} {' '.join(x.value for x in combo)}")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")

    held = []
    for k, combo in enumerate(protocol):
        stream = clip(combo, seed)
        name = f"held_{k}.stream"
        fileio.write_stream(stream, root / name)
        held.append({
            "stream": name,
            "label": " ".join(x.value for x in combo),
            "static": endpoint_static(stream, KEYFRAME_TH),
        })
    spec = {
        "workload": "transitions",
        "seed": seed,
        "k_max": K_MAX,
        "th": KEYFRAME_TH,
        "manifest": "manifest.txt",
        "held": held,
    }
    (root / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec


MAKERS = {"recording": make_recording, "transitions": make_transitions}

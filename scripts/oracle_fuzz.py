#!/usr/bin/env python3
"""Fuzz the segment decoder against exhaustive enumeration.

Draws random small models and feature streams, decodes each with the
dynamic program and with brute force over every segmentation, and
reports any disagreement in log-probability or path.  Infeasible cases
(every segmentation forbidden) must be infeasible on both sides.

Sizes stay tiny because the oracle enumerates all segmentations; at the
default bounds a few hundred trials finish in seconds.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_hsmm, random_stream  # noqa: E402
from reference_brute_force import brute_force_decode  # noqa: E402

from posehsmm.errors import NoFeasiblePath  # noqa: E402
from posehsmm.inference import hsmm_viterbi  # noqa: E402


def draw_trials(seed=0, max_t=8, max_q=3, max_d=4, max_f=4):
    """Yield each trial's (T, Q, D, F, model, stream), in trial order, forever."""
    rng = np.random.default_rng(seed)
    while True:
        Q = int(rng.integers(1, max_q + 1))
        D = int(rng.integers(1, max_d + 1))
        F = int(rng.integers(1, max_f + 1))
        T = int(rng.integers(1, max_t + 1))
        yield T, Q, D, F, random_hsmm(rng, Q, D, F), random_stream(rng, T, F)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-t", type=int, default=8)
    ap.add_argument("--max-q", type=int, default=3)
    ap.add_argument("--max-d", type=int, default=4)
    ap.add_argument("--max-f", type=int, default=4)
    args = ap.parse_args(argv)

    trials = draw_trials(args.seed, args.max_t, args.max_q, args.max_d, args.max_f)
    bad = infeasible = 0
    max_gap = 0.0
    for trial, (T, Q, D, F, model, stream) in zip(range(args.trials), trials):
        try:
            fast = hsmm_viterbi(stream, model)
        except NoFeasiblePath:
            infeasible += 1
            try:
                brute_force_decode(stream, model)
            except NoFeasiblePath:
                continue
            bad += 1
            print(f"trial {trial}: DP infeasible but oracle found a path "
                  f"(T={T} Q={Q} D={D} F={F})")
            continue
        slow = brute_force_decode(stream, model)
        gap = abs(fast.log_prob - slow.log_prob)
        max_gap = max(max_gap, gap)
        if gap > 1e-9 or fast.segmentation != slow.segmentation:
            bad += 1
            print(f"trial {trial}: MISMATCH gap={gap:.3e} "
                  f"(T={T} Q={Q} D={D} F={F})")
            print(f"  dp:     {fast.log_prob:.12f} {fast.segmentation}")
            print(f"  oracle: {slow.log_prob:.12f} {slow.segmentation}")
    print(f"{args.trials} trials, {infeasible} infeasible, "
          f"{bad} mismatches, max |dlp| {max_gap:.2e}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

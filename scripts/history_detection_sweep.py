#!/usr/bin/env python3
"""Window-detection sweep across the bright and dark scene regimes.

Trains one model per preset on labeled simulated sequences, then scores
windowed pose-history detection on held-out seeds.  Prints per-seed
rates plus the per-seed margin of the bright regime over the dark one.

  python scripts/history_detection_sweep.py
  python scripts/history_detection_sweep.py --eval-seeds 1 50 --train-seeds 100 106
"""

import argparse

import numpy as np

from posehsmm.emission import fit_channel_emissions
from posehsmm.inference import HsmmModel, fit_durations, fit_transitions
from posehsmm.simulate import preset_config, sample_sequence
from posehsmm.states import build_initial_distribution
from posehsmm.summarize import (
    history_from_segments,
    summarize_history,
    window_detection_rate,
)


def fit_supervised(pairs):
    space = pairs[0][1].generating_model.states
    n = len(space)
    segmentations = [t.segmentation for _, t in pairs]
    A = fit_transitions(segmentations, n)
    longest = max(max(seg.d for seg in s) for s in segmentations)
    d_max = min(3 * longest, max(s.T for s in segmentations))
    durations = fit_durations(segmentations, n, d_max)
    streams = [stream for stream, _ in pairs]
    channels = sorted({c for s in streams for c in s.channels})
    emissions = {
        c: fit_channel_emissions(streams, segmentations, c, n) for c in channels
    }
    return HsmmModel(build_initial_distribution(space), A, durations, emissions, space)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--presets", nargs="+", default=["bc-sim", "do-sim"])
    ap.add_argument("--train-seeds", nargs=2, type=int, default=[100, 106],
                    metavar=("LO", "HI"), help="half-open seed range")
    ap.add_argument("--eval-seeds", nargs=2, type=int, default=[1, 21],
                    metavar=("LO", "HI"))
    args = ap.parse_args(argv)

    rates = {}
    for name in args.presets:
        pairs = [
            sample_sequence(preset_config(name, seed=s))
            for s in range(*args.train_seeds)
        ]
        model = fit_supervised(pairs)
        space = model.states
        per_seed = []
        for seed in range(*args.eval_seeds):
            stream, truth = sample_sequence(preset_config(name, seed=seed))
            predicted = summarize_history(stream, model)
            reference = history_from_segments(truth.segmentation, space)
            per_seed.append(window_detection_rate(predicted, reference))
        rates[name] = per_seed
        print(f"{name}: mean {np.mean(per_seed):.3f}  min {min(per_seed):.3f}  "
              f"max {max(per_seed):.3f}  ({len(per_seed)} seeds)")

    if len(args.presets) == 2:
        a, b = (rates[p] for p in args.presets)
        margins = [x - y for x, y in zip(a, b)]
        print(f"margin {args.presets[0]} - {args.presets[1]}: "
              f"mean {np.mean(margins):.3f}  min {min(margins):.3f}  "
              f"wins {sum(m > 0 for m in margins)}/{len(margins)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

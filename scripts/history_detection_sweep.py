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

from posehsmm.cli import fit_hsmm
from posehsmm.simulate import preset_config, sample_sequence
from posehsmm.summarize import (
    history_from_segments,
    summarize_history,
    window_detection_rate,
)


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
        streams, truths = zip(*(
            sample_sequence(preset_config(name, seed=s))
            for s in range(*args.train_seeds)
        ))
        space = truths[0].generating_model.states
        model = fit_hsmm(streams, [t.segmentation for t in truths], space)
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

"""Frozen grouped library build: the reference the streaming build must match.

This is the original ``build_transition_library`` of ``posehsmm.summarize``,
kept verbatim in arithmetic.  It holds every non-static clip's stream and
keyframes until the last clip is in, then averages each key's members in
arrival order.  Tests compare the streaming build against it bit for bit.
"""

import numpy as np

from posehsmm.errors import BadArgument
from posehsmm.keyframes import select_keyframes
from posehsmm.summarize import MIN_GAP_STD, TransitionChain, TransitionLibrary


def reference_build_library(clips, k_max=5, threshold=0.8, stage2_threshold=None):
    """Fit pseudo-pose chains with every training clip resident."""
    grouped = {}
    widths = set()
    for stream, from_pose, to_pose, direction in clips:
        widths.add(stream.F)
        if len(widths) > 1:
            raise BadArgument(f"clips mix feature widths {sorted(widths)}")
        kfs = select_keyframes(stream, k_max, threshold, stage2_threshold)
        if kfs.static:
            continue
        grouped.setdefault((from_pose, to_pose, direction), []).append((stream, kfs))

    entries = {}
    for key, members in grouped.items():
        length = max(len(kfs) for _, kfs in members)
        channels = sorted({c for stream, _ in members for c in stream.channels})
        F = members[0][0].F
        sums = {c: np.zeros((length, F)) for c in channels}
        counts = {c: np.zeros(length) for c in channels}
        gaps = [[] for _ in range(length)]
        for stream, kfs in members:
            ticks = kfs.ticks
            rows = np.array(ticks) - 1
            for k, c in enumerate(stream.channel_ids):
                seen = np.flatnonzero(stream.mask[k, rows])
                if seen.size:
                    sums[c][seen] += stream.X[k, rows[seen]]
                    counts[c][seen] += 1.0
            for p, (t, nxt) in enumerate(zip(ticks, ticks[1:] + (stream.T + 1,))):
                gaps[p].append(float(nxt - t))
        means = {}
        for c in channels:
            m = np.full((length, F), 0.5)
            seen = counts[c] > 0
            m[seen] = sums[c][seen] / counts[c][seen, None]
            means[c] = m
        gap_mean = np.zeros(length)
        gap_std = np.zeros(length)
        for p, values in enumerate(gaps):
            arr = np.asarray(values if values else [1.0])
            gap_mean[p] = arr.mean()
            gap_std[p] = max(float(arr.std()), MIN_GAP_STD)
        entries[key] = TransitionChain(means, gap_mean, gap_std, len(members))
    return TransitionLibrary(entries)

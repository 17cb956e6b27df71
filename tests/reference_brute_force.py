"""Exhaustive segment decoder: the oracle the segment DP must match exactly.

It enumerates every label sequence of a small instance and scores each
one's run-length encoding with the additions the DP performs, so the
decoder's log-probability must equal it bit for bit and its segmentation
must be the same under the tie rule of ``posehsmm.inference``.  The
arithmetic is the original library code's, kept verbatim.
"""

import itertools

import numpy as np

from posehsmm.emission import FeatureStream
from posehsmm.errors import NoFeasiblePath, PoseHsmmError
from posehsmm.inference import DecodeResult, HsmmModel, _log_tables, _segment_scores
from posehsmm.states import Segment, Segmentation

#: Safety guard for exhaustive decoding: refuse above this many label sequences.
BRUTE_FORCE_GUARD = 10**7


class InstanceTooLarge(PoseHsmmError):
    """Exhaustive enumeration would exceed the safety guard."""


def brute_force_decode(
    stream: FeatureStream, model: HsmmModel, guard: int = BRUTE_FORCE_GUARD
) -> DecodeResult:
    """Exhaustive reference decoder for small instances.

    Enumerates every label sequence, scores its run-length encoding with the
    same additions the DP performs, and keeps the best total.  Exact ties of
    the total go to the smallest key of (state, -prefix total, -duration,
    -entry score) per segment, read back to front: the decoder's rule (see
    the ``posehsmm.inference`` docstring).  Guarded by ``guard`` on Q**T.
    """
    T = stream.T
    n = model.n_states
    if n**T > guard:
        raise InstanceTooLarge(f"{n}**{T} label sequences exceed guard {guard}")
    log_pi, log_A, log_dur, C = _log_tables(model, stream)
    lpi = log_pi.tolist()
    lA = log_A.tolist()
    ldur = log_dur.tolist()
    lC = C.tolist()
    d_max = model.d_max
    neg_inf = -np.inf

    best_score = neg_inf
    best_key = None
    best_segs = None
    for labels in itertools.product(range(n), repeat=T):
        segs = []
        start = 0
        cur = labels[0]
        for t in range(1, T):
            if labels[t] != cur:
                segs.append((start + 1, t - start, cur))
                start = t
                cur = labels[t]
        segs.append((start + 1, T - start, cur))

        acc = 0.0
        ranked = []
        prev = None
        for b, d, y in segs:
            if d > d_max:
                break
            head = lpi[y] if prev is None else acc + lA[prev][y]
            acc = head + ldur[y][d]
            acc = acc + (lC[b + d - 1][y] - lC[b - 1][y])
            if acc == neg_inf:
                break
            ranked.append((y, -acc, -d, -head))
            prev = y
        if len(ranked) < len(segs) or acc < best_score:
            continue
        key = ranked[::-1]
        if acc > best_score or key < best_key:
            best_score = acc
            best_key = key
            best_segs = segs
    if best_segs is None:
        raise NoFeasiblePath("all segmentations have probability zero")

    segmentation = Segmentation(
        tuple(Segment(b, d, y) for b, d, y in best_segs), T
    )
    per_segment = _segment_scores(segmentation, log_pi, log_A, log_dur, C)
    return DecodeResult(segmentation, float(best_score), per_segment)

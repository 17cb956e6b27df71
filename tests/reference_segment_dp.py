"""Frozen per-(t, d) segment DP: the reference the decoder must match exactly.

This is the original fill of the segment decoder, kept verbatim in
arithmetic.  It stores the full (time x duration x state) tables ``tau`` and
``zeta`` and recomputes each boundary's transition max once per duration.
It is slow and memory-hungry on purpose; tests compare the production
decoder against it bit for bit.
"""

import numpy as np

from posehsmm.errors import NoFeasiblePath
from posehsmm.inference import DecodeResult
from posehsmm.states import Segment, Segmentation


def reference_segment_viterbi(T, n, d_max, log_pi, log_A, log_dur, C, final_log=None):
    d_cap = min(d_max, T)
    tau = np.full((T + 1, d_cap + 1, n), -np.inf)
    zeta = np.full((T + 1, d_cap + 1, n), -1, dtype=int)
    delta = np.full((T + 1, n), -np.inf)
    phi = np.zeros((T + 1, n), dtype=int)
    took = np.arange(n)
    for t in range(1, T + 1):
        dm = min(t, d_cap)
        for d in range(1, dm + 1):
            segsum = C[t] - C[t - d]
            if d == t:
                tau[t, d] = (log_pi + log_dur[:, d]) + segsum
            else:
                scores = delta[t - d][:, None] + log_A
                best_prev = scores.max(axis=0)
                tau[t, d] = (best_prev + log_dur[:, d]) + segsum
                zeta[t, d] = scores.argmax(axis=0)
        block = tau[t, 1 : dm + 1]
        # argmax on the reversed duration axis keeps the longest d on ties
        phi[t] = dm - block[::-1].argmax(axis=0)
        delta[t] = block[phi[t] - 1, took]

    terminal = delta[T] if final_log is None else delta[T] + final_log
    if not np.isfinite(terminal.max()):
        raise NoFeasiblePath("all segmentations have probability zero")
    y = int(terminal.argmax())
    log_prob = float(delta[T, y])

    rev = []
    t = T
    while t > 0:
        d = int(phi[t, y])
        rev.append(Segment(t - d + 1, d, y))
        y_prev = int(zeta[t, d, y])
        t -= d
        y = y_prev
    segmentation = Segmentation(tuple(reversed(rev)), T)

    per_segment = []
    prev = None
    for seg in segmentation:
        j = seg.y_index
        head = log_pi[j] if prev is None else log_A[prev, j]
        s = head + log_dur[j, seg.d]
        s = s + (C[seg.end, j] - C[seg.b - 1, j])
        per_segment.append(float(s))
        prev = j
    return DecodeResult(segmentation, log_prob, tuple(per_segment))

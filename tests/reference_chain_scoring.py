"""Frozen per-chain transition scorer: the reference the stacked scorer must match.

This is the original ``_score_chain`` of ``posehsmm.summarize``, kept
verbatim in arithmetic.  It rebuilds one chain's emission models, duration
table, emission matrix and prefix sums on every call, and fills them with
the frozen per-(t, d) segment DP of ``reference_segment_dp``, not the live
one.  Tests compare ``score_chains`` against it bit for bit.
"""

import numpy as np

from posehsmm.emission import ChannelEmissionModel, log_emission_matrix
from posehsmm.states import DurationModel
from posehsmm.summarize import MIN_GAP_STD

from reference_segment_dp import reference_segment_viterbi


def reference_score_chain(chain, stream, use_keyframes):
    """Best left-to-right alignment of a stream onto one chain, as a
    ``DecodeResult``."""
    L = chain.length
    log_pi = np.full(L, -np.inf)
    log_pi[0] = 0.0
    log_A = np.full((L, L), -np.inf)
    for p in range(L - 1):
        log_A[p, p + 1] = 0.0
    if use_keyframes:
        dur = DurationModel(np.ones(L), np.full(L, MIN_GAP_STD), stream.T)
    else:
        dur = DurationModel(chain.gap_mean, chain.gap_std, stream.T)
    models = {c: ChannelEmissionModel(c, m) for c, m in chain.means.items()}
    E = log_emission_matrix(stream, models, L)
    C = np.vstack([np.zeros(L), np.cumsum(E, axis=0)])
    # the alignment must traverse the whole chain: end at the last pseudo-pose
    final_log = np.full(L, -np.inf)
    final_log[L - 1] = 0.0
    return reference_segment_viterbi(
        stream.T, L, dur.d_max, log_pi, log_A, dur.log_pmf_table(), C, final_log
    )

"""Per-frame emission oracle: the reference ``log_emission_matrix`` must match.

Scores one ``FeatureFrame`` under one state with a plain sum over channels,
so tests can check the dense (T, Q) matrix one cell at a time.
"""

import operator
from typing import Mapping

import numpy as np

from posehsmm.emission import ChannelEmissionModel, ChannelId, FeatureFrame
from posehsmm.errors import PoseHsmmError


class NoObservation(PoseHsmmError):
    """A frame exposes no scoreable channel."""


def emission_log_likelihood(
    frame: FeatureFrame,
    state: int,
    models: Mapping[ChannelId, ChannelEmissionModel],
) -> float:
    """Fused log-likelihood of one frame under one state.

    Sums the Bernoulli cross-entropy over every channel that is both
    available and modeled, in a fixed channel order so the result is
    deterministic.  Raises NoObservation when nothing is scoreable.
    """
    i = operator.index(state)
    scoreable = sorted(c for c in frame.available if c in models)
    if not scoreable:
        raise NoObservation(f"tick {frame.t}: no available channel has a model")
    total = 0.0
    for c in scoreable:
        mu = models[c].means[i]
        x = frame.vectors[c]
        total += float(np.sum(x * np.log(mu) + (1.0 - x) * np.log1p(-mu)))
    return total

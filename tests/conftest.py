"""Shared builders for small random models and streams, and a CLI runner
with a capped address space."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posehsmm
import posehsmm.inference as inference
from posehsmm import DurationModel, HsmmModel
from posehsmm.emission import ChannelEmissionModel, ChannelId, FeatureStream

CH = ChannelId.parse("left:RGB")


def random_hsmm(rng, n_states=None, d_max=None, F=None, states=None):
    """Small random model with Dirichlet rows and Gaussian durations."""
    Q = n_states if n_states is not None else int(rng.integers(1, 4))
    D = d_max if d_max is not None else int(rng.integers(1, 5))
    F = F if F is not None else int(rng.integers(1, 4))
    pi = rng.dirichlet(np.ones(Q))
    A = np.zeros((Q, Q))
    if Q > 1:
        rows = rng.dirichlet(np.ones(Q - 1), size=Q)
        for i in range(Q):
            A[i, [j for j in range(Q) if j != i]] = rows[i]
    dur = DurationModel(rng.uniform(1.0, D, Q), rng.uniform(0.3, 2.0, Q), D)
    em = {CH: ChannelEmissionModel(CH, rng.uniform(0.05, 0.95, (Q, F)))}
    return HsmmModel(pi, A, dur, em, states)


def tick_states(segmentation):
    """One state per tick: the run-length inverse of ``encode_segments``."""
    return [seg.y for seg in segmentation for _ in range(seg.d)]


def random_stream(rng, T, F, channel=CH):
    x = (rng.random((T, F)) < 0.5).astype(float)
    return FeatureStream.from_arrays({channel: x})


def fill_and_backtrack(T, log_pi, log_A, log_dur, C, final_log=None):
    """The ``DecodeResult`` the segment DP's fill picks on raw tables,
    backtracked as ``hsmm_viterbi`` backtracks it."""
    filled = inference._fill(T, len(log_pi), log_pi, log_A, log_dur, C, final_log)
    return inference._backtrack(T, *filled, log_pi, log_A, log_dur, C)


def assert_named_error(call, kind, param, message):
    """``call()`` raises exactly ``kind``, with ``param`` (None where the
    check names none) and a message that ``message`` matches."""
    with pytest.raises(kind, match=message) as exc:
        call()
    assert type(exc.value) is kind
    assert getattr(exc.value, "param", None) == param


def run_cli_limited(*argv, limit=2 * 1024**3):
    """Run ``posehsmm <argv>`` in a child interpreter whose address space
    (``RLIMIT_AS``) is capped at ``limit`` bytes, so an input that asks for
    a huge allocation fails there instead of exhausting the machine."""
    src = str(Path(posehsmm.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "posehsmm.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

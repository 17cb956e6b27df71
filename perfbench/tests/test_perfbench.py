"""Benchmark self-tests on small inputs: seeded generation, exact counters,
and outputs that tracing leaves byte-identical.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from posehsmm.simulate import transition_protocol  # noqa: E402

SEED = 3  # not the pinned seed: expected.json holds full-size outputs only


def _make(workload, root):
    if workload == "recording":
        return gen.make_recording(root / "inputs", SEED, T=400)
    return gen.make_transitions(
        root / "inputs", SEED, n_train_seeds=2, combos=transition_protocol()[:24]
    )


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", ["recording", "transitions"])
def test_counts_repeat_and_tracing_keeps_outputs(tmp_path, workload):
    runs = []
    for k in range(2):
        root = tmp_path / f"run{k}"
        _make(workload, root)
        # seconds=0: exactly one untraced pass, then one traced pass
        res = worker.run(root, 0.0, True, None)
        runs.append((root, res))

    (a_root, a), (b_root, b) = runs
    assert _tree(a_root / "inputs") == _tree(b_root / "inputs")
    assert a["counts"] == b["counts"]
    assert a["trace_errors"] == 0 and a["failed"] == 0
    assert [traced for _, traced in a["passes"]] == [False, True]

    untraced = _tree(a_root / "out" / "pass0")
    traced = _tree(a_root / "out" / "pass1")
    assert untraced and untraced == traced


def test_recording_counts_match_closed_forms(tmp_path):
    _make("recording", tmp_path)
    res = worker.run(tmp_path, 0.0, True, None)
    counts = res["counts"]["pass"]
    # decode and summarize each fill one T x D x Q trellis
    assert counts["inference.dp_cells"] == 2 * tracer.dp_cells(400, 36, 22)
    assert counts["inference.trellis_bytes"] == tracer.trellis_bytes(400, 36, 22)
    assert counts["emission.frames_scored"] == 2 * 400
    # four training streams, the held one twice, and the 35-tick clip
    assert counts["fileio.ticks_parsed"] == 6 * 400 + 35
    assert counts["keyframes.frames_scanned"] == 35


def test_dp_cells_closed_form():
    for T, D, Q in [(1, 1, 1), (5, 3, 2), (7, 36, 4), (40, 36, 22)]:
        brute = sum(min(t, min(D, T)) * Q for t in range(1, T + 1))
        assert tracer.dp_cells(T, D, Q) == brute

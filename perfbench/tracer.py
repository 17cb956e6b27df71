"""Outside-in span recorder for the traced benchmark run.

The program is not edited: each traced layer's public function is replaced,
where its callers look it up, by a wrapper that records one span per call.
Spans stay in memory as tuples and are written out once, at the end.

A span is ``(span_id, parent_id, op_id, name, start, end, child_s)``, where
``child_s`` is the time its children took, including the wrapper's own
bookkeeping; ``end - start - child_s`` is the span's self time.  Counters
derived from a call's inputs (``dp_cells``, ``frames_uncovered`` ...) are
computed in the wrapper, outside the span's timed interval.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import posehsmm.cli
import posehsmm.fileio
import posehsmm.inference
import posehsmm.summarize
from posehsmm.emission import FeatureStream

from gen import endpoint_static

#: zeta is allocated with dtype=int, which is 8 bytes on every supported host.
TRELLIS_CELL_BYTES = 8 + np.dtype(int).itemsize


def dp_cells(T: int, d_max: int, Q: int) -> int:
    """Sum over t = 1..T of min(t, D) * Q, with D = min(d_max, T)."""
    D = min(d_max, T)
    return Q * (D * (D + 1) // 2 + (T - D) * D)


def trellis_bytes(T: int, d_max: int, Q: int) -> int:
    """Size of the (T+1) x (D+1) x Q ``tau`` and ``zeta`` arrays together."""
    return (T + 1) * (min(d_max, T) + 1) * Q * TRELLIS_CELL_BYTES


def uncovered_frames(stream: FeatureStream, models) -> int:
    """Frames on which no available channel has a model."""
    modelled = set(models)
    return sum(1 for frame in stream.frames if not (frame.available & modelled))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self.inconsistencies: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._keyframes_seen = 0
        self._last_static = False
        self._chain_calls = 0
        self._chain_returns = 0
        self._root_errors = 0

    # ------------------------------------------------------------ spans
    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            c0 = perf_counter()
            span_name = name(args) if callable(name) else name
            if before is not None:
                before(self, args, kwargs)
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id]
            stack.append(frame)
            raised = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((
                    frame[1], parent[1] if parent else 0, self.op_id,
                    span_name, t0, t1, frame[0],
                ))
                if after is not None:
                    after(self, args, kwargs, None if raised else result, raised)
                if parent is not None:
                    parent[0] += perf_counter() - c0
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, name, before=None, after=None):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, before, after))
        else:
            wrapped = self._wrap(name, original, before, after)
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced name where the program's callers look it up."""
        cli, fio = posehsmm.cli, posehsmm.fileio
        summ, inf = posehsmm.summarize, posehsmm.inference
        self._patch(cli, "main", lambda args: f"cli.{args[0][0]}")
        for owner in (cli, summ):
            self._patch(owner, "hsmm_viterbi", "inference.hsmm_viterbi",
                        before=_count_decode)
        for owner in (inf, summ):
            self._patch(owner, "log_emission_matrix", "emission.log_emission_matrix",
                        before=_count_emission)
        self._patch(summ, "segment_viterbi_on_tables",
                    "inference.segment_viterbi_on_tables",
                    before=_count_tables, after=_count_feasible)
        for owner in (cli, summ):
            self._patch(owner, "select_keyframes", "keyframes.select_keyframes",
                        before=_count_keyframes, after=_check_static)
        self._patch(cli, "_read_manifest", "cli.read_manifest")
        self._patch(FeatureStream, "from_arrays", "emission.FeatureStream.from_arrays")
        for attr in ("fit_transitions", "fit_durations"):
            self._patch(cli, attr, f"inference.{attr}")
        self._patch(cli, "fit_channel_emissions", "emission.fit_channel_emissions")
        self._patch(cli, "summarize_history", "summarize.summarize_history")
        self._patch(cli, "build_transition_library", "summarize.build_transition_library")
        self._patch(cli, "classify_transition", "summarize.classify_transition",
                    before=_start_classify, after=_count_chains)
        for attr in sorted(vars(fio)):
            if attr.startswith("read_"):
                self._patch(fio, attr, f"fileio.{attr}",
                            before=_count_read, after=_count_ticks)
            elif attr.startswith("write_"):
                self._patch(fio, attr, f"fileio.{attr}",
                            after=_count_write(getattr(fio, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, fh, phase: str) -> None:
        for sid, parent, op, name, t0, t1, child in self.spans:
            fh.write(json.dumps({
                "phase": phase, "id": sid, "parent": parent, "op": op,
                "name": name, "start": t0, "end": t1, "self_s": t1 - t0 - child,
            }) + "\n")

    def check_op(self, op_id: int, op_s: float) -> None:
        """An op's top-level spans cannot add up to more than the op itself."""
        roots = 0.0
        for _, parent, op, _, t0, t1, _ in reversed(self.spans):
            if op != op_id:
                break
            if not parent:
                roots += t1 - t0
        self._root_errors += roots > op_s

    def errors(self) -> int:
        """Accounting violations plus counter/program disagreements."""
        duration = {sid: t1 - t0 for sid, _, _, _, t0, t1, _ in self.spans}
        children: dict[int, float] = defaultdict(float)
        for sid, parent, *_ in self.spans:
            if parent:
                children[parent] += duration[sid]
        bad = sum(
            children[sid] > child + 1e-12 or child > t1 - t0 + 1e-12
            for sid, _, _, _, t0, t1, child in self.spans
        )
        return bad + self._root_errors + len(self.inconsistencies)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls / s / self_s per span name."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for _, _, _, name, t0, t1, child in self.spans:
            row = totals[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child
        return totals


# ---------------------------------------------------------------- counters
def _count_decode(tr, args, kwargs):
    stream, model = args[0], args[1]
    _count_trellis(tr, stream.T, model.d_max, model.n_states)


def _count_tables(tr, args, kwargs):
    T, log_pi, log_dur = args[0], args[1], args[3]
    _count_trellis(tr, T, log_dur.shape[1] - 1, log_pi.shape[0])
    tr._chain_calls += 1


def _count_feasible(tr, args, kwargs, result, raised):
    tr._chain_returns += not raised


def _count_trellis(tr, T, d_max, Q):
    tr.counts["inference.dp_cells"] += dp_cells(T, d_max, Q)
    size = trellis_bytes(T, d_max, Q)
    if size > tr.counts["inference.trellis_bytes"]:
        tr.counts["inference.trellis_bytes"] = size


def _count_emission(tr, args, kwargs):
    stream, models = args[0], args[1]
    tr.counts["emission.frames_scored"] += stream.T
    tr.counts["emission.frames_uncovered"] += uncovered_frames(stream, models)


def _count_keyframes(tr, args, kwargs):
    clip = args[0]
    tr.counts["keyframes.frames_scanned"] += clip.T
    static = endpoint_static(clip, _arg(args, kwargs, 2, "threshold", 0.8))
    tr.counts["keyframes.static_clips"] += static
    tr._last_static = static


def _check_static(tr, args, kwargs, result, raised):
    if raised:
        return
    if result.static != tr._last_static:
        tr.inconsistencies.append(f"op {tr.op_id}: keyframe static flag differs")
    tr._keyframes_seen = len(result)


def _start_classify(tr, args, kwargs):
    tr._chain_calls = tr._chain_returns = 0


def _count_chains(tr, args, kwargs, result, raised):
    library = args[1]
    if tr._last_static:
        scored = feasible = 0
    else:
        lengths = [chain.length for chain in library.entries.values()]
        scored = len(lengths)
        feasible = sum(1 for n in lengths if n <= tr._keyframes_seen)
    tr.counts["summarize.chains_scored"] += scored
    tr.counts["summarize.chains_feasible"] += feasible
    if (scored, feasible) != (tr._chain_calls, tr._chain_returns):
        tr.inconsistencies.append(f"op {tr.op_id}: chain counts differ from DP calls")


def _count_read(tr, args, kwargs):
    tr.counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _count_ticks(tr, args, kwargs, result, raised):
    if isinstance(result, FeatureStream):
        tr.counts["fileio.ticks_parsed"] += result.T


def _count_write(fn):
    index = list(inspect.signature(fn).parameters).index("path")

    def after(tr, args, kwargs, result, raised):
        if not raised:
            path = _arg(args, kwargs, index, "path")
            tr.counts["fileio.bytes_written"] += os.path.getsize(path)

    return after

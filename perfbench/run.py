#!/usr/bin/env python3
"""posehsmm benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload {recording,transitions} --seed N \\
        --seconds S --trace {0,1}

Generates the workload's inputs from the seed (untimed), starts a fresh
worker interpreter for set-up and the timed loop, checks every op's output,
and prints a human summary followed by one JSON line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports per-layer metrics from a run
in which untraced and traced passes alternate.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter CLI imports per ``recording`` run; setup_s is their median.
IMPORT_PROBES = 7
#: Hard cap on one run, inside the 180 s allowed.
RUN_TIMEOUT_S = 170.0

# Per-layer metrics: layer -> the spans it adds up, on whichever workload
# calls them.  Every layer runs on both workloads, so no per-layer time is
# absent on either; the per-function split is printed in the summary and
# kept in the spans file.  See README.md.
LAYERS = {
    "fileio.read_stream": ["fileio.read_stream"],
    "emission.FeatureStream.from_arrays": ["emission.FeatureStream.from_arrays"],
    "emission.log_emission_matrix": ["emission.log_emission_matrix"],
    "inference.segment_dp": ["inference.hsmm_viterbi",
                             "inference.segment_viterbi_on_tables"],
    "keyframes.select_keyframes": ["keyframes.select_keyframes"],
    "fit": ["emission.fit_channel_emissions", "inference.fit_transitions",
            "inference.fit_durations", "summarize.build_transition_library"],
    "summarize": ["summarize.summarize_history", "summarize.classify_transition"],
    "cli": ["cli.train", "cli.decode", "cli.summarize", "cli.keyframes",
            "cli.evaluate", "cli.read_manifest"],
}
#: Layers reported as calls and total seconds only (their spans never nest).
PREFIX_LAYERS = {"fileio.read": "fileio.read_", "fileio.write": "fileio.write_"}
COUNTERS = [
    "fileio.bytes_read", "fileio.bytes_written", "fileio.ticks_parsed",
    "emission.frames_scored", "emission.frames_uncovered",
    "inference.dp_cells", "inference.trellis_bytes",
    "keyframes.frames_scanned", "keyframes.static_clips",
    "summarize.chains_scored", "summarize.chains_feasible",
]
#: Counters that keep their largest value instead of summing.
PEAK_COUNTERS = {"inference.trellis_bytes"}


def _worker_env() -> dict:
    """One BLAS thread here and in every child; children import from src/."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))


def _import_probe(env: dict) -> float:
    """Seconds a fresh interpreter spends importing the CLI module."""
    code = (
        "import time; t = time.perf_counter(); import posehsmm.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, res: dict, probes: list[float]) -> tuple[dict, list]:
    """The JSON metrics, plus (label, value, unit) detail lines."""
    by_kind: dict[str, list[float]] = {}
    for kind, dt, traced in res["ops"]:
        if not traced:
            by_kind.setdefault(kind, []).append(dt)
    if workload == "recording":
        setup = probes
        queries = by_kind["decode"] + by_kind["summarize"]
        detail = [("fit_s (train)", statistics.median(by_kind["train"]), "s")]
    else:
        setup = [s for s, _ in res["setup"]]
        queries = by_kind["clip"]
        detail = [("fit_s (library)", statistics.median(f for _, f in res["setup"]), "s")]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "query_p50_ms": (statistics.median(queries) * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail.append(("setup samples", len(setup), "count"))
    for kind, times in by_kind.items():
        if kind == "clip":
            detail += [
                ("clip_p50_ms", statistics.median(times) * 1e3, "ms"),
                ("clip_p95_ms", percentile(times, 95) * 1e3, "ms"),
                ("clip_p99_ms", percentile(times, 99) * 1e3, "ms"),
                ("clips_per_s", len(times) / sum(times), "1/s"),
            ]
        else:
            detail.append((f"{kind}_s", statistics.median(times), "s"))
        detail.append((f"{kind} samples", len(times), "count"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def per_layer(res: dict) -> tuple[dict, dict]:
    """Traced set-up plus the mean traced pass, per layer and counter.

    Also returns the same figures per traced function, for the summary.
    """
    n = sum(1 for _, traced in res["passes"] if traced)
    layers, counts = res["layers"], res["counts"]
    spans = {}
    for phase, scale in (("setup", 1), ("pass", n)):
        for span, row in layers[phase].items():
            acc = spans.setdefault(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in row.items():
                acc[field] += value / scale

    def total(names, field):
        return sum(spans.get(name, {}).get(field, 0) for name in names)

    metrics = {}
    for layer, names in LAYERS.items():
        metrics[f"{layer}.calls"] = (total(names, "calls"), "count")
        metrics[f"{layer}.s"] = (total(names, "s"), "s")
        metrics[f"{layer}.self_s"] = (total(names, "self_s"), "s")
    for layer, prefix in PREFIX_LAYERS.items():
        names = [span for span in spans if span.startswith(prefix)]
        metrics[f"{layer}.calls"] = (total(names, "calls"), "count")
        metrics[f"{layer}.s"] = (total(names, "s"), "s")
    for name in COUNTERS:
        setup, per_pass = counts["setup"].get(name, 0), counts["pass"].get(name, 0)
        if name in PEAK_COUNTERS:
            value = max(setup, per_pass)
        else:
            value = setup + per_pass / n
        metrics[name] = (value, "bytes" if "bytes" in name else "count")
    untraced = statistics.median(s for s, traced in res["passes"] if not traced)
    traced = statistics.median(s for s, traced in res["passes"] if traced)
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["recording", "transitions"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "posehsmm" / "cli.py").is_file():
        print(f"error: no posehsmm sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    env = _worker_env()
    sys.path[:0] = [str(SRC)]
    import gen  # imports numpy and posehsmm, after the thread settings

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        gen.MAKERS[args.workload](work / "inputs", args.seed)
        gen_s = time.perf_counter() - t0

        probes = []
        if args.workload == "recording" and not args.trace:
            probes = [_import_probe(env) for _ in range(IMPORT_PROBES)]

        result_path = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(work), str(result_path),
               str(args.seconds), str(args.trace)]
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            cmd.append(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        timeout = RUN_TIMEOUT_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  input generation (untimed)   {gen_s:.3f} s")
    if args.trace:
        metrics, spans = per_layer(res)
        correct = res["trace_errors"] == 0
        print(f"  trace accounting errors      {res['trace_errors']}")
        print(f"  {'traced function':<40} {'calls':>9} {'s':>10} {'self_s':>10}")
        for span, row in sorted(spans.items()):
            print(f"  {span:<40} {row['calls']:>9.6g} {row['s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
    else:
        metrics, detail = end_to_end(args.workload, res, probes)
        correct = True
        for label, value, unit in detail:
            print(f"  {label:<28} {value:.6g} {unit}")
    correct = correct and res["failed"] == 0 and res["pass_failures"] == 0
    print(f"  attempted {res['attempted']}  failed {res['failed']}  "
          f"fail_frac {res['failed'] / res['attempted']:.4g}  "
          f"failed passes {res['pass_failures']}"
          + (f"  hits {res['hits']}" if res["hits"] is not None else ""))
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

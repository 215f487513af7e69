"""tentspace benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload gauss_regions --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  A run starts PROCESSES fresh interpreters one after another, with
OpenBLAS and OpenMP pinned to one thread.  Each sets up, runs a closed
timed loop for ``--seconds / PROCESSES`` and checks every op's output
outside the loop; latencies are pooled over the processes, so no single
process's memory layout decides a run.  ``setup_s`` is the median of the
PROCESSES set-up times.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits each
loop into an untraced and a traced half and reports per-layer self times,
the tracing overhead and how much of the untraced op time the spans cover;
its spans are written to .bench_out/.  The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; lines before it are for
people.  ``correct`` is false when any op raised or disagreed with its
oracle, and ``wrong_frac`` says how many disagreed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_sweep", "gauss_regions", "exact_suite")
PROCESSES = 5  # fresh processes per run; each runs 1/PROCESSES of the loop
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "windows.per_scale_window_sum.ms_per_op": "ms",
    "windows.per_scale_window_sum.calls_per_op": "count",
    "windows.window_sum.ms_per_op": "ms",
    "windows.window_max.ms_per_op": "ms",
    "functionals.a_fun_cuts.self_ms_per_op": "ms",
    "functionals.c_fun.self_ms_per_op": "ms",
    "functionals.bmo_norm.ms_per_op": "ms",
    "calderon.resolve.ms_per_op": "ms",
    "calderon.phi_fourier.ms_per_op": "ms",
    "paraproduct.paraproduct.self_ms_per_op": "ms",
    "decomp.stopping_time.ms_per_op": "ms",
    "decomp.whitney.ms_per_op": "ms",
    "gaussnorm.gauss_norm.self_ms_per_op": "ms",
    "gaussnorm.gauss_norm.atom_trials_per_s": "1/s",
    "space.norm.ms_per_op": "ms",
    "field.cone_region.ms_per_op": "ms",
    "field.box_region.ms_per_op": "ms",
    "functionals.a_fun_cuts.rel_stderr_p50": "ratio",
    "gaussnorm.gauss_norm.rel_stderr_p50": "ratio",
    "harness.generate_corpus.ms": "ms",
    "proc.cpu_ms_per_op": "ms",
    "proc.sys_ms_per_op": "ms",
    "proc.minflt_per_op": "count",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
    "check.wrong_frac": "ratio",
}


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def tail(lat_ms: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    xs = sorted(lat_ms)
    n = len(xs)
    beyond = min(10, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


STDERR_METRICS = {
    "mc_sweep": "functionals.a_fun_cuts.rel_stderr_p50",
    "gauss_regions": "gaussnorm.gauss_norm.rel_stderr_p50",
}


def worker(args, sample: int, env: dict, deadline: float) -> dict:
    mode = "trace" if args.trace else "run"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds / PROCESSES), mode, str(sample)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {sample} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(workload: str, samples: list) -> dict:
    """Per-layer metrics from the traced halves, summed over the processes."""
    untraced = [t for s in samples for t in s["lat_ms"]]
    nu = len(untraced)
    nt = sum(len(s["traced_lat_ms"]) for s in samples)
    totals = {}
    for s in samples:
        for name, t in s["spans"].items():
            acc = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for k in acc:
                acc[k] += t[k]
    out = {}
    for metric in PER_LAYER:  # <span>.ms_per_op is total time, <span>.self_ms_per_op self
        span, _, kind = metric.rpartition(".")
        if kind in ("ms_per_op", "self_ms_per_op"):
            t = totals.get(span, {}).get("self" if kind.startswith("self") else "total", 0.0)
            out[metric] = 1000.0 * t / nt
    out["windows.per_scale_window_sum.calls_per_op"] = (
        totals.get("windows.per_scale_window_sum", {}).get("calls", 0) / nt)
    g = totals.get("gaussnorm.gauss_norm")
    out["gaussnorm.gauss_norm.atom_trials_per_s"] = (
        samples[0]["atom_trials_per_op"] * nt / g["total"] if g else 0.0)
    for m in STDERR_METRICS.values():
        out[m] = 0.0
    rel = [r for s in samples for r in s["rel_stderrs"]]
    if workload in STDERR_METRICS and rel:
        out[STDERR_METRICS[workload]] = statistics.median(rel)
    out["harness.generate_corpus.ms"] = statistics.median(s["corpus_ms"] for s in samples)
    out["proc.cpu_ms_per_op"] = 1000.0 * sum(s["usage"]["cpu_s"] for s in samples) / nu
    out["proc.sys_ms_per_op"] = 1000.0 * sum(s["usage"]["sys_s"] for s in samples) / nu
    out["proc.minflt_per_op"] = sum(s["usage"]["minflt"] for s in samples) / nu
    p50_u = statistics.median(untraced)
    p50_t = statistics.median(t for s in samples for t in s["traced_lat_ms"])
    out["trace.overhead_frac"] = p50_t / p50_u - 1.0
    self_ms = 1000.0 * sum(t["self"] for t in totals.values()) / nt
    out["trace.unaccounted_frac"] = 1.0 - self_ms / p50_u
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # SystemExit unwinds subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tentspace", "__init__.py")):
        raise SystemExit("no tentspace sources under ./src: run from the repository root")
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": src,
        "PYTHONDONTWRITEBYTECODE": "1",  # every set-up compiles the same sources
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    load_start = loadavg()
    samples = [worker(args, i, env, deadline) for i in range(PROCESSES)]
    environment = dict(samples[-1]["env"], nproc=os.cpu_count(),
                       loadavg_start=load_start, loadavg_end=loadavg())
    print("env", json.dumps(environment, sort_keys=True))

    errors = [e for s in samples for e in s["errors"]]
    for err in errors[:3]:
        print("op error:", err)
    if not all(s["lat_ms"] and s.get("traced_lat_ms", [0]) for s in samples):
        raise SystemExit("a process completed no op in its timed loop")
    attempted = sum(s["attempted"] for s in samples)
    checked = sum(s["checked"] for s in samples)
    wrong = sum(s["wrong"] for s in samples)
    wrong_frac = wrong / checked if checked else 1.0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"{'traced' if args.trace else 'untraced'}  {PROCESSES} processes")
    print(f"  wrong_frac   {wrong_frac:.4f}  {wrong} of {checked} checked ops disagree "
          f"with their oracle; {len(errors)} of {attempted} ops raised")
    if args.trace:
        layers = dict(layer_metrics(args.workload, samples), **{"check.wrong_frac": wrong_frac})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        for k, m in metrics.items():
            print(f"  {k:45s} {m['value']:14.4f} {m['unit']}")
        print(f"  coverage: traced self times account for "
              f"{100 * (1 - layers['trace.unaccounted_frac']):.1f}% of the untraced op "
              f"p50; unaccounted remainder {100 * layers['trace.unaccounted_frac']:.1f}%; "
              f"tracing overhead {100 * layers['trace.overhead_frac']:.1f}% on the op p50")
    else:
        setups = [s["setup_s"] for s in samples]
        lat = [t for s in samples for t in s["lat_ms"]]
        wall = sum(s["wall_s"] for s in samples)
        rss = [s["peak_rss_mb"] for s in samples]
        tail_ms, pct, beyond = tail(lat)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / wall,
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": statistics.median(rss),
        }
        notes = {
            "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setups),
            "ops_per_s": f"{len(lat)} ops in {wall:.2f} s of timed loops",
            "op_p50_ms": f"median of {len(lat)} samples",
            "op_tail_ms": f"p{pct:.1f}: {beyond} of {len(lat)} samples beyond it",
            "peak_rss_mb": "median of " + ", ".join(f"{x:.1f}" for x in rss),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        for k, m in metrics.items():
            print(f"  {k:12s} {m['value']:12.4f} {m['unit']:4s}  {notes[k]}")
    print(json.dumps({"correct": not errors and wrong == 0, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))


if __name__ == "__main__":
    main()

"""One benchmark process: set up a workload, run its timed loop, check it.

run.py starts this script in a fresh interpreter for each of a run's
processes, and reads the one JSON object it prints:

    python3 perfbench/worker.py <workload> <seed> <seconds> <run|trace> <sample>

It sets up, runs the warm-up ops and the timed loop, then checks the
outputs.  ``trace`` splits the loop into an untraced half and a traced
half, the second with every traced layer function wrapped in a timed span,
and writes the spans to .bench_out/trace-<workload>-<seed>-<sample>.json.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

SETUP_T0 = time.perf_counter()  # set-up time starts before tentspace is imported

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as W  # noqa: E402

WARMUP_OPS = 2
TRACE_DIR = ".bench_out"

# (module, attribute, span name).  A calling module holds its own reference
# to what it imported, so each function is wrapped under every importing
# module whose calls the workloads reach.
TRACED = [
    (W.functionals, "per_scale_window_sum", "windows.per_scale_window_sum"),
    (W.decomp, "per_scale_window_sum", "windows.per_scale_window_sum"),
    (W.functionals, "window_sum", "windows.window_sum"),
    (W.functionals, "window_max", "windows.window_max"),
    (W.functionals, "norm", "space.norm"),
    (W.gaussnorm, "norm", "space.norm"),
    (W.paraproduct, "norm", "space.norm"),
    (W.functionals, "a_fun_cuts", "functionals.a_fun_cuts"),
    (W.decomp, "a_fun_cuts", "functionals.a_fun_cuts"),
    (W.functionals, "c_fun", "functionals.c_fun"),
    (W.decomp, "c_fun", "functionals.c_fun"),
    (W.functionals, "bmo_norm", "functionals.bmo_norm"),
    (W.calderon, "resolve", "calderon.resolve"),
    (W.paraproduct, "paraproduct", "paraproduct.paraproduct"),
    (W.paraproduct, "lp_norm", "paraproduct.lp_norm"),
    (W.decomp, "stopping_time", "decomp.stopping_time"),
    (W.decomp, "whitney", "decomp.whitney"),
    (W.gaussnorm, "gauss_norm", "gaussnorm.gauss_norm"),
    (W.tfield, "cone_region", "field.cone_region"),
    (W.tfield, "box_region", "field.box_region"),
]


class Tracer:
    """Spans kept in memory: [op, name, start, end, parent span or -1, self]."""

    def __init__(self):
        self.spans = []
        self.stack = []  # open spans: [index, child seconds]
        self.op = -1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self.stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans[index] = [self.op, name, start, end,
                                     -1 if parent is None else parent[0],
                                     end - start - child]
        return traced

    def install(self, workload) -> None:
        for module, attr, name in TRACED:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        phi = getattr(workload, "phi", None)
        if phi is not None:
            phi.fourier = self.wrap("calderon.phi_fourier", phi.fourier)

    def totals(self) -> dict:
        out = {}
        for _, name, start, end, _, self_s in self.spans:
            t = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            t["calls"] += 1
            t["total"] += end - start
            t["self"] += self_s
        return out


def fingerprint(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def timed_loop(w, seconds: float, first: int, tracer=None) -> dict:
    """Closed loop, one client: op after op until ``seconds`` have passed.

    Only the first output of each input is kept for checking; the rest keep
    a fingerprint, which must match because a replayed input is a replayed
    seed.  So memory does not grow with the number of ops.
    """
    lat, prints, kept, errors = [], [], {}, []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    i = first
    while True:
        key = i % w.inputs_per_run
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = w.op(i)
        except Exception:  # a failed op is counted and the loop goes on
            errors.append(traceback.format_exc(limit=3))
            out = None
        t1 = time.perf_counter()
        if out is not None:
            lat.append(t1 - t0)
            prints.append((key, fingerprint(w.arrays(out))))
            kept.setdefault(key, out)
        i += 1
        if t1 - start >= seconds:
            break
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    usage = {"cpu_s": (usage1.ru_utime + usage1.ru_stime
                       - usage0.ru_utime - usage0.ru_stime),
             "sys_s": usage1.ru_stime - usage0.ru_stime,
             "minflt": usage1.ru_minflt - usage0.ru_minflt}
    return {"lat": lat, "prints": prints, "kept": kept, "errors": errors,
            "wall": wall, "next": i, "usage": usage}


def check(w, loops) -> tuple[int, int]:
    """(checked ops, ops whose output disagrees with its oracle)."""
    oracle = w.make_oracle()
    kept, verdict = {}, {}
    for loop in loops:
        for key, out in loop["kept"].items():
            kept.setdefault(key, out)
    for key, out in kept.items():
        verdict[key] = (fingerprint(w.arrays(out)), bool(w.check(key, out, oracle)))
    checked = wrong = 0
    for loop in loops:
        for key, fp in loop["prints"]:
            checked += 1
            good_fp, ok = verdict[key]
            wrong += not (ok and fp == good_fp)
    return checked, wrong


def environment() -> dict:
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh
                           if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
    }


def main() -> None:
    name, seed, seconds, mode, sample = sys.argv[1:6]
    w = W.WORKLOADS[name]()
    corpus_s = w.setup(int(seed))["corpus_s"]
    for i in range(WARMUP_OPS):
        w.op(i)
    setup_s = time.perf_counter() - SETUP_T0
    seconds = float(seconds) / (2.0 if mode == "trace" else 1.0)
    loop = timed_loop(w, seconds, WARMUP_OPS)
    result = {
        "setup_s": setup_s,
        "corpus_ms": 1000.0 * corpus_s,
        "env": environment(),
        "lat_ms": [1000.0 * t for t in loop["lat"]],
        "wall_s": loop["wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "usage": loop["usage"],
    }
    loops = [loop]
    if mode == "trace":
        tracer = Tracer()
        tracer.install(w)
        tracer.op = loop["next"]
        w.op(loop["next"])  # traced warm-up: first calls through the wrappers
        tracer.spans.clear()
        traced = timed_loop(w, seconds, loop["next"] + 1, tracer)
        loops.append(traced)
        outs = list(traced["kept"].values())
        result.update({
            "traced_lat_ms": [1000.0 * t for t in traced["lat"]],
            "spans": tracer.totals(),
            "rel_stderrs": [r for o in outs for r in w.rel_stderrs(o)],
            "atom_trials_per_op": w.atom_trials(outs[0]) if outs else 0,
        })
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{name}-{seed}-{sample}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "name", "start", "end", "parent", "self"],
                       "spans": tracer.spans}, fh)
    result["errors"] = [e for lp in loops for e in lp["errors"]]
    result["attempted"] = sum(len(lp["lat"]) + len(lp["errors"]) for lp in loops)
    result["checked"], result["wrong"] = check(w, loops)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

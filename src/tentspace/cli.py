"""Command-line front end.

    tentspace <command> [--config FILE] [--seed N] [--out DIR]
                        [--refine] [--threads K]

Commands: resolve, afun, cfun, nfun, bmo, whitney, paraproduct,
suite <name>.  Configuration is a JSON file read into the one
``harness.ExperimentConfig`` that every command and suite shares; unknown
keys are rejected.  Command-line flags override the seed, output
directory, refine mode and thread count, and the environment variable
TENTSPACE_THREADS overrides --threads.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .calderon import resolve
from .decomp import whitney, whitney_check, write_good_lambda_csv
from .field import SampledFunction
from .functionals import a_fun, bmo_norm, c_fun, n_fun
from .harness import (
    CorpusSpec,
    ExperimentConfig,
    SUITES,
    generate_corpus,
    generate_field_corpus,
    run_suite,
)
from .io import read_json, read_tsf1, write_tsf1
from .paraproduct import lp_norm, pair_paraproduct, paraproduct
from .space import RandomSource, dual, ell


class ConfigError(Exception):
    pass


def _load_config(args) -> ExperimentConfig:
    """The JSON config with the command-line flags laid over it."""
    raw = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {args.config}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    flags = {"seed": args.seed, "threads": args.threads,
             "refine": args.refine or None, "suite": getattr(args, "name", None)}
    raw.update({k: v for k, v in flags.items() if v is not None})
    try:
        return ExperimentConfig.from_dict(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _function_source(src, key: str, grid, space, seed: int) -> SampledFunction:
    if src is None:
        raise ConfigError(f"missing input {key!r} in config")
    if "file" in src:
        obj = read_tsf1(src["file"])
    elif "json_file" in src:
        obj = read_json(src["json_file"])
    elif "corpus" in src:
        spec = CorpusSpec.from_dict(src["corpus"])
        members = generate_corpus(spec, grid, space, RandomSource(seed))
        if not members:
            raise ConfigError(f"{key}: corpus produced no members")
        obj = members[min(src.get("index", 0), len(members) - 1)]
    else:
        raise ConfigError(f"{key}: provide 'file', 'json_file' or 'corpus'")
    if not isinstance(obj, SampledFunction):
        raise ConfigError(f"{key}: expected a sampled function, got a field")
    return obj


def _field_source(src, cfg: ExperimentConfig, psi):
    src = src or {}
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    if "file" in src:
        obj = read_tsf1(src["file"])
        if isinstance(obj, SampledFunction):
            raise ConfigError("field file holds a sampled function")
        return obj
    if "resolve" in src:
        f = _function_source(src["resolve"], "field.resolve", grid, space, cfg.seed)
        return resolve(f, psi, scales)
    if "random" in src:
        fields = generate_field_corpus(grid, scales, space, 1, RandomSource(cfg.seed),
                                       band=src["random"].get("band"))
        return fields[0]
    raise ConfigError("field: provide 'file', 'resolve' or 'random'")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_summary(out: Path, name: str, payload: dict) -> None:
    with open(out / name, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)


def cmd_resolve(args, cfg) -> int:
    grid, scales, psi = cfg.grid(), cfg.scales(), cfg.psi_fn()
    f = _function_source(cfg.input, "input", grid, cfg.target(), cfg.seed)
    F = resolve(f, psi, scales)
    out = _out_dir(args)
    write_tsf1(F, out / "field.tsf1")
    _write_summary(out, "resolve.json", {
        "psi": psi.name, "N": grid.N, "K": scales.K,
        "t_min": scales.t_min, "t_max": scales.t_max,
        "max_modulus": float(np.abs(F.values).max()),
    })
    return 0


def _profile_command(args, cfg, kind: str) -> int:
    F = _field_source(cfg.field, cfg, cfg.psi_fn())
    rng = RandomSource(cfg.seed)
    if kind == "afun":
        prof = a_fun(F, cfg.alpha, cfg.h, trials=cfg.trials, rng=rng)
    elif kind == "cfun":
        prof = c_fun(F, cfg.q, cfg.alpha, trials=cfg.trials, rng=rng)
    else:
        prof = n_fun(F, cfg.alpha)
    out = _out_dir(args)
    prof.to_csv(out / f"{kind}.csv")
    write_tsf1(prof.to_sampled(), out / f"{kind}.tsf1")
    _write_summary(out, f"{kind}.json", {
        "kind": prof.kind, "params": prof.params,
        "max": prof.max(), "l2": prof.lp_norm(2.0),
    })
    return 0


def cmd_bmo(args, cfg) -> int:
    f = _function_source(cfg.input, "input", cfg.grid(), cfg.target(), cfg.seed)
    value = bmo_norm(f)
    out = _out_dir(args)
    _write_summary(out, "bmo.json", {"bmo_norm": value})
    print(f"bmo_norm = {value:.12g}")
    return 0


def cmd_whitney(args, cfg) -> int:
    src = cfg.set
    if src is None:
        raise ConfigError("whitney needs a 'set' entry")
    if "cells_file" in src:
        with open(src["cells_file"]) as fh:
            cells = np.asarray(json.load(fh), dtype=bool)
    elif "threshold" in src:
        spec = src["threshold"]
        F = _field_source(spec.get("field"), cfg, cfg.psi_fn())
        prof = a_fun(F, spec.get("alpha", 1.0), rng=RandomSource(cfg.seed))
        level = spec.get("level", 0.5) * prof.max()
        cells = prof.values > level
    else:
        raise ConfigError("set: provide 'cells_file' or 'threshold'")
    dec = whitney(cfg.grid(), cells)
    try:
        rep = whitney_check(dec)
    except ImportError as e:  # scipy is an optional extra
        print(f"whitney: {e}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    _write_summary(out, "whitney.json", {
        "cube_count": len(dec.cubes),
        "cubes": [{"level": c.level, "index": list(c.index)} for c in dec.cubes],
        "check": {"ok": rep.ok, "disjoint": rep.disjoint,
                  "union_exact": rep.union_exact, "sandwich_ok": rep.sandwich_ok,
                  "worst": rep.worst},
    })
    print(f"whitney: {len(dec.cubes)} cubes, checker {'ok' if rep.ok else 'FAILED'}")
    return 0 if rep.ok else 1


def cmd_paraproduct(args, cfg) -> int:
    grid, scales, space, psi = cfg.grid(), cfg.scales(), cfg.target(), cfg.psi_fn()
    phi = cfg.phi_fn(psi)
    f = _function_source(cfg.f, "f", grid, space, cfg.seed)
    u = _function_source(cfg.u, "u", grid, ell(2, 1), cfg.seed + 1)
    res = paraproduct(f, u, psi, phi, scales)
    out = _out_dir(args)
    write_tsf1(res.field, out / "paraproduct.tsf1")
    summary = {
        "truncated": res.truncated,
        "tail_fine": res.tail_fine,
        "tail_coarse": res.tail_coarse,
        "scale_norms": [float(v) for v in res.scale_norms],
        "lp": {str(p): lp_norm(res.field, p) for p in cfg.p_list},
        "bmo_f": bmo_norm(f),
    }
    if cfg.g is not None:
        g = _function_source(cfg.g, "g", grid, dual(space), cfg.seed + 2)
        val = pair_paraproduct(f, u, g, psi, phi, scales)
        summary["pairing"] = [val.real, val.imag]
    _write_summary(out, "paraproduct.json", summary)
    return 0


def cmd_suite(args, cfg) -> int:
    report = run_suite(cfg)
    out = _out_dir(args)
    report.write(out / "report.json")
    _write_cases_csv(report, out)
    for a in report.assertions:
        mark = "PASS" if a.passed else "FAIL"
        print(f"[{mark}] {a.name}: {a.detail}")
    print(f"suite {report.suite}: {'all assertions pass' if report.passed else 'FAILURES'}"
          f" ({report.wallclock:.1f}s)")
    return 0 if report.passed else 1


def _write_cases_csv(report, out: Path) -> None:
    if report.suite == "good_lambda":
        write_good_lambda_csv(out / "good_lambda.csv",
                              [r for case in report.cases for r in case["rows"]])
        return
    flat = [c for c in report.cases if isinstance(c, dict)]
    if not flat:
        return
    keys = sorted({k for c in flat for k in c if not isinstance(c[k], (dict, list))})
    if not keys:
        return
    with open(out / "cases.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for c in flat:
            w.writerow([c.get(k, "") for k in keys])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tentspace", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--refine", action="store_true")
        p.add_argument("--threads", type=int, default=None)

    for name in ("resolve", "afun", "cfun", "nfun", "bmo", "whitney",
                 "paraproduct"):
        common(sub.add_parser(name))
    ps = sub.add_parser("suite")
    ps.add_argument("name", choices=sorted(SUITES))
    common(ps)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    env_threads = os.environ.get("TENTSPACE_THREADS")
    if env_threads is not None:
        try:
            args.threads = int(env_threads)
        except ValueError:
            print(f"TENTSPACE_THREADS must be an integer, got {env_threads!r}",
                  file=sys.stderr)
            return 2
    try:
        cfg = _load_config(args)
        if args.command in ("afun", "cfun", "nfun"):
            return _profile_command(args, cfg, args.command)
        return {"resolve": cmd_resolve, "bmo": cmd_bmo, "whitney": cmd_whitney,
                "paraproduct": cmd_paraproduct, "suite": cmd_suite}[args.command](args, cfg)
    except (ConfigError, ValueError, KeyError, FileNotFoundError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

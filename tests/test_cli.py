import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tentspace.cli import main
from tentspace.harness import SUITES, ExperimentConfig
from tentspace.field import SampledFunction, SpatialGrid
from tentspace.io import read_tsf1, write_tsf1
from tentspace.space import RandomSource, complex_gaussian_array, ell


@pytest.fixture()
def function_file(tmp_path):
    grid = SpatialGrid(1, 64)
    gen = RandomSource(1).generator()
    coeff = np.zeros((64, 1), dtype=complex)
    coeff[1:9] = complex_gaussian_array(gen, (8, 1))
    f = SampledFunction(grid, ell(2, 1), np.fft.ifft(coeff, axis=0))
    path = tmp_path / "f.tsf1"
    write_tsf1(f, path)
    return path


def run_cli(*argv):
    return main(list(argv))


def test_resolve_command(tmp_path, function_file):
    cfg = {"n": 1, "N": 64, "K": 6, "input": {"file": str(function_file)},
           "space": {"q": 2.0, "dim": 1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("resolve", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    field = read_tsf1(out / "field.tsf1")
    assert field.values.shape == (6, 64, 1)
    assert json.loads((out / "resolve.json").read_text())["K"] == 6


@pytest.mark.parametrize("cmd,key", [("afun", "alpha"), ("cfun", "q"),
                                     ("nfun", "alpha")])
def test_profile_commands(tmp_path, function_file, cmd, key):
    cfg = {
        "n": 1, "N": 64, "K": 6, "space": {"q": 2.0, "dim": 1},
        "field": {"resolve": {"file": str(function_file)}},
        "alpha": 1.0, "q": 1.0,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli(cmd, "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    lines = (out / f"{cmd}.csv").read_text().strip().splitlines()
    assert len(lines) == 65
    summary = json.loads((out / f"{cmd}.json").read_text())
    assert summary["max"] >= 0


def test_cfun_command_rejects_one_trial(tmp_path, capsys):
    cfg = {"n": 1, "N": 64, "K": 6, "space": {"q": "inf", "dim": 3},
           "field": {"random": {}}, "q": 1.0, "trials": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = run_cli("cfun", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "at least two trials" in capsys.readouterr().err


def test_bmo_command(tmp_path, function_file, capsys):
    cfg = {"n": 1, "N": 64, "input": {"file": str(function_file)},
           "space": {"q": 2.0, "dim": 1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = run_cli("bmo", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    assert rc == 0
    assert "bmo_norm" in capsys.readouterr().out


def test_whitney_command(tmp_path):
    cells = [False] * 64
    for i in range(20, 29):
        cells[i] = True
    cells_path = tmp_path / "cells.json"
    cells_path.write_text(json.dumps(cells))
    cfg = {"n": 1, "N": 64, "set": {"cells_file": str(cells_path)}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("whitney", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    payload = json.loads((out / "whitney.json").read_text())
    assert payload["check"]["ok"]
    assert payload["cube_count"] >= 1


def test_paraproduct_command(tmp_path):
    cfg = {
        "n": 1, "N": 64, "K": 8, "space": {"q": 1.0, "dim": 2},
        "f": {"corpus": {"family": "bmo_step", "count": 1}},
        "u": {"corpus": {"family": "lp_random", "count": 1}},
        "g": {"corpus": {"family": "bandlimited_random", "count": 1}},
        "p_list": [2.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("paraproduct", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    summary = json.loads((out / "paraproduct.json").read_text())
    assert "pairing" in summary and "scale_norms" in summary


def test_suite_command_and_artifacts(tmp_path):
    cfg = {"N": 128, "K": 12, "cases": 4, "q_list": [1.0], "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("suite", "duality", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["suite"] == "duality" and report["passed"]
    assert (out / "cases.csv").exists()


def test_suite_good_lambda_csv(tmp_path):
    cfg = {"N": 128, "K": 12, "cases": 3, "q_list": [1.0],
           "gamma_list": [1.0, 0.5], "beta": 3.0, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("suite", "good_lambda", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    rows = (out / "good_lambda.csv").read_text().strip().splitlines()
    assert rows[0] == "gamma,lambda,m_lhs,m_cq,m_beta,fitted_C"
    assert len(rows) > 1


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("suite", "duality", "--config", str(bad)) == 2
    missing = run_cli("afun", "--config", str(tmp_path / "nope.json"))
    assert missing == 2
    unknown_key = tmp_path / "uk.json"
    unknown_key.write_text(json.dumps({"bogus": 1}))
    assert run_cli("suite", "duality", "--config", str(unknown_key)) == 2
    # commands share the suites' key check: a misspelt alpha is not ignored
    misspelt = tmp_path / "alpah.json"
    misspelt.write_text(json.dumps({"N": 64, "K": 6, "field": {"random": {}},
                                    "alpah": 2.0}))
    assert run_cli("afun", "--config", str(misspelt)) == 2
    bad_axis = tmp_path / "axis.json"
    bad_axis.write_text(json.dumps({"refine_axis": "M"}))
    assert run_cli("suite", "duality", "--config", str(bad_axis), "--refine") == 2


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_rejects_no_cases(tmp_path, capsys, suite):
    # a suite over an empty corpus would pass its assertions vacuously
    for cases in (0, -1, 2.5):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"N": 32, "K": 6, "cases": cases}))
        assert run_cli("suite", suite, "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")) == 2
        assert "cases must be an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite, key, value, message", [
    ("duality", "N", 64.0, "N must be an integer"),
    ("duality", "K", 8.5, "K must be an integer"),
    ("duality", "n", 1.0, "n must be an integer"),
    ("paraproduct", "band", 4.0, "band must be an integer"),
    ("duality", "q_list", [], "q_list must not be empty"),
    ("good_lambda", "q_list", [], "q_list must not be empty"),
    ("carleson_embedding", "p_list", [], "p_list must not be empty"),
    ("duality", "rho", math.nan, "rho must exceed 1"),
    ("good_lambda", "lambda_points", 0, "lambda_points must be an integer of at least 1"),
    ("good_lambda", "gamma_list", [], "gamma_list must not be empty"),
])
def test_suite_rejects_bad_config_keys(tmp_path, capsys, suite, key, value, message):
    # each of these escaped as a TypeError or IndexError, failed the suite,
    # or passed it over an empty table
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 32, "K": 6, "cases": 2, key: value}))
    assert run_cli("suite", suite, "--config", str(cfg_path),
                   "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_threads_env_override(tmp_path, monkeypatch):
    cfg = {"N": 128, "K": 12, "cases": 2, "q_list": [1.0], "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    monkeypatch.setenv("TENTSPACE_THREADS", "2")
    rc = run_cli("suite", "duality", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["threads"] == 2
    monkeypatch.setenv("TENTSPACE_THREADS", "zebra")
    assert run_cli("suite", "duality", "--config", str(cfg_path)) == 2


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tentspace.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tentspace" in proc.stdout


EXACT_PATH_SCRIPT = """
import sys

import numpy as np

import tentspace as ts
from tentspace.harness import CorpusSpec, generate_corpus

for n, N in ((1, 64), (2, 16)):
    grid = ts.SpatialGrid(n, N)
    scales = ts.ScaleGrid(2.0 * grid.spacing, 0.25, 8)
    radii = ts.dyadic_radii(grid)
    f = generate_corpus(CorpusSpec("bmo_log", 1), grid, ts.ell(2, 2), ts.RandomSource(1))[0]
    u = generate_corpus(CorpusSpec("lp_random", 1), grid, ts.ell(2, 1), ts.RandomSource(2))[0]
    psi = ts.mexican_hat(n)
    F = ts.resolve(f, psi, scales)
    cuts = ts.a_fun_cuts(F, 1.0, list(radii))
    ts.c_fun(F, 1.0, radii=radii, a_profiles=cuts)
    ts.bmo_norm(f)
    ts.paraproduct(f, u, psi, ts.complementary(psi), scales)
    ts.stopping_time(F, q=1.0, rho=2.0)
    A = cuts[0].values
    ts.whitney(grid, A > np.percentile(A, 90))
    # the l^1_3 closed form, on regions and in the sweeps
    G = ts.HalfSpaceField(grid, scales, ts.ell(1, 3), F.values[..., [0, 0, 1]])
    x = (0.25,) * n
    ts.gauss_norm(G, ts.cone_region(grid, scales, x, 1.0, 0.2))
    ts.gauss_norm(G, ts.box_region(grid, scales, ts.ball_at(grid, x, 0.1)))
    ts.c_fun(G, 1.0, radii=radii, a_profiles=ts.a_fun_cuts(G, 1.0, list(radii)))
print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_exact_path_leaves_scipy_unloaded():
    # scipy costs a fresh interpreter about 0.4 s: only whitney_check and
    # the tests load it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", EXACT_PATH_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == []


WITHOUT_SCIPY_SCRIPT = """
import json, sys

sys.modules["scipy"] = None  # as if scipy were not installed

import numpy as np

import tentspace as ts
from tentspace.cli import main

grid = ts.SpatialGrid(1, 64)
cells = np.zeros(64, dtype=bool)
cells[20:29] = True
try:
    ts.whitney_check(ts.whitney(grid, cells))
except ImportError as e:
    print(e)
with open(sys.argv[1], "w") as fh:
    json.dump({"n": 1, "N": 64, "set": {"cells_file": sys.argv[2]}}, fh)
with open(sys.argv[2], "w") as fh:
    json.dump(cells.tolist(), fh)
sys.exit(main(["whitney", "--config", sys.argv[1], "--out", sys.argv[3]]))
"""


def test_whitney_check_without_scipy_names_the_extra(tmp_path):
    # scipy is the optional [check] extra: the checker raises a clear
    # ImportError and the whitney command exits 2 with it, not a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY_SCRIPT,
                           str(tmp_path / "cfg.json"), str(tmp_path / "cells.json"),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert "pip install tentspace[check]" in done.stdout
    assert done.returncode == 2
    assert "pip install tentspace[check]" in done.stderr
    assert "Traceback" not in done.stderr


def test_custom_psi_from_tsf1(tmp_path):
    from tentspace.calderon import mexican_hat

    grid = SpatialGrid(1, 1024, 16.0)
    x = grid.coords()
    xw = np.where(x > grid.L / 2, x - grid.L, x)
    vals = mexican_hat(1).spatial(xw)[:, None].astype(complex)
    psi_path = tmp_path / "psi.tsf1"
    write_tsf1(SampledFunction(grid, ell(2, 1), vals), psi_path)

    fn_grid = SpatialGrid(1, 64)
    gen = RandomSource(4).generator()
    coeff = np.zeros((64, 1), dtype=complex)
    coeff[1:7] = complex_gaussian_array(gen, (6, 1))
    f = SampledFunction(fn_grid, ell(2, 1), np.fft.ifft(coeff, axis=0))
    f_path = tmp_path / "f.tsf1"
    write_tsf1(f, f_path)

    cfg = {"n": 1, "N": 64, "K": 6, "space": {"q": 2.0, "dim": 1},
           "psi": {"file": str(psi_path), "name": "mh_custom"},
           "input": {"file": str(f_path)}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("resolve", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    field = read_tsf1(out / "field.tsf1")
    assert float(np.abs(field.values).max()) > 0


def test_suite_accepts_p_inf(tmp_path):
    cfg = {"N": 128, "K": 12, "cases": 3, "seed": 5,
           "p_list": ["inf"], "q_list": [1.0], "alpha_list": [1.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run_cli("suite", "AC", "--config", str(cfg_path), "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert any("p=inf" in k for k in report["bands"])


def test_paraproduct_with_bump_phi(tmp_path):
    cfg = {
        "n": 1, "N": 64, "K": 8, "space": {"q": 2.0, "dim": 1},
        "f": {"corpus": {"family": "bmo_log", "count": 1}},
        "u": {"corpus": {"family": "lp_random", "count": 1}},
        "phi": {"name": "gauss_bump"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("paraproduct", "--config", str(cfg_path), "--out", str(out)) == 0
    summary = json.loads((out / "paraproduct.json").read_text())
    assert summary["lp"]["2.0"] > 0


RESOLVED_FIELD = {"resolve": {"corpus": {"family": "bmo_log", "count": 1}}}


@pytest.mark.parametrize("argv,cfg,rc", [
    # one schema: the spellings each side used to refuse or crash on
    (["nfun"], {"psi": {"name": "mexican_hat"}, "field": RESOLVED_FIELD}, 0),
    (["nfun"], {"t_min": None, "field": {"random": {}}}, 0),
    (["suite", "paraproduct"], {"psi": {"name": "mexican_hat"}}, 0),
    (["suite", "duality"], {"space": {"q": 2.0, "dim": 1}}, 0),
    # malformed space and psi values are configuration errors
    (["nfun"], {"psi": "mexican_hat", "field": RESOLVED_FIELD}, 2),
    (["suite", "paraproduct"], {"psi": "mexican_hat"}, 2),
    (["suite", "paraproduct"], {"psi": {"name": "no_such_kernel"}}, 2),
    (["suite", "paraproduct"], {"psi": {"name": "mexican_hat", "params": {"w": 1}}}, 2),
    (["suite", "duality"], {"space": 2.0}, 2),
    (["nfun"], {"space": {"q": 2.0, "d": 1}, "field": {"random": {}}}, 2),
    (["nfun"], {"field": 3}, 2),
    # an unknown corpus key or phi parameter is a configuration error too
    (["paraproduct"], {"f": {"corpus": {"family": "bmo_log", "count": 1, "size": 3}},
                       "u": {"corpus": {"family": "lp_random", "count": 1}}}, 2),
    (["suite", "charBMO"], {"corpus": [{"family": "bmo_log", "count": 2, "size": 3}]}, 2),
    (["paraproduct"], {"f": {"corpus": {"family": "bmo_log", "count": 1}},
                       "u": {"corpus": {"family": "lp_random", "count": 1}},
                       "phi": {"name": "gauss_bump", "params": {"width": 1}}}, 2),
    # N(F) takes the target norm, so a vector-valued field is accepted
    (["nfun"], {"space": {"q": 1.0, "dim": 3}, "field": {"random": {}}}, 0),
])
def test_one_config_schema(tmp_path, capsys, argv, cfg, rc):
    # commands run on l^2_1 unless the case sets "space"
    base = {"N": 64, "K": 8, "seed": 5, "trials": 64,
            **({"cases": 4} if argv[0] == "suite" else {"space": {"dim": 1}})}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**base, **cfg}))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out)) == rc
    if rc == 2:
        assert "configuration error" in capsys.readouterr().err


def test_readme_configs_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"echo '(\{.*?\})' >", readme, flags=re.S)
    assert len(blocks) >= 3
    for block in blocks:
        cfg = ExperimentConfig.from_dict(json.loads(block))
        cfg.scales(), cfg.target()
        if "file" not in cfg.psi:
            cfg.psi_fn()

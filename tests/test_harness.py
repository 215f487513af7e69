import json
import math

import numpy as np
import pytest

from tentspace.calderon import resolve
from tentspace.field import ScaleGrid, SpatialGrid
from tentspace.harness import (
    _spearman,
    Assertion,
    CorpusSpec,
    ExperimentConfig,
    SUITES,
    generate_corpus,
    generate_column_corpus,
    generate_field_corpus,
    run_suite,
)
from tentspace.functionals import bmo_norm, c_fun
from tentspace.paraproduct import TAIL_TOL
from tentspace.space import RandomSource, ell

GRID = SpatialGrid(1, 128)
SCALES = ScaleGrid(0.01, 0.25, 12)

SMALL = dict(N=128, K=12, seed=3, cases=6, trials=96)


def test_corpus_reproducible_and_counted():
    spec = CorpusSpec("bandlimited_random", 4)
    a = generate_corpus(spec, GRID, ell(2, 2), RandomSource(5))
    b = generate_corpus(spec, GRID, ell(2, 2), RandomSource(5))
    assert len(a) == 4
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    assert generate_corpus(CorpusSpec("bmo_log", 0), GRID, ell(2, 2),
                           RandomSource(1)) == []


def test_corpus_families_have_positive_bmo():
    for family in ("bmo_log", "bmo_step", "lacunary", "bandlimited_random"):
        fs = generate_corpus(CorpusSpec(family, 2), GRID, ell(2, 1), RandomSource(9))
        for f in fs:
            b = bmo_norm(f)
            assert math.isfinite(b) and b > 0, family


def test_corpus_mixing_rules():
    spec = CorpusSpec("bmo_step", 1, mixing="independent")
    f = generate_corpus(spec, GRID, ell(2, 3), RandomSource(2))[0]
    cols = [f.values[..., i] for i in range(3)]
    assert not np.array_equal(cols[0], cols[1])
    spec2 = CorpusSpec("bmo_step", 1, mixing="single_direction")
    g = generate_corpus(spec2, GRID, ell(2, 3), RandomSource(2))[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = g.values[..., 1] / g.values[..., 0]
    finite = np.isfinite(ratio)
    assert np.allclose(ratio[finite], ratio[finite].flat[0])


def test_corpus_rejects_unknown_family():
    with pytest.raises(ValueError):
        CorpusSpec("nope", 1)


def test_field_corpus_shapes_and_options():
    fs = generate_field_corpus(GRID, SCALES, ell(1, 2), 2, RandomSource(3))
    assert len(fs) == 2
    assert fs[0].values.shape == (12, 128, 2)
    cols = generate_column_corpus(GRID, SCALES, ell(2, 1), 2, RandomSource(4))
    nz = np.abs(cols[0].values[..., 0]).sum(axis=0) > 0
    assert nz.sum() <= 4  # sparse in space


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"suite": "duality", "bogus": 1})


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite(ExperimentConfig(suite="nope"))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_all_suites_pass_small(suite):
    extra = {
        # the rank-correlation gate is calibrated for the desk-scale corpus;
        # at this miniature size it needs an explicit looser tolerance
        "charBMO": dict(q_list=[1.0], space={"q": 2.0, "dim": 2},
                        tolerances={"rank_corr_min": 0.8}),
        "AC": dict(p_list=[2.0], q_list=[1.0], alpha_list=[1.0, 2.0]),
        "duality": dict(q_list=[1.0], rho=2.0),
        "carleson_embedding": dict(q_list=[1.0], p_list=[2.0], alpha=1.0,
                                   beta=2.0, space={"q": 1.0, "dim": 2}),
        "paraproduct": dict(p_list=[2.0], space={"q": 1.0, "dim": 2}),
        "good_lambda": dict(q_list=[1.0], gamma_list=[1.0, 0.5], beta=3.0),
    }[suite]
    cfg = ExperimentConfig(suite=suite, **SMALL, **extra)
    rep = run_suite(cfg)
    assert rep.passed, [a for a in rep.assertions if not a.passed]
    assert rep.wallclock >= 0
    assert rep.config["seed"] == 3
    if suite == "good_lambda":
        assert rep.counts == {
            "wrap_warning": sum(c["wrap_warning"] for c in rep.cases)}
        assert rep.to_json_obj()["counts"] == rep.counts


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_all_suites_run_in_2d(suite):
    extra = dict(gamma_list=[1.0, 0.5], beta=3.0) if suite == "good_lambda" else {}
    cfg = ExperimentConfig(suite=suite, n=2, N=64, K=16, cases=4, seed=3, **extra)
    rep = run_suite(cfg)
    assert rep.assertions
    if suite == "charBMO":
        # the rank-correlation gate needs the desk-scale corpus, at n = 1 too
        checks = {a.name: a for a in rep.assertions}
        failed = [checks[k] for k in ("translation_invariance", "dilation_drift")
                  if not checks[k].passed]
    else:
        failed = [a for a in rep.assertions if not a.passed]
    assert not failed, failed


def test_suite_reports_reproducible():
    cfg = ExperimentConfig(suite="duality", **SMALL, q_list=[1.0])
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)
    assert json.dumps(r1.to_json_obj(), default=float) == json.dumps(
        r2.to_json_obj(), default=float
    ) or _strip_wallclock(r1) == _strip_wallclock(r2)


def _strip_wallclock(rep):
    obj = rep.to_json_obj()
    obj.pop("wallclock_s", None)
    return json.dumps(obj, default=float)


def test_ac_rejects_all_invalid_pairs():
    cfg = ExperimentConfig(suite="AC", **SMALL, p_list=[1.0], q_list=[2.0])
    with pytest.raises(ValueError):
        run_suite(cfg)


def test_ac_passes_on_monte_carlo_target():
    # A and every C_q come from one sweep per aperture, so independent
    # draws cannot break the pointwise bound C_q <= M(A^q)^(1/q)
    cfg = ExperimentConfig(suite="AC", N=64, K=16, cases=4,
                           space={"q": "inf", "dim": 3})
    rep = run_suite(cfg)
    assert rep.passed, [a for a in rep.assertions if not a.passed]


def test_refine_mode_adds_stability_assertions():
    cfg = ExperimentConfig(suite="duality", **SMALL, q_list=[1.0], refine=True)
    rep = run_suite(cfg)
    names = [a.name for a in rep.assertions]
    assert any(n.startswith("refine_stable_") for n in names)
    assert "refined" in rep.bands
    assert rep.passed


def test_threads_give_same_result():
    cfg1 = ExperimentConfig(suite="charBMO", **SMALL, q_list=[1.0])
    cfg2 = ExperimentConfig(suite="charBMO", **{**SMALL, "threads": 4}, q_list=[1.0])
    r1, r2 = run_suite(cfg1), run_suite(cfg2)
    assert _strip_wallclock_cases(r1) == _strip_wallclock_cases(r2)


def _strip_wallclock_cases(rep):
    obj = rep.to_json_obj()
    obj.pop("wallclock_s", None)
    obj["config"].pop("threads", None)
    return json.dumps(obj, default=float)


def test_duality_constant_matches_formula():
    cfg = ExperimentConfig(suite="duality", **SMALL, q_list=[1.0], rho=2.0)
    rep = run_suite(cfg)
    # rho (1 - rho^-q)^-1 = 4 at rho=2, q=1
    assert "4" in rep.assertions[0].detail
    for case in rep.cases:
        assert case["lhs"] <= 4.0 * 1.1 * case["rhs"] + 1e-15


def test_charbmo_zero_guard_excludes_degenerate_members():
    cfg = ExperimentConfig(
        suite="charBMO", N=128, K=12, seed=6, trials=96, q_list=[1.0],
        corpus=[{"family": "bmo_step", "count": 2, "amplitude": 0.0},
                {"family": "bandlimited_random", "count": 4}],
        # this test exercises the zero-guard; the drift gate is calibrated
        # for the desk-scale corpus, so open it up here
        tolerances={"rank_corr_min": 0.0, "dilation_drift": 1.0},
    )
    rep = run_suite(cfg)
    assert rep.passed
    assert len(rep.cases) == 6  # zero members reported but excluded from bands
    assert sum(1 for c in rep.cases if c["bmo"] == 0.0) == 2
    assert math.isfinite(rep.bands["ratio_q=1"]["spread"])


def test_charbmo_translation_invariance_on_non_hilbert_target():
    # l^1_3 runs the exact closed-form sweep; the l^inf_3 case below keeps
    # the Monte Carlo sweep covered
    cfg = ExperimentConfig(suite="charBMO", n=1, N=128, K=16, seed=3, q_list=[1.0],
                           space={"q": 1.0, "dim": 3}, trials=128)
    check = next(a for a in run_suite(cfg).assertions
                 if a.name == "translation_invariance")
    assert check.passed, check.detail


def test_charbmo_translation_invariance_on_monte_carlo_target():
    # the Monte Carlo sweep's draws do not depend on where the field sits
    cfg = ExperimentConfig(suite="charBMO", n=1, N=128, K=16, seed=3, q_list=[1.0],
                           space={"q": "inf", "dim": 3}, trials=128)
    check = next(a for a in run_suite(cfg).assertions
                 if a.name == "translation_invariance")
    assert check.passed, check.detail


def test_paraproduct_suite_fails_cleanly_without_finite_ratios(monkeypatch):
    import tentspace.harness as harness

    # a zero BMO norm leaves every boundedness ratio undefined
    monkeypatch.setattr(harness, "bmo_norm", lambda f: 0.0)
    cfg = ExperimentConfig(suite="paraproduct", **SMALL, p_list=[2.0],
                           space={"q": 1.0, "dim": 2})
    rep = run_suite(cfg)
    [bounded] = [a for a in rep.assertions if a.name == "R_bounded_p=2"]
    assert not bounded.passed
    assert "no finite ratio" in bounded.detail
    assert math.isnan(rep.bands["R_p=2"]["max"])
    assert rep.bands["R_p=2"]["dropped"] == cfg.cases


def test_paraproduct_suite_passes_in_2d():
    cfg = ExperimentConfig(suite="paraproduct", n=2, N=32, K=8, cases=4, seed=3)
    rep = run_suite(cfg)
    assert rep.assertions
    assert rep.passed, [a for a in rep.assertions if not a.passed]


def test_paraproduct_suite_counts_tails_at_each_end():
    cfg = ExperimentConfig(suite="paraproduct", **SMALL, p_list=[2.0],
                           space={"q": 1.0, "dim": 2})
    rep = run_suite(cfg)
    counts = rep.counts
    assert counts["tail_tol"] == TAIL_TOL
    fine = [c["tail_fine"] for c in rep.cases]
    coarse = [c["tail_coarse"] for c in rep.cases]
    assert len(fine) == len(coarse) == cfg.cases
    assert counts["tail_fine_above_tol"] == sum(v > TAIL_TOL for v in fine)
    assert counts["tail_coarse_above_tol"] == sum(v > TAIL_TOL for v in coarse)
    assert counts["truncated"] == sum(c["truncated"] for c in rep.cases)
    assert counts["truncated"] == sum(max(a, b) > TAIL_TOL
                                      for a, b in zip(fine, coarse))
    assert rep.to_json_obj()["counts"] == counts


def test_refine_fails_on_empty_band(monkeypatch):
    import tentspace.harness as harness

    def stub(cfg):
        fine = cfg.N > SMALL["N"]
        bands = {
            "steady": harness._band([1.0, 2.0]),
            "empty_base": harness._band([1.5] if fine else []),
            "empty_fine": harness._band([] if fine else [1.5]),
        }
        return dict(cases=[], bands=bands, assertions=[Assertion("stub", True, "")])

    monkeypatch.setitem(harness.SUITES, "stub", stub)
    rep = run_suite(ExperimentConfig(suite="stub", **SMALL, refine=True))
    refine = {a.name: a for a in rep.assertions if a.name.startswith("refine_stable_")}
    assert refine["refine_stable_steady"].passed
    for key, side in (("empty_base", "base"), ("empty_fine", "refined")):
        check = refine[f"refine_stable_{key}"]
        assert not check.passed
        assert "band is empty" in check.detail and side in check.detail
    assert not rep.passed


def test_charbmo_shares_one_sweep_across_q():
    # Monte Carlo target, so every per-q c_fun call redraws from cfg.rng()
    corpus = [{"family": "bmo_log", "count": 2}, {"family": "bmo_step", "count": 1}]
    cfg = ExperimentConfig(suite="charBMO", N=64, K=8, seed=5, trials=32,
                           space={"q": 1.0, "dim": 2}, q_list=[1.0, 2.0],
                           corpus=corpus)
    rep = run_suite(cfg)
    grid, scales, space, psi = cfg.grid(), cfg.scales(), cfg.target(), cfg.psi_fn()
    fns = []
    for j, spec in enumerate(cfg.corpus_specs()):
        fns.extend(generate_corpus(spec, grid, space, cfg.rng().derive(j)))
    assert len(rep.cases) == len(fns)
    for case, fn in zip(rep.cases, fns):
        F = resolve(fn, psi, scales)
        assert case["bmo"] == bmo_norm(fn)
        for q in cfg.q_list:
            ref = c_fun(F, q, cfg.alpha, trials=cfg.trials, rng=cfg.rng()).max()
            assert case[f"cq_inf_q={q:g}"] == ref


def test_spearman_averages_tied_ranks():
    from scipy.stats import spearmanr

    a = np.array([0.5, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 1.0, 4.0])
    b = np.array([1.0, 3.0, 2.0, 2.0, 7.0, 6.0, 9.0, 0.0, 6.0])
    assert _spearman(a, b) == pytest.approx(spearmanr(a, b).statistic, rel=1e-12)
    assert _spearman(a, -a) == pytest.approx(-1.0, rel=1e-12)
    assert _spearman(a, np.ones_like(a)) == 0.0


def test_config_built_directly_accepts_inf_exponents():
    # from_dict and the CLI read "inf" from JSON; a library caller may pass it too
    cfg = ExperimentConfig(suite="paraproduct", p_list=["inf", 2], q_list=["Infinity", 1])
    assert cfg.p_list == [math.inf, 2.0] and cfg.q_list == [math.inf, 1.0]
    rep = run_suite(ExperimentConfig(suite="paraproduct", **dict(SMALL, cases=3),
                                     p_list=["inf"]))
    assert any("p=inf" in k for k in rep.bands)


def test_refine_axis_is_checked(monkeypatch):
    import tentspace.harness as harness

    with pytest.raises(ValueError, match="refine_axis"):
        ExperimentConfig(suite="duality", refine_axis="M")
    seen = []

    def stub(cfg):
        seen.append((cfg.N, cfg.K))
        return dict(cases=[], bands={"b": harness._band([1.0])}, assertions=[])

    monkeypatch.setitem(harness.SUITES, "stub", stub)
    rep = run_suite(ExperimentConfig(suite="stub", **SMALL, refine=True,
                                     refine_axis="K"))
    assert seen == [(128, 12), (128, 24)]
    assert "K-doubling" in rep.assertions[0].detail

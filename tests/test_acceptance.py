"""Acceptance criteria, one test per criterion, desk scale (n=1, N=512, K=32).

Every tolerance is stated inline; every random input is pinned by seed, so
each criterion is deterministic.  Each test prints one pass/fail line.
"""

import math

import numpy as np

from tentspace.calderon import complementary, gauss_bump, mexican_hat, resolve
from tentspace.decomp import set_measure, stopping_time, whitney, whitney_check
from tentspace.field import (
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
    SpatialGrid,
    ball_at,
    box_region,
    cone_region,
    dyadic_radii,
)
from tentspace.functionals import c_fun, maximal_fn, n_fun
from tentspace.gaussnorm import gauss_norm
from tentspace.harness import (
    CorpusSpec,
    ExperimentConfig,
    generate_corpus,
    generate_field_corpus,
    run_suite,
)
from tentspace.paraproduct import lp_norm, paraproduct
from tentspace.space import RandomSource, complex_gaussian_array, ell, norm

GRID = SpatialGrid(1, 512)
SCALES = ScaleGrid(2.0 * GRID.spacing, 0.25, 32)


def record(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_region(gen, grid=GRID, scales=SCALES):
    kind = gen.integers(0, 2)
    if kind == 0:
        x = grid.spacing * int(gen.integers(0, grid.N))
        alpha = float(gen.uniform(0.3, 1.5))
        h = float(gen.uniform(4 * grid.spacing, scales.t_max))
        return cone_region(grid, scales, x, alpha, h)
    c = grid.spacing * int(gen.integers(0, grid.N))
    r = float(gen.uniform(8 * grid.spacing, grid.L / 4))
    return box_region(grid, scales, ball_at(grid, c, r))


def test_criterion_1_gauss_norm_oracle_equivalence():
    gen = np.random.default_rng(2026)
    space = ell(2, 3)
    within3 = 0
    rel_ok = True
    for case in range(100):
        g = RandomSource(40_000 + case).generator()
        vals = complex_gaussian_array(g, (SCALES.K,) + GRID.shape + (3,))
        F = HalfSpaceField(GRID, SCALES, space, vals)
        region = random_region(gen)
        exact = gauss_norm(F, region)
        mc = gauss_norm(F, region, trials=2000, rng=RandomSource(41_000 + case),
                        force_mc=True)
        if abs(mc.value - exact.value) <= 3 * mc.stderr:
            within3 += 1
        if abs(mc.value - exact.value) > 0.05 * exact.value:
            rel_ok = False
    ok = within3 >= 99 and rel_ok
    record(1, ok, f"forced-MC vs exact: {within3}/100 within 3*stderr, "
                  f"all within 5% rel: {rel_ok}")


def test_criterion_2_rank_one_identity():
    ok_count = 0
    total = 0
    for space, base in [(ell(1, 3), 50_000), (ell(4, 2), 51_000)]:
        for case in range(25):
            g = RandomSource(base + case).generator()
            h = complex_gaussian_array(g, (SCALES.K,) + GRID.shape)
            xi = complex_gaussian_array(g, space.dim)
            F = HalfSpaceField(GRID, SCALES, space, h[..., None] * xi)
            region = random_region(np.random.default_rng(base + case))
            est = gauss_norm(F, region, trials=2000, rng=RandomSource(base + 500 + case),
                             force_mc=True)
            flat = h.reshape(SCALES.K, GRID.size)
            h_atoms = flat[region.scale_idx, region.spatial_idx]
            oracle = math.sqrt(float((region.weights * np.abs(h_atoms) ** 2).sum()))
            oracle *= float(norm(space, xi))
            total += 1
            if abs(est.value - oracle) <= 3 * est.stderr:
                ok_count += 1
    ok = ok_count == total
    record(2, ok, f"rank-one identity within 3*stderr in {ok_count}/{total} cases")


def test_criterion_3_reproducing_formula():
    from tentspace.calderon import reproducing_residual

    phi = complementary(mexican_hat(1))
    freqs = np.geomspace(0.05, 80.0, 16)
    freqs[::2] *= -1.0
    res = reproducing_residual(mexican_hat(1), phi, freqs, 1e-3, 1e3, 256)
    record(3, res < 1e-3, f"reproducing residual {res:.2e} < 1e-3 at 16 frequencies")


def test_criterion_4_constant_annihilation():
    c = 2.5 - 1.5j
    f = SampledFunction.constant(GRID, ell(2, 2), [c, -0.5 * c])
    F = resolve(f, mexican_hat(1), SCALES)
    r1 = float(np.abs(F.values).max())
    u = generate_corpus(CorpusSpec("lp_random", 1), GRID, ell(2, 1),
                        RandomSource(42))[0]
    phi = complementary(mexican_hat(1))
    res = paraproduct(f, u, mexican_hat(1), phi, SCALES)
    r2 = lp_norm(res.field, 2)
    ok = r1 < 1e-10 * abs(c) and r2 < 1e-10
    record(4, ok, f"resolve(const) sup {r1:.2e} < 1e-10*|c|; "
                  f"||P(const, u)||_2 = {r2:.2e} < 1e-10")


def test_criterion_5_cq_monotone_in_q():
    qs = [0.5, 1.0, 2.0, 4.0]
    fields = generate_field_corpus(GRID, SCALES, ell(2, 1), 20, RandomSource(43))
    worst = -math.inf
    ok = True
    for F in fields:
        profs = [c_fun(F, q).values for q in qs]
        for lo, hi in zip(profs, profs[1:]):
            gap = float((lo - hi).max())
            worst = max(worst, gap)
            if gap > 1e-12:
                ok = False
    record(5, ok, f"C_q nondecreasing in q pointwise on 20 fields "
                  f"(largest pointwise excess {worst:.2e}, tolerance 1e-12)")


def test_criterion_6_whitney_correctness():
    gen = np.random.default_rng(44)
    bad = 0
    for case in range(50):
        smooth = np.fft.ifft(
            np.fft.fft(gen.normal(size=GRID.N))
            * np.exp(-np.abs(np.fft.fftfreq(GRID.N) * GRID.N) / 6)
        ).real
        cells = smooth > np.quantile(smooth, float(gen.uniform(0.3, 0.8)))
        if not cells.any() or cells.all():
            continue
        rep = whitney_check(whitney(GRID, cells))
        if not rep.ok:
            bad += 1
    record(6, bad == 0, f"Whitney checker: {bad}/50 violations "
                        "(disjoint, exact union, distance sandwich)")


def test_criterion_7_stopping_time_measure_lemma():
    from tentspace.harness import generate_column_corpus

    rho, q = 2.0, 1.0
    gen = np.random.default_rng(45)
    radii = dyadic_radii(GRID)
    # half homogeneous fields (tau rarely stops) and half single-column
    # fields (tau genuinely finite near the peaks)
    fields = generate_field_corpus(GRID, SCALES, ell(2, 1), 5,
                                   RandomSource(46_000))
    fields += generate_column_corpus(GRID, SCALES, ell(2, 1), 5,
                                     RandomSource(46_100), columns=1)
    violations = 0
    checks = 0
    finite_pts = 0
    for F in fields:
        prof = stopping_time(F, q=q, rho=rho)
        finite_pts += int(np.isfinite(prof.tau).sum())
        for _ in range(50):
            r = float(radii[gen.integers(0, radii.size)])
            c = GRID.spacing * int(gen.integers(0, GRID.N))
            members = GRID.point_distance(c) < r
            ball = set_measure(GRID, members)
            good = set_measure(GRID, members & (prof.tau > r))
            checks += 1
            if good < (1 - rho ** (-q)) * ball - GRID.cell_volume - 1e-12:
                violations += 1
    record(7, violations == 0 and finite_pts > 0,
           f"|B and {{tau > r}}| >= (1 - rho^-q)|B| - one cell in "
           f"{checks - violations}/{checks} ball checks "
           f"({finite_pts} finite-tau points keep the bound nontrivial)")


def test_criterion_8_duality_with_proof_constant():
    cfg = ExperimentConfig(suite="duality", N=512, K=32, cases=20, seed=47,
                           q_list=[1.0], rho=2.0, space={"q": 2.0, "dim": 2})
    rep = run_suite(cfg)
    worst = max(case["lhs"] / case["rhs"] for case in rep.cases)
    ok = rep.passed and worst <= 4.4
    record(8, ok, f"LHS <= 4.4 RHS on 20 dual pairs (worst ratio {worst:.3f})")


def test_criterion_9_good_lambda_consistency():
    reps = {}
    for N in (256, 512):
        cfg = ExperimentConfig(suite="good_lambda", N=N, K=32, cases=10, seed=48,
                               q_list=[1.0], gamma_list=[1.0, 0.5, 0.25], beta=3.0)
        reps[N] = run_suite(cfg)
    ok = all(r.passed for r in reps.values())
    lo = reps[256].bands["fitted_C_positive"]["max"]
    hi = reps[512].bands["fitted_C_positive"]["max"]
    stable = True
    if math.isfinite(lo) and math.isfinite(hi) and lo > 0 and hi > 0:
        stable = max(lo / hi, hi / lo) <= 2.0
    gamma_note = next(a.detail for a in reps[512].assertions
                      if a.name == "gamma_scaling_within_factor")
    record(9, ok and stable,
           f"inequality holds with fitted C at N=256 and N=512; positive fit "
           f"max {lo:.3g} -> {hi:.3g} within x2; gamma scaling: {gamma_note}")


def test_criterion_10_carleson_embedding_band():
    reps = {}
    for N in (256, 512):
        cfg = ExperimentConfig(suite="carleson_embedding", N=N, K=32, cases=20,
                               seed=49, q_list=[1.0], p_list=[2.0], alpha=1.0,
                               beta=2.0, space={"q": 1.0, "dim": 3}, trials=96)
        reps[N] = run_suite(cfg)
    ok = all(r.passed for r in reps.values())
    b_lo = reps[256].bands["embedding_ratio"]["max"]
    b_hi = reps[512].bands["embedding_ratio"]["max"]
    stable = max(b_lo / b_hi, b_hi / b_lo) <= 2.0
    ball = reps[512].bands["ball_constant"]
    record(10, ok and stable,
           f"ratios finite; band max {b_lo:.3g} -> {b_hi:.3g} within x2 under "
           f"N-doubling; per-ball lemma max {ball['max']:.3g} on "
           f"{ball['checked']} enlarged balls")


def test_criterion_11_paraproduct_boundedness_band():
    reps = {}
    for K in (32, 64):
        cfg = ExperimentConfig(suite="paraproduct", N=512, K=K, cases=20, seed=50,
                               p_list=[1.5, 2.0, 3.0], space={"q": 1.0, "dim": 3})
        reps[K] = run_suite(cfg)
    ok = all(r.passed for r in reps.values())
    stable = True
    for p in (1.5, 2.0, 3.0):
        a = reps[32].bands[f"R_p={p:g}"]["max"]
        b = reps[64].bands[f"R_p={p:g}"]["max"]
        if max(a / b, b / a) > 2.0:
            stable = False
    rmax = max(reps[32].bands[f"R_p={p:g}"]["max"] for p in (1.5, 2.0, 3.0))
    record(11, ok and stable,
           f"R bounded by regression baseline x1.5 (max {rmax:.3g}), zero "
           f"cases at 1e-10, band stable within x2 under K-doubling")


def test_criterion_12_theorem1_equivariances():
    cfg = ExperimentConfig(suite="charBMO", N=512, K=32, seed=51, q_list=[1.0],
                           space={"q": 2.0, "dim": 2})
    rep = run_suite(cfg)
    spread = rep.bands["ratio_q=1"]["spread"]
    names = {a.name: a.passed for a in rep.assertions}
    ok = (rep.passed and spread <= 20.0
          and names.get("translation_invariance", False)
          and names.get("dilation_drift", False))
    record(12, ok, f"translation exact to 1e-10, dilation drift <= 10%, "
                   f"corpus band max/min {spread:.3g} <= 20 (regression baseline)")


def test_criterion_13_maximal_function_domination():
    def logged_c(grid):
        scales = ScaleGrid(2.0 * grid.spacing, 0.25, 32)
        bump = gauss_bump(1)
        c = 0.0
        for i in range(20):
            u = generate_corpus(CorpusSpec("lp_random", 1, band=24), grid,
                                ell(2, 1), RandomSource(52_000 + i))[0]
            U = resolve(u, bump, scales)
            nprof = n_fun(U, 1.0)
            m = maximal_fn(u)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(m.values > 0, nprof.values / m.values, 0.0)
            c = max(c, float(ratio.max()))
        return c

    c_base = logged_c(GRID)
    c_fine = logged_c(SpatialGrid(1, 1024))
    ok = (math.isfinite(c_base) and c_base > 0
          and max(c_base / c_fine, c_fine / c_base) <= 1.5)
    record(13, ok, f"N(u*phi_t) <= c M(u) pointwise with c = {c_base:.3g}, "
                   f"refined c = {c_fine:.3g} (within x1.5)")

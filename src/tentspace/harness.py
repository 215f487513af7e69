"""Experiment suites: corpus generation, quantitative checks, reports.

Each suite turns one of the library's norm relations into a reproducible
desk-scale experiment over a seeded corpus: it computes both sides of the
relation case by case, logs the observed ratio bands, and asserts only
explicitly configured tolerances.  Constants the theory leaves implicit
are treated as empirical regression baselines, never as ground truth, and
reports say so.

All randomness flows from the config seed through named streams, so a
report is reproducible bit-for-bit on the exact paths and draw-for-draw on
the Monte Carlo ones.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field, replace
from time import perf_counter

import numpy as np

from .calderon import (
    TestFunction,
    complementary,
    custom_from_samples,
    gauss_bump,
    make_test_function,
    nondegeneracy_margin,
    resolve,
)
from .decomp import good_lambda_table
from .field import (
    HalfSpaceField,
    SampledFunction,
    ScaleGrid,
    SpatialGrid,
    _components,
    cone_weights,
    dyadic_radii,
)
from .functionals import a_fun, a_fun_cuts, bmo_norm, c_fun, maximal_fn, n_fun
from .io import read_tsf1
from .paraproduct import TAIL_TOL, lp_norm, paraproduct
from .space import BanachSpace, RandomSource, complex_gaussian_array, ell, norm, pair

__all__ = [
    "CorpusSpec",
    "ExperimentConfig",
    "Report",
    "generate_corpus",
    "generate_field_corpus",
    "run_suite",
    "SUITES",
    "REGRESSION_BASELINES",
]

# Desk-scale empirical ceilings (n=1, N=512, K=32 reference runs), used as
# regression baselines where the theory gives an unquantified constant.
# Measured reference maxima: paraproduct R 0.16, ball constant 0.08,
# maximal domination 1.0, charBMO spread 1.5; ceilings leave headroom for
# corpus/seed variation but still catch order-of-magnitude regressions.
REGRESSION_BASELINES = {
    "charBMO_band_max": 20.0,
    "paraproduct_R_max": 0.25,
    "carleson_ball_constant": 1.0,
    "maximal_domination_c": 2.0,
}

_FAMILIES = ("bmo_log", "bmo_step", "lacunary", "bandlimited_random", "lp_random")


def _as_exponent(p):
    if isinstance(p, str) and p.lower() in ("inf", "infinity"):
        return math.inf
    return float(p)


@dataclass(frozen=True)
class CorpusSpec:
    family: str
    count: int
    amplitude: float = 1.0
    mixing: str = "single_direction"  # or "independent" across coordinates
    band: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown corpus family {self.family!r}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.mixing not in ("single_direction", "independent"):
            raise ValueError(f"unknown mixing rule {self.mixing!r}")

    @staticmethod
    def from_dict(d: dict) -> "CorpusSpec":
        return _build("corpus entry", CorpusSpec, params=d)


def _scalar_profile(family: str, grid: SpatialGrid, gen, amplitude: float,
                    band: int | None) -> np.ndarray:
    N, L = grid.N, grid.L
    if family == "bmo_log":
        x0 = grid.spacing * gen.integers(0, N, size=grid.n)
        d = grid.point_distance(x0)
        floor = grid.spacing / 2.0
        return amplitude * np.log(L / np.maximum(d, floor))
    if family == "bmo_step":
        start = int(gen.integers(0, N))
        width = int(gen.integers(N // 8, N // 2 + 1))
        out = np.zeros(grid.shape)
        idx = (start + np.arange(width)) % N
        out[np.ix_(*[idx] * grid.n)] = amplitude
        return out
    if family == "lacunary":
        J = max(int(math.log2(N)) - 2, 1)
        coord = _components(grid.coords(), grid.n)[..., 0]
        phases = gen.uniform(0.0, 2.0 * math.pi, size=J)
        out = np.zeros(grid.shape, dtype=complex)
        for j in range(J):
            out += np.exp(1j * (2.0 * math.pi * (2 ** j) * coord / L + phases[j]))
        return amplitude * out
    if family in ("bandlimited_random", "lp_random"):
        bw = band or max(N // 8, 1)
        coeff = np.zeros(grid.shape, dtype=complex)
        if grid.n == 1:
            idx = np.r_[1: bw + 1, N - bw: N]
            coeff[idx] = (gen.standard_normal(idx.size)
                          + 1j * gen.standard_normal(idx.size)) / math.sqrt(2)
        else:
            for i in range(-bw, bw + 1):
                for j in range(-bw, bw + 1):
                    if i == 0 and j == 0:
                        continue
                    coeff[i % N, j % N] = complex(
                        gen.standard_normal(), gen.standard_normal()
                    ) / math.sqrt(2)
        if family == "lp_random":
            coeff.flat[0] = complex(gen.standard_normal(), gen.standard_normal())
        vals = np.fft.ifftn(coeff, axes=tuple(range(grid.n))) * N ** (grid.n / 2)
        return amplitude * vals
    raise ValueError(family)


def generate_corpus(
    spec: CorpusSpec,
    grid: SpatialGrid,
    space: BanachSpace,
    rng: RandomSource,
) -> list[SampledFunction]:
    """Reproducible corpus of sampled functions, tagged streams per member."""
    out = []
    for i in range(spec.count):
        gen = rng.derive(10_000 + i).generator()
        if spec.mixing == "independent" and space.dim > 1:
            cols = [
                _scalar_profile(spec.family, grid, gen, spec.amplitude, spec.band)
                for _ in range(space.dim)
            ]
            vals = np.stack(cols, axis=-1).astype(complex)
        else:
            profile = _scalar_profile(spec.family, grid, gen, spec.amplitude, spec.band)
            xi = complex_gaussian_array(gen, space.dim)
            xi = xi / norm(space, xi)
            vals = profile[..., None] * xi
        out.append(SampledFunction(grid, space, vals))
    return out


def generate_field_corpus(
    grid: SpatialGrid,
    scales: ScaleGrid,
    space: BanachSpace,
    count: int,
    rng: RandomSource,
    band: int | None = None,
) -> list[HalfSpaceField]:
    """Random band-limited half-space fields, independent across scales."""
    bw = band or max(grid.N // 8, 1)
    out = []
    for i in range(count):
        gen = rng.derive(20_000 + i).generator()
        coeff = np.zeros((scales.K,) + grid.shape + (space.dim,), dtype=complex)
        idx = np.r_[0: bw + 1, grid.N - bw: grid.N]
        sub = complex_gaussian_array(gen, (scales.K,) + (idx.size,) * grid.n + (space.dim,))
        coeff[np.ix_(np.arange(scales.K), *[idx] * grid.n)] = sub
        vals = np.fft.ifftn(coeff, axes=tuple(range(1, 1 + grid.n)))
        vals *= grid.N ** (grid.n / 2)
        out.append(HalfSpaceField(grid, scales, space, vals))
    return out


def generate_column_corpus(
    grid: SpatialGrid,
    scales: ScaleGrid,
    space: BanachSpace,
    count: int,
    rng: RandomSource,
    columns: int = 4,
) -> list[HalfSpaceField]:
    """Sparse vertical-column fields: near-extremal for the conical sweep.

    Each member concentrates mass on a few full scale columns, normalized
    so every column contributes O(1) to the cone integral; these are the
    fields whose super-level sets actually exercise distributional bounds
    (smooth fields satisfy them through the Carleson term alone).
    """
    w = cone_weights(grid, scales)
    out = []
    for i in range(count):
        gen = rng.derive(30_000 + i).generator()
        vals = np.zeros((scales.K,) + grid.shape + (space.dim,), dtype=complex)
        xi = complex_gaussian_array(gen, space.dim)
        xi = xi / norm(space, xi)
        for _ in range(columns):
            pos = tuple(gen.integers(0, grid.N, size=grid.n))
            amp = float(gen.uniform(0.5, 1.5))
            phases = np.exp(2j * math.pi * gen.uniform(size=scales.K))
            col = amp * phases / np.sqrt(w * scales.K)
            sl = (slice(None),) + pos
            vals[sl] += col[:, None] * xi
        out.append(HalfSpaceField(grid, scales, space, vals))
    return out


@dataclass
class ExperimentConfig:
    """One run's settings, read by every CLI command and every suite.

    Field names are the JSON keys; README.md's key table says which
    commands and suites read each one.
    """

    suite: str = ""
    n: int = 1
    N: int = 512
    K: int = 32
    L: float = 1.0
    t_min: float | None = None  # default 2 dy
    t_max: float | None = None  # default L/4
    space: dict = dc_field(default_factory=dict)  # {"q", "dim"}; l^2_2 by default
    psi: dict = dc_field(default_factory=dict)  # {"name" | "file", "params"}
    q_list: list = dc_field(default_factory=lambda: [1.0])
    p_list: list = dc_field(default_factory=lambda: [2.0])
    alpha_list: list = dc_field(default_factory=lambda: [1.0])
    alpha: float = 1.0
    beta: float | None = None
    rho: float = 2.0
    gamma_list: list = dc_field(default_factory=lambda: [1.0, 0.5, 0.25])
    lambda_points: int = 6
    corpus: list = dc_field(default_factory=list)  # list of CorpusSpec dicts
    cases: int = 20
    band: int | None = None
    columns: int = 1
    seed: int = 0
    trials: int = 512
    refine: bool = False
    refine_axis: str = "N"
    stability_factor: float = 2.0
    threads: int = 1
    tolerances: dict = dc_field(default_factory=dict)
    # command inputs: q and h for cfun and afun, the rest source specs
    q: float = 1.0
    h: float | None = None
    input: dict | None = None
    field: dict | None = None
    set: dict | None = None
    f: dict | None = None
    u: dict | None = None
    g: dict | None = None
    phi: dict = dc_field(default_factory=lambda: {"name": "complementary"})

    def __post_init__(self):
        _check_object("space", self.space, {"q", "dim"})
        _check_object("psi", self.psi, {"name", "file", "params"})
        _check_object("psi params", self.psi.get("params", {}), None)
        for key in ("input", "field", "set", "f", "u", "g", "phi"):
            if getattr(self, key) is not None:
                _check_object(key, getattr(self, key), None)
        # JSON has no inf literal: exponents also take the string form
        self.p_list = [_as_exponent(p) for p in self.p_list]
        self.q_list = [_as_exponent(q) for q in self.q_list]
        self.space = {"q": 2.0, "dim": 2, **self.space}
        if "file" not in self.psi:
            self.psi = {"name": "mexican_hat", **self.psi}
        if self.refine_axis not in ("N", "K"):
            raise ValueError(f"refine_axis must be 'N' or 'K', got {self.refine_axis!r}")
        # a float size would escape as a TypeError deep inside, and a suite
        # over no case, exponent, aperture or lambda point would pass
        # vacuously or raise an IndexError
        for key in ("n", "N", "K", "trials", "seed", "threads", "columns", "band",
                    "cases", "lambda_points"):
            value = getattr(self, key)
            if key == "band" and value is None:
                continue
            floor = " of at least 1" if key in ("cases", "lambda_points") else ""
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    and (not floor or value >= 1)):
                raise ValueError(f"{key} must be an integer{floor}, got {value!r}")
        for key in ("q_list", "p_list", "alpha_list", "gamma_list"):
            if len(getattr(self, key)) == 0:
                raise ValueError(f"{key} must not be empty")
        if not (self.rho > 1):
            raise ValueError(f"rho must exceed 1, got {self.rho!r}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**d)

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.n, self.N, self.L)

    def scales(self) -> ScaleGrid:
        g = self.grid()
        t_min = self.t_min if self.t_min is not None else 2.0 * g.spacing
        t_max = self.t_max if self.t_max is not None else self.L / 4.0
        return ScaleGrid(t_min, t_max, self.K)

    def target(self) -> BanachSpace:
        """The l^q_d target space."""
        return ell(self.space["q"], self.space["dim"])

    def psi_fn(self) -> TestFunction:
        """A named family with its ``params``, or spatial samples from a TSF1 file."""
        spec = self.psi
        if "file" in spec:
            samples = read_tsf1(spec["file"])
            if not isinstance(samples, SampledFunction):
                raise ValueError("psi file must hold spatial samples, not a field")
            return custom_from_samples(samples, spec.get("name", "custom"))
        return _build("psi params", make_test_function, spec["name"], self.n,
                      params=spec.get("params", {}))

    def phi_fn(self, psi: TestFunction) -> TestFunction:
        """The paraproduct's phi: complementary to psi, or a named family."""
        if self.phi.get("name", "complementary") == "complementary":
            return complementary(psi)
        return _build("phi params", make_test_function, self.phi["name"], self.n,
                      params=self.phi.get("params", {}))

    def rng(self) -> RandomSource:
        return RandomSource(self.seed)

    def corpus_specs(self) -> list[CorpusSpec]:
        return [CorpusSpec.from_dict(c) for c in self.corpus]

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


def _build(what: str, make, *args, params):
    """make(*args, **params); a wrong, missing or non-object params is a config error."""
    try:
        return make(*args, **params)
    except TypeError as e:
        raise ValueError(f"{what}: {e}") from e


def _check_object(name: str, value, keys) -> None:
    if not isinstance(value, dict) or (keys is not None and not set(value) <= keys):
        allowed = f" with keys from {sorted(keys)}" if keys else ""
        raise ValueError(f"{name} must be a JSON object{allowed}, got {value!r}")


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class Report:
    suite: str
    config: dict
    cases: list
    bands: dict
    assertions: list
    wallclock: float = 0.0
    counts: dict = dc_field(default_factory=dict)  # flags raised across cases

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "config": self.config,
            "bands": self.bands,
            "assertions": [asdict(a) for a in self.assertions],
            "cases": self.cases,
            "counts": self.counts,
            "wallclock_s": self.wallclock,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=2, default=float)


def _parallel(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x; each run of tied values shares its average rank."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate([[True], xs[1:] != xs[:-1]]))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman(a, b) -> float:
    """Spearman rank correlation; tied values share their average rank."""
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    ca = ra - ra.mean()
    cb = rb - rb.mean()
    denom = math.sqrt(float((ca * ca).sum() * (cb * cb).sum()))
    return float((ca * cb).sum() / denom) if denom > 0 else 0.0


def _band(values) -> dict:
    """min, max and max/min of the finite values; ``dropped`` counts the rest."""
    values = list(values)
    arr = np.asarray([v for v in values if math.isfinite(v)], dtype=float)
    dropped = len(values) - arr.size
    if arr.size == 0:
        return {"min": math.nan, "max": math.nan, "spread": math.nan,
                "dropped": dropped}
    lo, hi = float(arr.min()), float(arr.max())
    return {"min": lo, "max": hi, "spread": hi / lo if lo > 0 else math.inf,
            "dropped": dropped}


def suite_charBMO(cfg: ExperimentConfig) -> dict:
    """Ratio band of ||C_q(F)||_inf against the mean-oscillation norm.

    Checks exact translation invariance of the ratio, bounded drift under
    dyadic dilation, a bounded corpus band (regression baseline) and the
    monotone association between the two sides across the corpus.
    """
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    psi = cfg.psi_fn()
    margin = nondegeneracy_margin(psi, 16, ScaleGrid(1e-2, 1e2, 128))  # ±1 when n = 1
    if margin < 1e-8:
        raise ValueError(f"psi {psi.name!r} is degenerate (margin {margin:g})")
    specs = cfg.corpus_specs() or [
        CorpusSpec(family, 5)
        for family in ("bmo_log", "bmo_step", "lacunary", "bandlimited_random")
    ]
    corpus = []
    for j, spec in enumerate(specs):
        corpus.extend(generate_corpus(spec, grid, space, cfg.rng().derive(j)))

    zero_guard = cfg.tol("zero_guard", 1e-12)
    radii = dyadic_radii(grid)

    def one(fn):
        F = resolve(fn, psi, scales)
        b = bmo_norm(fn)
        row = {"bmo": b, "cq_inf": {}}
        # one A sweep per field serves every q
        cuts = a_fun_cuts(F, cfg.alpha, list(radii), trials=cfg.trials,
                          rng=cfg.rng())
        for q in cfg.q_list:
            prof = c_fun(F, q, cfg.alpha, radii=radii, a_profiles=cuts)
            row["cq_inf"][q] = prof.max()
        return row

    rows = _parallel(one, corpus, cfg.threads)
    cases, bands = [], {}
    assertions = []
    for q in cfg.q_list:
        ratios = []
        for i, row in enumerate(rows):
            if row["bmo"] <= zero_guard:
                continue
            ratios.append(row["cq_inf"][q] / row["bmo"])
        bands[f"ratio_q={q:g}"] = _band(ratios)
        band_max = cfg.tol("band_max", REGRESSION_BASELINES["charBMO_band_max"])
        spread = bands[f"ratio_q={q:g}"]["spread"]
        assertions.append(
            Assertion(
                f"band_spread_q={q:g}",
                bool(spread <= band_max),
                f"max/min = {spread:.3g} <= {band_max} (regression baseline)",
            )
        )
    cases = [
        {"bmo": row["bmo"], **{f"cq_inf_q={q:g}": row["cq_inf"][q] for q in cfg.q_list}}
        for row in rows
    ]

    # exact translation equivariance of the ratio on the first usable member
    # (its row already holds C_q and the BMO norm of the unshifted member)
    pick = next(((f, r) for f, r in zip(corpus, rows) if r["bmo"] > zero_guard), None)
    if pick is not None:
        q0 = cfg.q_list[0]
        base_fn, base_row = pick
        moved = base_fn.shifted(grid.N // 3)
        r0 = base_row["cq_inf"][q0] / base_row["bmo"]
        r1 = c_fun(resolve(moved, psi, scales), q0, cfg.alpha, trials=cfg.trials,
                   rng=cfg.rng()).max() / bmo_norm(moved)
        tol = cfg.tol("translation_tol", 1e-10)
        assertions.append(
            Assertion(
                "translation_invariance",
                bool(abs(r1 - r0) <= tol * max(r0, 1.0)),
                f"|{r1:.12g} - {r0:.12g}| within {tol:g} relative",
            )
        )
        # dyadic dilation: f(2x) on the same grids
        doubled = (2 * np.arange(grid.N)) % grid.N
        lifted = SampledFunction(grid, space, base_fn.values[np.ix_(*[doubled] * grid.n)])
        b2 = bmo_norm(lifted)
        if b2 > zero_guard:
            r2 = c_fun(resolve(lifted, psi, scales), q0, cfg.alpha,
                       trials=cfg.trials, rng=cfg.rng()).max() / b2
            drift = cfg.tol("dilation_drift", 0.10)
            assertions.append(
                Assertion(
                    "dilation_drift",
                    bool(abs(r2 / r0 - 1.0) <= drift),
                    f"ratio drift {abs(r2 / r0 - 1.0):.3g} <= {drift}",
                )
            )

    # contrapositive association: large BMO must come with large C_q
    q0 = cfg.q_list[0]
    bs = [r["bmo"] for r in rows if r["bmo"] > zero_guard]
    cs = [r["cq_inf"][q0] for r in rows if r["bmo"] > zero_guard]
    if len(bs) >= 8:
        corr = _spearman(np.array(bs), np.array(cs))
        need = cfg.tol("rank_corr_min", 0.9)
        assertions.append(
            Assertion("bmo_cq_rank_correlation", bool(corr >= need),
                      f"spearman {corr:.3f} >= {need}")
        )
    return dict(cases=cases, bands=bands, assertions=assertions)


def suite_AC(cfg: ExperimentConfig) -> dict:
    """Norm comparison of the conical functional and Carleson functionals.

    The direction ||C_q||_p <= C ||A||_p rides on the pointwise maximal
    domination (logged constant); the reverse direction and the aperture
    comparison are reported as bands.
    """
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    fields = generate_field_corpus(grid, scales, space, cfg.cases, cfg.rng(),
                                   band=cfg.band)
    assertions, cases, bands = [], [], {}

    pairs = []
    for p in cfg.p_list:
        for q in cfg.q_list:
            if q >= p:
                assertions.append(
                    Assertion(
                        f"pair_rejected_q={q:g}_p={p:g}", True,
                        "part (b) requires q < p; pair excluded from the bound",
                    )
                )
            else:
                pairs.append((p, q))
    if not pairs:
        raise ValueError("no (p, q) pair with q < p; nothing to assert")

    radii = dyadic_radii(grid)
    qs = dict.fromkeys(q for _, q in pairs)

    def maximal_path(a_prof, q):
        """M(A^q)^(1/q), the pointwise bound of C_q."""
        mq = maximal_fn(SampledFunction(grid, ell(2, 1),
                                        (a_prof.values ** q)[..., None].astype(complex)))
        return replace(mq, kind="Mq", values=mq.values ** (1.0 / q))

    def one(F):
        # one sweep per aperture: A and every C_q see the same draws, so the
        # pointwise bound C_q <= M(A^q)^(1/q) holds on Monte Carlo targets too
        sweeps = {alpha: a_fun_cuts(F, alpha, [*radii, None], trials=cfg.trials,
                                    rng=cfg.rng())
                  for alpha in cfg.alpha_list}
        row = {("A", alpha): cuts[-1] for alpha, cuts in sweeps.items()}
        norms = {  # (q, alpha) -> (C_q, M(A^q)^(1/q)), shared by every p
            (q, alpha): (c_fun(F, q, alpha, radii=radii, a_profiles=cuts[:-1]),
                         maximal_path(cuts[-1], q))
            for q in qs for alpha, cuts in sweeps.items()
        }
        for p, q in pairs:
            for alpha in cfg.alpha_list:
                cq, path = norms[q, alpha]
                row[("C", p, q, alpha)] = (cq.lp_norm(p), row[("A", alpha)].lp_norm(p),
                                           path.lp_norm(p))
        return row

    rows = _parallel(one, fields, cfg.threads)
    slack = cfg.tol("pointwise_slack", 1e-9)
    for p, q in pairs:
        for alpha in cfg.alpha_list:
            ratios_b, ratios_a, cpath = [], [], []
            ok = True
            for row in rows:
                cq_p, a_p, m_p = row[("C", p, q, alpha)]
                if a_p > 0:
                    ratios_b.append(cq_p / a_p)
                    cpath.append(m_p / a_p)
                if cq_p > 0:
                    ratios_a.append(a_p / cq_p)
                if cq_p > m_p * (1 + slack) + slack:
                    ok = False
            key = f"p={p:g}_q={q:g}_alpha={alpha:g}"
            bands[f"b_ratio_{key}"] = _band(ratios_b)
            bands[f"a_ratio_{key}"] = _band(ratios_a)
            bands[f"maximal_path_C_{key}"] = _band(cpath)
            assertions.append(
                Assertion(
                    f"cq_below_maximal_path_{key}", ok,
                    "||C_q||_p <= ||M(A^q)^(1/q)||_p per case (maximal path)",
                )
            )
    # aperture comparison against alpha = 1
    base = [row[("A", 1.0)].lp_norm(cfg.p_list[0]) for row in rows] \
        if 1.0 in cfg.alpha_list else None
    if base is not None:
        for alpha in cfg.alpha_list:
            if alpha == 1.0:
                continue
            r = [
                row[("A", alpha)].lp_norm(cfg.p_list[0]) / b
                for row, b in zip(rows, base) if b > 0
            ]
            bands[f"aperture_ratio_alpha={alpha:g}"] = _band(r)
    cases = []
    for row in rows:
        entry = {}
        for k, v in row.items():
            key = "_".join(str(x) for x in k)
            entry[key] = v.max() if k[0] == "A" else list(v)
        cases.append(entry)
    return dict(cases=cases, bands=bands, assertions=assertions)


def suite_duality(cfg: ExperimentConfig) -> dict:
    """Tent-space duality with the stopping-time proof constant.

    Asserts, per corpus pair, that the dy dt/t integral of |<F, G>| stays
    below rho (1 - rho^-q)^-1 times sum_x C_q(F) A(G) dx, plus slack.
    """
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    from .space import dual as dual_space

    fields = generate_field_corpus(grid, scales, space, cfg.cases, cfg.rng(),
                                   band=cfg.band)
    duals = generate_field_corpus(grid, scales, dual_space(space), cfg.cases,
                                  cfg.rng().derive(1), band=cfg.band)
    q = cfg.q_list[0]
    rho = cfg.rho
    constant = rho / (1.0 - rho ** (-q))
    slack = cfg.tol("constant_slack", 0.10)

    def one(pair_fg):
        F, G = pair_fg
        lhs = float(
            np.abs(pair(F.values, G.values)).sum()
            * grid.cell_volume * scales.dlog
        )
        cq = c_fun(F, q, cfg.alpha, trials=cfg.trials, rng=cfg.rng())
        ag = a_fun(G, cfg.alpha, trials=cfg.trials, rng=cfg.rng().derive(7))
        rhs = float((cq.values * ag.values).sum() * grid.cell_volume)
        return {"lhs": lhs, "rhs": rhs,
                "bound": constant * (1.0 + slack) * rhs,
                "ratio": lhs / rhs if rhs > 0 else math.inf}

    rows = _parallel(one, list(zip(fields, duals)), cfg.threads)
    ok = all(r["lhs"] <= r["bound"] + 1e-15 for r in rows)
    bands = {"lhs_over_rhs": _band([r["ratio"] for r in rows])}
    assertions = [
        Assertion(
            "duality_with_proof_constant", bool(ok),
            f"LHS <= {constant:.3g}*(1+{slack:g})*RHS on every case",
        )
    ]
    return dict(cases=rows, bands=bands, assertions=assertions)


def suite_carleson_embedding(cfg: ExperimentConfig) -> dict:
    """Carleson embedding: C_q of a multiplied field against N and C_q.

    Ratio band over the corpus plus the per-ball inequality with the
    enlarged ball, against an empirical constant ceiling.
    """
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    alpha = cfg.alpha
    beta = cfg.beta if cfg.beta is not None else 2.0 * alpha
    q = cfg.q_list[0]
    p = cfg.p_list[0]
    if not (beta > alpha > 0):
        raise ValueError("need beta > alpha > 0")
    if not (0 < q < p):
        raise ValueError("need 0 < q < p")

    fields = generate_field_corpus(grid, scales, space, cfg.cases, cfg.rng(),
                                   band=cfg.band)
    gs = generate_field_corpus(grid, scales, ell(2, 1), cfg.cases,
                               cfg.rng().derive(3), band=cfg.band)

    radii = dyadic_radii(grid)

    def one(case):
        i, (F, G) = case
        GF = HalfSpaceField(grid, scales, space, G.values * F.values)
        # one truncation sweep backs both C_q(G*F) and the per-ball checks
        gf_cuts = a_fun_cuts(GF, alpha, list(radii), trials=cfg.trials,
                             rng=cfg.rng().derive(2 * i))
        c_gf = c_fun(GF, q, alpha, radii=radii, a_profiles=gf_cuts)
        c_f = c_fun(F, q, alpha, trials=cfg.trials, rng=cfg.rng().derive(2 * i + 1))
        n_g = n_fun(G, beta)
        num = c_gf.lp_norm(p)
        den = n_g.lp_norm(p) * c_f.max()
        return {
            "ratio": num / den if den > 0 else math.inf,
            "gf_cuts": gf_cuts,
            "cf_max": c_f.max(),
            "n_vals": n_g.values,
        }

    rows = _parallel(one, list(enumerate(zip(fields, gs))), cfg.threads)
    ratios = [r["ratio"] for r in rows]
    bands = {"embedding_ratio": _band(ratios)}
    assertions = [
        Assertion("embedding_ratio_finite",
                  bool(all(math.isfinite(r) for r in ratios)),
                  "ratio finite on every corpus case")
    ]

    # per-ball lemma with the enlarged ball, off the cached sweeps
    gen = np.random.default_rng(cfg.seed + 99)
    small_idx = np.nonzero(radii * (1.0 + alpha + beta) <= grid.L / 2.0)[0]
    ceiling = cfg.tol("ball_constant_max",
                      REGRESSION_BASELINES["carleson_ball_constant"])
    worst = 0.0
    checked = 0
    for _ in range(20):
        case = rows[int(gen.integers(0, len(rows)))]
        j = int(small_idx[gen.integers(0, small_idx.size)])
        r = float(radii[j])
        center = grid.spacing * gen.integers(0, grid.N, size=grid.n)
        a_vals = case["gf_cuts"][j].values
        members = grid.point_distance(center) < r
        big = grid.point_distance(center) < (1.0 + alpha + beta) * r
        lhs = float((a_vals[members] ** q).sum() * grid.cell_volume)
        rhs = float((case["n_vals"][big] ** q).sum() * grid.cell_volume)
        rhs *= case["cf_max"] ** q
        if rhs > 0:
            worst = max(worst, lhs / rhs)
            checked += 1
    bands["ball_constant"] = {"max": worst, "checked": checked}
    assertions.append(
        Assertion(
            "per_ball_lemma", bool(worst <= ceiling),
            f"max ball ratio {worst:.3g} <= {ceiling} (empirical ceiling)",
        )
    )
    cases = [{"ratio": r["ratio"]} for r in rows]
    return dict(cases=cases, bands=bands, assertions=assertions)


def suite_paraproduct(cfg: ExperimentConfig) -> dict:
    """Boundedness ratios of the paraproduct over a (symbol, function) corpus."""
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    psi = cfg.psi_fn()
    phi = complementary(psi)
    specs = cfg.corpus_specs() or [
        CorpusSpec("bmo_step", cfg.cases // 2),
        CorpusSpec("bmo_log", cfg.cases - cfg.cases // 2),
    ]
    symbols = []
    for j, spec in enumerate(specs):
        symbols.extend(generate_corpus(spec, grid, space, cfg.rng().derive(j)))
    us = generate_corpus(CorpusSpec("lp_random", len(symbols)), grid, ell(2, 1),
                         cfg.rng().derive(50))

    zero_tol = cfg.tol("zero_tol", 1e-10)
    r_max = cfg.tol("R_max", REGRESSION_BASELINES["paraproduct_R_max"] * 1.5)

    def one(fu):
        f, u = fu
        res = paraproduct(f, u, psi, phi, scales)
        b = bmo_norm(f)
        row = {"bmo": b, "truncated": res.truncated,
               "tail_fine": res.tail_fine, "tail_coarse": res.tail_coarse}
        for p in cfg.p_list:
            denom = b * lp_norm(u, p)
            row[f"R_p={p:g}"] = lp_norm(res.field, p) / denom if denom > 0 else math.nan
        return row

    rows = _parallel(one, list(zip(symbols, us)), cfg.threads)
    bands = {}
    assertions = []
    for p in cfg.p_list:
        ratios = [r[f"R_p={p:g}"] for r in rows]
        bands[f"R_p={p:g}"] = _band(ratios)
        vals = [v for v in ratios if math.isfinite(v)]
        if vals:
            ok = bool(max(vals) <= r_max)
            detail = f"max R {max(vals):.3g} <= {r_max} (regression baseline x1.5)"
        else:
            ok = False
            detail = (f"no finite ratio R_p={p:g}: every case has a zero "
                      f"BMO or L^{p:g} norm")
        assertions.append(Assertion(f"R_bounded_p={p:g}", ok, detail))

    # zero cases
    const_f = SampledFunction.constant(grid, space, [1.0] * space.dim)
    z1 = lp_norm(paraproduct(const_f, us[0], psi, phi, scales).field, 2)
    const_u = SampledFunction.constant(grid, ell(2, 1), [1.0])
    z2 = lp_norm(paraproduct(symbols[0], const_u, psi, phi, scales).field, 2)
    assertions.append(Assertion("zero_constant_symbol", bool(z1 < zero_tol),
                                f"||P(c, u)||_2 = {z1:.2e} < {zero_tol}"))
    assertions.append(Assertion("zero_constant_u", bool(z2 < zero_tol),
                                f"||P(f, c)||_2 = {z2:.2e} < {zero_tol}"))

    # pointwise maximal domination of the bump resolution
    bump = gauss_bump(cfg.n)
    cs = []
    ok = True
    for u in us[: min(len(us), 20)]:
        U = resolve(u, bump, scales)
        nprof = n_fun(U, cfg.alpha)
        m = maximal_fn(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(m.values > 0, nprof.values / m.values, 0.0)
        c = float(ratio.max())
        cs.append(c)
        if not math.isfinite(c):
            ok = False
    c_max = cfg.tol("maximal_domination_c",
                    REGRESSION_BASELINES["maximal_domination_c"])
    bands["maximal_domination_c"] = _band(cs)
    assertions.append(
        Assertion("nontangential_below_maximal",
                  bool(ok and max(cs) <= c_max),
                  f"N(U) <= c M(u) with c = {max(cs):.3g} <= {c_max}")
    )
    # scale_norms at the ends of the band: t_min (fine) and t_max (coarse)
    counts = {
        "tail_tol": TAIL_TOL,
        "truncated": sum(r["truncated"] for r in rows),
        "tail_fine_above_tol": sum(r["tail_fine"] > TAIL_TOL for r in rows),
        "tail_coarse_above_tol": sum(r["tail_coarse"] > TAIL_TOL for r in rows),
    }
    return dict(cases=rows, bands=bands, assertions=assertions, counts=counts)


def suite_good_lambda(cfg: ExperimentConfig) -> dict:
    """Distributional inequality table and gamma-scaling consistency."""
    grid, scales, space = cfg.grid(), cfg.scales(), cfg.target()
    q = cfg.q_list[0]
    # one-column fields: anything smoother satisfies the inequality through
    # the Carleson term alone and fits C = 0, which checks nothing
    fields = generate_column_corpus(grid, scales, space, cfg.cases, cfg.rng(),
                                    columns=cfg.columns)
    consistency = cfg.tol("gamma_consistency", 4.0)

    def one(F):
        amax = a_fun(F, cfg.alpha, trials=cfg.trials, rng=cfg.rng()).max()
        if amax == 0:
            return None
        # 2*lambda sweeps the range where {A > 2 lambda} is small but nonempty
        lambdas = np.geomspace(amax / 8.0, amax / 2.05, cfg.lambda_points)
        table = good_lambda_table(F, cfg.alpha, q, cfg.gamma_list, lambdas,
                                  beta=cfg.beta, trials=cfg.trials,
                                  rng=cfg.rng())
        return table

    tables = [t for t in _parallel(one, fields, cfg.threads) if t is not None]
    assertions = []
    all_ok = all(t.satisfied() for t in tables)
    assertions.append(
        Assertion("inequality_with_fitted_C", bool(all_ok),
                  "good-lambda inequality holds with the fitted C per field")
    )
    finite = all(math.isfinite(c) for t in tables for c in t.fitted.values())
    assertions.append(Assertion("fitted_C_finite", bool(finite),
                                "every fitted C is finite"))
    spreads = []
    for t in tables:
        pos = [c for c in t.fitted.values() if c > 0]
        if len(pos) >= 2:
            spreads.append(max(pos) / min(pos))
    if spreads:
        assertions.append(
            Assertion(
                "gamma_scaling_within_factor",
                bool(max(spreads) <= consistency),
                f"fitted C spread over gamma {max(spreads):.3g} <= {consistency} "
                f"({len(spreads)} fields with multi-gamma excess)",
            )
        )
    else:
        assertions.append(
            Assertion(
                "gamma_scaling_within_factor", True,
                "vacuous at this scale: no field activates the excess term "
                "at two gammas at once (Carleson term dominates)",
            )
        )
    positives = [c for t in tables for c in t.fitted.values() if c > 0]
    bands = {"fitted_C": _band([c for t in tables for c in t.fitted.values()]),
             "fitted_C_positive": _band(positives)}
    cases = [
        {"fitted": {f"{g:g}": c for g, c in t.fitted.items()},
         "wrap_warning": t.wrap_warning,
         "rows": t.rows}
        for t in tables
    ]
    counts = {"wrap_warning": sum(t.wrap_warning for t in tables)}
    return dict(cases=cases, bands=bands, assertions=assertions, counts=counts)


SUITES = {
    "charBMO": suite_charBMO,
    "AC": suite_AC,
    "duality": suite_duality,
    "carleson_embedding": suite_carleson_embedding,
    "paraproduct": suite_paraproduct,
    "good_lambda": suite_good_lambda,
}


def run_suite(cfg: ExperimentConfig) -> Report:
    """Run a suite and assemble its report around one wall clock.

    A suite returns the report's ``cases``, ``bands``, ``assertions`` and
    optionally ``counts``; the config echo is added here.  With refine set,
    the suite reruns at doubled N (or K) and each reported band must move
    by less than the stability factor.
    """
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}; have {sorted(SUITES)}")
    fn = SUITES[cfg.suite]
    t0 = perf_counter()
    parts = fn(cfg)
    if cfg.refine:
        axis, factor = cfg.refine_axis, cfg.stability_factor
        fine = fn(replace(cfg, **{axis: 2 * getattr(cfg, axis)}))["bands"]
        for key, band in parts["bands"].items():
            other = fine.get(key)
            if not other:
                continue
            a, b = band["max"], other["max"]
            empty = [name for name, m in (("base", a), ("refined", b)) if math.isnan(m)]
            if empty:
                stable = False
                detail = f"band is empty (max is NaN) at the {' and '.join(empty)} resolution"
            else:
                stable = not (a > 0 and b > 0 and max(a / b, b / a) > factor)
                detail = f"band max moved by <= x{factor} under {axis}-doubling"
            parts["assertions"].append(Assertion(f"refine_stable_{key}", stable, detail))
        parts["bands"]["refined"] = fine
    scales = cfg.scales()
    echo = {**asdict(cfg), "t_min_effective": scales.t_min,
            "t_max_effective": scales.t_max}
    return Report(cfg.suite, echo, wallclock=perf_counter() - t0, **parts)

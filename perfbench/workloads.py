"""The three benchmark workloads and their oracle checks.

Every workload runs on the 1-D grid N=512 with K=32 log-uniform scales
(t_min = 2 dy, t_max = L/4), the acceptance-criteria configuration.  A
workload builds a short input list from the run seed in ``setup``; op i
replays input ``i % len(inputs)``, so every op does the same kind and
amount of work and a run replays the same list.  Ops call public
``tentspace`` functions through their module attributes, which is what lets
the traced run replace them with timed wrappers.

Checks run after the timed loop and never inside it.  The Monte Carlo
workloads compare the program's estimates with a reference the benchmark
draws itself from each region's d x d covariance sum_i w_i F_i F_i^H: the
Gauss norm depends only on that covariance, so d Gaussians per trial give
an independent estimate.  The exact workload runs ``whitney_check`` on
every decomposition and compares the rest with stored reference values.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time

import numpy as np

import tentspace  # noqa: F401  (registers the submodules below)

calderon = importlib.import_module("tentspace.calderon")
decomp = importlib.import_module("tentspace.decomp")
tfield = importlib.import_module("tentspace.field")
functionals = importlib.import_module("tentspace.functionals")
gaussnorm = importlib.import_module("tentspace.gaussnorm")
harness = importlib.import_module("tentspace.harness")
paraproduct = importlib.import_module("tentspace.paraproduct")
space = importlib.import_module("tentspace.space")

GRID = tfield.SpatialGrid(1, 512)
SCALES = tfield.ScaleGrid(2.0 * GRID.spacing, 0.25, 32)
RADII = tfield.dyadic_radii(GRID)

Z_TOL = 5.0  # combined stderrs allowed between an estimate and its oracle
EXACT_RTOL = 1e-9  # FFT-order roundoff allowed on the exact path
ORACLE_TRIALS = 20_000
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


# ---------------------------------------------------------------- oracles

def _offset_dist(x_idx: int) -> np.ndarray:
    """Torus distance of every grid point from grid point x_idx."""
    o = np.abs(np.arange(GRID.N) - x_idx)
    return np.minimum(o, GRID.N - o) * GRID.spacing


def cone_mask(x_idx: int, alpha: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(K, N) membership of the truncated cone and its per-scale weights."""
    t = SCALES.nodes()
    mask = (_offset_dist(x_idx)[None, :] < alpha * t[:, None]) & (t < h)[:, None]
    return mask, GRID.spacing * SCALES.dlog / t


def box_mask(x_idx: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """(K, N) membership of the Carleson box B(x, r) x (0, r), dy dt/t weights."""
    t = SCALES.nodes()
    mask = (_offset_dist(x_idx)[None, :] < r) & (t < r)[:, None]
    return mask, np.full(SCALES.K, GRID.spacing * SCALES.dlog)


def covariance(values: np.ndarray, mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over member atoms of w_i F_i F_i^H, shape (d, d)."""
    k, y = np.nonzero(mask)
    v = values[k, y, :] * np.sqrt(w[k])[:, None]
    return v.T @ v.conj()


def lq_norm(q, s: np.ndarray) -> np.ndarray:
    a = np.abs(s)
    if q is None:
        return a.max(axis=-1)
    return (a ** q).sum(axis=-1) ** (1.0 / q)


def oracle_gauss_norm(cov: np.ndarray, q, gen: np.random.Generator,
                      trials: int = ORACLE_TRIALS) -> tuple[float, float]:
    """sqrt(E ||S||_q^2) for S ~ CN(0, cov), with its delta-method stderr."""
    if np.trace(cov).real <= 0.0:
        return 0.0, 0.0
    lam, vec = np.linalg.eigh(cov)
    factor = vec * np.sqrt(np.maximum(lam, 0.0))
    d = cov.shape[0]
    z = (gen.standard_normal((trials, d)) + 1j * gen.standard_normal((trials, d)))
    s = (z / math.sqrt(2.0)) @ factor.T
    m = lq_norm(q, s) ** 2
    mean = float(m.mean())
    return math.sqrt(mean), math.sqrt(float(m.var(ddof=1)) / trials) / (2.0 * math.sqrt(mean))


def agrees(value, stderr, ref, ref_err) -> bool:
    """Estimate within Z_TOL combined stderrs of the oracle."""
    if ref == 0.0:
        return value == 0.0
    return abs(value - ref) <= Z_TOL * math.hypot(stderr, ref_err)


def c_fun_brute(a_profiles, q: float) -> np.ndarray:
    """C_q profile from truncated A profiles by explicit window loops."""
    best = np.zeros(GRID.N)
    for r, prof in zip(RADII, a_profiles):
        offs = np.nonzero(_offset_dist(0) < r)[0]
        offs = np.where(offs > GRID.N // 2, offs - GRID.N, offs)
        powered = prof.values ** q
        mean = sum(np.roll(powered, -o) for o in offs) / offs.size
        cand = np.max([np.roll(mean, -o) for o in offs], axis=0)
        best = np.maximum(best, cand)
    return best ** (1.0 / q)


def resolve_oracle(f: np.ndarray) -> np.ndarray:
    """f * psi_t for the Mexican hat psi_hat(s) = s^2 exp(-s^2/2), (K, N, d)."""
    xi = 2.0 * math.pi * np.fft.fftfreq(GRID.N, d=GRID.spacing)
    s2 = (SCALES.nodes()[:, None] * xi[None, :]) ** 2
    mult = s2 * np.exp(-s2 / 2.0)
    return np.fft.ifft(np.fft.fft(f, axis=0)[None] * mult[..., None], axis=1)


def close(a, b, rtol: float = EXACT_RTOL) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol * max(np.abs(b).max(), 1e-300)))


# -------------------------------------------------------------- workloads

def _seeds(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=keys))


class Workload:
    """What run.py needs of a workload; see the module docstring."""

    name = ""
    inputs_per_run = 8

    def setup(self, seed: int) -> dict:
        """Build the input list; return {"corpus_s": corpus generation time}."""
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def arrays(self, out) -> list:
        """The arrays an op's output is fingerprinted by."""
        raise NotImplementedError

    def make_oracle(self) -> list:
        """Per input, what check() compares the output with."""
        raise NotImplementedError

    def check(self, i: int, out, oracle) -> bool:
        raise NotImplementedError

    def rel_stderrs(self, out) -> list:
        """Relative stderrs of the op's Monte Carlo estimates."""
        return []

    def atom_trials(self, out) -> int:
        """Atom-trials drawn by the op's gauss_norm calls."""
        return 0


class McSweep(Workload):
    """Monte Carlo cone sweep of the carleson_embedding suite on l^1_3."""

    name = "mc_sweep"
    trials = 96
    check_points = 2

    def setup(self, seed: int) -> dict:
        t = time.perf_counter()
        self.fields = harness.generate_field_corpus(
            GRID, SCALES, space.ell(1, 3), self.inputs_per_run, space.RandomSource(seed))
        corpus_s = time.perf_counter() - t
        self.seed = seed
        return {"corpus_s": corpus_s}

    def op(self, i: int):
        j = i % self.inputs_per_run
        F = self.fields[j]
        cuts = functionals.a_fun_cuts(F, 1.0, list(RADII), trials=self.trials,
                                      rng=space.RandomSource(self.seed).derive(100 + j))
        c = functionals.c_fun(F, 1.0, radii=RADII, a_profiles=cuts)
        return cuts, c

    def arrays(self, out) -> list:
        cuts, c = out
        return [p.values for p in cuts] + [p.stderr for p in cuts] + [c.values]

    def rel_stderrs(self, out) -> list[float]:
        cuts, _ = out
        a = np.concatenate([p.values for p in cuts])
        s = np.concatenate([p.stderr for p in cuts])
        return list(s[a > 0] / a[a > 0])

    def make_oracle(self) -> list:
        """Per input: (x, cut index, reference, stderr) at seeded points."""
        refs = []
        for j, F in enumerate(self.fields):
            gen = _seeds(self.seed, 7, j)
            xs = gen.choice(GRID.N, size=self.check_points, replace=False)
            rows = []
            for x in xs:
                for k, r in enumerate(RADII):
                    mask, w = cone_mask(int(x), 1.0, float(r))
                    ref, err = oracle_gauss_norm(covariance(F.values, mask, w),
                                                 F.space.q, gen)
                    rows.append((int(x), k, ref, err))
            refs.append(rows)
        return refs

    def check(self, i: int, out, oracle) -> bool:
        cuts, c = out
        ok = all(agrees(float(cuts[k].values[x]), float(cuts[k].stderr[x]), ref, err)
                 for x, k, ref, err in oracle[i % self.inputs_per_run])
        return ok and close(c.values, c_fun_brute(cuts, 1.0))


class GaussRegions(Workload):
    """Gauss norms of a cone and a Carleson box at one centre per op."""

    name = "gauss_regions"
    trials = 2000
    cone = (1.0, 0.2)  # aperture, truncation height
    box_radius = 0.1

    def setup(self, seed: int) -> dict:
        t = time.perf_counter()
        l1 = harness.generate_field_corpus(GRID, SCALES, space.ell(1, 3),
                                           self.inputs_per_run // 2,
                                           space.RandomSource(seed))
        linf = harness.generate_field_corpus(GRID, SCALES, space.ell("inf", 3),
                                             self.inputs_per_run // 2,
                                             space.RandomSource(seed).derive(1))
        corpus_s = time.perf_counter() - t
        self.fields = [F for pair in zip(l1, linf) for F in pair]
        self.centres = _seeds(seed, 3).choice(GRID.N, size=self.inputs_per_run,
                                              replace=False)
        self.seed = seed
        return {"corpus_s": corpus_s}

    def op(self, i: int):
        j = i % self.inputs_per_run
        F, x = self.fields[j], GRID.spacing * int(self.centres[j])
        cone = tfield.cone_region(GRID, SCALES, x, *self.cone)
        box = tfield.box_region(GRID, SCALES, tfield.ball_at(GRID, x, self.box_radius))
        rng = space.RandomSource(self.seed).derive(200 + j)
        gc = gaussnorm.gauss_norm(F, cone, trials=self.trials, rng=rng.derive(0))
        gb = gaussnorm.gauss_norm(F, box, trials=self.trials, rng=rng.derive(1))
        return (cone.size, gc), (box.size, gb)

    def arrays(self, out) -> list:
        return [np.array([[size, g.value, g.stderr] for size, g in out])]

    def rel_stderrs(self, out) -> list[float]:
        return [g.stderr / g.value for _, g in out if g.value > 0]

    def atom_trials(self, out) -> int:
        return sum(size * g.trials for size, g in out)

    def make_oracle(self) -> list:
        refs = []
        for j, F in enumerate(self.fields):
            gen = _seeds(self.seed, 8, j)
            x = int(self.centres[j])
            rows = []
            for mask, w in (cone_mask(x, *self.cone), box_mask(x, self.box_radius)):
                ref, err = oracle_gauss_norm(covariance(F.values, mask, w),
                                             F.space.q, gen)
                rows.append((int(mask.sum()), ref, err))
            refs.append(rows)
        return refs

    def check(self, i: int, out, oracle) -> bool:
        return all(size == ref_size and agrees(g.value, g.stderr, ref, err)
                   for (size, g), (ref_size, ref, err)
                   in zip(out, oracle[i % self.inputs_per_run]))


class ExactSuite(Workload):
    """Per-case work of charBMO, paraproduct and good_lambda, exact path."""

    name = "exact_suite"
    pool = 16  # cases with stored reference values; a run uses 8 of them

    @staticmethod
    def pool_case(k: int):
        """Symbol f (l^2_2, bmo_log or bmo_step) and scalar u of pool case k."""
        family = "bmo_log" if k % 2 == 0 else "bmo_step"
        f = harness.generate_corpus(harness.CorpusSpec(family, 1), GRID,
                                    space.ell(2, 2), space.RandomSource(1000 + k))[0]
        u = harness.generate_corpus(harness.CorpusSpec("lp_random", 1), GRID,
                                    space.ell(2, 1), space.RandomSource(2000 + k))[0]
        return f, u

    def setup(self, seed: int) -> dict:
        self.psi = calderon.mexican_hat(1)
        self.phi = calderon.complementary(self.psi)
        self.cases = [int(k) for k in
                      _seeds(seed, 4).permutation(self.pool)[: self.inputs_per_run]]
        t = time.perf_counter()
        self.inputs = [self.pool_case(k) for k in self.cases]
        return {"corpus_s": time.perf_counter() - t}

    def op(self, i: int):
        f, u = self.inputs[i % self.inputs_per_run]
        F = calderon.resolve(f, self.psi, SCALES)
        cuts = functionals.a_fun_cuts(F, 1.0, list(RADII))
        c = functionals.c_fun(F, 1.0, radii=RADII, a_profiles=cuts)
        bmo = functionals.bmo_norm(f)
        P = paraproduct.paraproduct(f, u, self.psi, self.phi, SCALES)
        p_norm = paraproduct.lp_norm(P.field, 2.0)
        tau = decomp.stopping_time(F, q=1.0, rho=2.0)
        A = cuts[0].values
        dec = decomp.whitney(GRID, A > np.percentile(A, 90))
        return {"cuts": cuts, "c": c, "bmo": bmo, "p_norm": p_norm,
                "truncated": P.truncated, "tau": tau, "dec": dec}

    def arrays(self, out) -> list:
        cubes = [(c.level,) + c.index for c in out["dec"].cubes]
        return ([p.values for p in out["cuts"]]
                + [out["c"].values, out["tau"].cut_index, np.array(cubes),
                   np.array([out["bmo"], out["p_norm"], out["truncated"]])])

    @staticmethod
    def summary(out) -> dict:
        """The values stored as references, one record per pool case."""
        return {
            "a_top": [float(v) for v in out["cuts"][0].values[::64]],
            "c_max": float(out["c"].max()),
            "c_sum": float(out["c"].values.sum()),
            "bmo": float(out["bmo"]),
            "p_norm": float(out["p_norm"]),
            "truncated": bool(out["truncated"]),
            "cut_index_sum": int(out["tau"].cut_index.sum()),
            "whitney_cubes": len(out["dec"].cubes),
        }

    def make_oracle(self) -> list:
        with open(REFERENCE_FILE) as fh:
            reference = json.load(fh)
        return [reference[str(k)] for k in self.cases]

    def check(self, i: int, out, oracle) -> bool:
        ref = oracle[i % self.inputs_per_run]
        got = self.summary(out)
        same = all(close(np.asarray(got[k], dtype=float), np.asarray(ref[k], dtype=float))
                   for k in ("a_top", "c_max", "c_sum", "bmo", "p_norm"))
        same = same and all(got[k] == ref[k]
                            for k in ("truncated", "cut_index_sum", "whitney_cubes"))
        # on a Hilbert target A^2 is the trace of the cone covariance
        F = resolve_oracle(self.inputs[i % self.inputs_per_run][0].values)
        top = out["cuts"][0].values
        exact = all(
            close(top[x], math.sqrt(np.trace(covariance(
                F, *cone_mask(x, 1.0, float(RADII[0])))).real))
            for x in (0, 171, 342))
        return bool(same and exact and decomp.whitney_check(out["dec"]).ok
                    and close(out["c"].values, c_fun_brute(out["cuts"], 1.0)))


WORKLOADS = {w.name: w for w in (McSweep, GaussRegions, ExactSuite)}

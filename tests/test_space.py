import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentspace.space import (
    BanachSpace,
    _norm_from_squares,
    RandomSource,
    complex_gaussian_array,
    dual,
    ell,
    norm,
    pair,
)


def test_norm_pythagorean():
    assert norm(ell(2, 3), np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)


def test_norm_l1_sum_of_moduli():
    assert norm(ell(1, 2), np.array([1.0, -1.0])) == pytest.approx(2.0)


def test_norm_sup():
    assert norm(ell("inf", 3), np.array([1.0, -2.5, 2.0])) == pytest.approx(2.5)


def test_norm_l4_matches_extended_precision_oracle():
    rng = RandomSource(7).generator()
    space = ell(4, 5)
    for _ in range(50):
        v = complex_gaussian_array(rng, 5)
        # oracle: extended-precision power sum via math.fsum
        oracle = math.fsum(abs(z) ** 4 for z in v) ** 0.25
        assert norm(space, v) == pytest.approx(oracle, rel=1e-12)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm(ell(2, 3), np.zeros(4))


def _norm_by_numpy_reductions(q, v):
    a = np.abs(v)
    if q == "inf":
        return a.max(axis=-1)
    if q == 1:
        return a.sum(axis=-1)
    if q == 2:
        return np.sqrt((a * a).sum(axis=-1))
    return (a ** float(q)).sum(axis=-1) ** (1.0 / q)


@pytest.mark.parametrize("q", [1, 1.5, 2, 4, "inf"])
@pytest.mark.parametrize("lead", [(), (300,), (4, 5)])
def test_norm_is_bit_exact_to_numpy_reductions(q, lead):
    for d in range(1, 10):
        v = complex_gaussian_array(RandomSource(d, len(lead)), lead + (d,))
        got, want = norm(ell(q, d), v), _norm_by_numpy_reductions(q, v)
        assert type(got) is type(want) and np.shape(got) == lead
        if d <= 7 or q == "inf":
            assert np.array_equal(got, want), (q, d)
        else:  # from eight terms on numpy sums eight accumulators at once
            np.testing.assert_array_max_ulp(got, want, maxulp=4)


@pytest.mark.parametrize("q", [1, 1.5, 2, 4, "inf"])
def test_norm_propagates_nan_and_rejects_0d(q):
    v = np.ones((4, 3), dtype=complex)
    v[1, 0] = np.nan
    v[2, 2] = complex(1.0, np.nan)
    got = norm(ell(q, 3), v)
    assert np.isnan(got[1:3]).all() and np.isfinite(got[[0, 3]]).all()
    with pytest.raises(ValueError, match="last axis"):
        norm(ell(q, 1), np.array(1.0 + 0j))


def test_dual_exponents():
    assert dual(ell(2, 3)) == ell(2, 3)
    assert dual(ell(1, 2)) == ell("inf", 2)
    assert dual(ell("inf", 2)) == ell(1, 2)
    assert dual(ell(3, 4)).q == pytest.approx(1.5)


def test_pair_orthogonal_and_zero():
    assert pair(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert pair(np.array([2.0, 3.0]), np.zeros(2)) == 0.0


@pytest.mark.parametrize("lead", [(), (300,), (4, 5)])
def test_pair_is_bit_exact_to_numpy_sum(lead):
    for d in range(1, 8):
        gen = RandomSource(d, len(lead)).generator()
        x = complex_gaussian_array(gen, lead + (d,))
        xd = complex_gaussian_array(gen, lead + (d,))
        for a, b in ((x.real, xd.real), (x, xd), (x, xd.real)):
            got, want = pair(a, b), (a * b).sum(axis=-1)
            assert type(got) is type(want) and np.shape(got) == lead
            if d <= 3 or not np.iscomplexobj(want):
                assert np.array_equal(got, want), (d, a.dtype, b.dtype)
            else:  # numpy sums four or more complex terms pairwise
                scale = np.abs(a * b).sum(axis=-1)
                assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


def test_pair_hoelder_on_random_draws():
    # |<x, xd>| <= ||x||_q ||xd||_{q'} for 10^4 draws in l^3_4 x l^{3/2}_4
    x_space = ell(3, 4)
    d_space = dual(x_space)
    gen = RandomSource(11).generator()
    x = complex_gaussian_array(gen, (10_000, 4))
    xd = complex_gaussian_array(gen, (10_000, 4))
    lhs = np.abs(pair(x, xd))
    rhs = norm(x_space, x) * norm(d_space, xd)
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_norm_axioms_bulk():
    # triangle inequality and homogeneity on 10^4 random pairs per space
    gen = RandomSource(29).generator()
    for q in (1.0, 1.7, 2.0, 4.0, None):
        space = BanachSpace(4, q)
        u = complex_gaussian_array(gen, (10_000, 4))
        v = complex_gaussian_array(gen, (10_000, 4))
        c = complex_gaussian_array(gen, (10_000, 1))
        assert np.all(norm(space, u + v) <= (norm(space, u) + norm(space, v)) * (1 + 1e-12))
        lhs = norm(space, c * u)
        rhs = np.abs(c[:, 0]) * norm(space, u)
        assert np.allclose(lhs, rhs, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_norm_triangle_and_homogeneity(seed):
    gen = np.random.default_rng(seed)
    q = float(gen.uniform(1.0, 6.0))
    space = ell(q, 4)
    u = complex_gaussian_array(gen, 4)
    v = complex_gaussian_array(gen, 4)
    c = complex(gen.normal(), gen.normal())
    assert norm(space, u + v) <= (norm(space, u) + norm(space, v)) * (1 + 1e-12)
    assert norm(space, c * u) == pytest.approx(abs(c) * norm(space, u), rel=1e-12)


def test_complex_gaussian_array_empty_and_deterministic():
    assert complex_gaussian_array(RandomSource(5), 0).size == 0
    a = complex_gaussian_array(RandomSource(5, 1), 64)
    b = complex_gaussian_array(RandomSource(5, 1), 64)
    assert np.array_equal(a, b)
    c = complex_gaussian_array(RandomSource(5, 2), 64)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("q", [1, 1.5, 2, 4, "inf"])
def test_norm_from_squares_matches_norm(q):
    space = ell(q, 3)
    v = complex_gaussian_array(RandomSource(8), (5, 4, 3))
    sq = np.moveaxis(v.real ** 2 + v.imag ** 2, -1, 0)
    got = _norm_from_squares(space, sq, axis=0)
    np.testing.assert_allclose(got, norm(space, v), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [0, 5, (), (0, 3), (7, 2), (3, 4, 2)])
def test_complex_gaussian_array_matches_quotient_form(shape):
    def quotient_form(gen):
        re = gen.standard_normal(shape)
        im = gen.standard_normal(shape)
        return (re + 1j * im) / math.sqrt(2.0)

    got = complex_gaussian_array(RandomSource(5, 2), shape)
    want = quotient_form(RandomSource(5, 2).generator())
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    gen, ref = np.random.default_rng(9), np.random.default_rng(9)
    got, want = complex_gaussian_array(gen, shape), quotient_form(ref)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert gen.standard_normal() == ref.standard_normal()  # same draws consumed


def test_complex_gaussian_array_second_moment():
    g = complex_gaussian_array(RandomSource(17), 100_000)
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=0.02)


def test_space_validation():
    with pytest.raises(ValueError):
        BanachSpace(0, 2.0)
    with pytest.raises(ValueError):
        BanachSpace(3, 0.5)
    assert ell(math.inf, 2).is_sup
    assert ell(None, 2).is_sup

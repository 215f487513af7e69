"""Parameter checks that a NaN fails, as any other invalid value does."""

import math

import numpy as np
import pytest

from tentspace.decomp import stopping_time
from tentspace.field import (
    HalfSpaceField,
    Region,
    ScaleGrid,
    SpatialGrid,
    ball_at,
    cone_region,
)
from tentspace.functionals import a_fun, c_fun, n_fun
from tentspace.gaussnorm import GaussEstimate
from tentspace.space import RandomSource, complex_gaussian_array, ell

GRID = SpatialGrid(1, 8)
SCALES = ScaleGrid(0.01, 0.25, 3)
NAN, INF = math.nan, math.inf


def _region(weights):
    return Region(GRID, SCALES, np.array([0, 1]), np.array([0, 0]), np.array(weights))


def _field():
    vals = complex_gaussian_array(RandomSource(3), (SCALES.K,) + GRID.shape + (1,))
    return HalfSpaceField(GRID, SCALES, ell(2, 1), vals)


def _stopping_time(rho):
    return stopping_time(_field(), q=1.0, rho=rho)


@pytest.mark.parametrize("build, match", [
    (lambda: _region([NAN, 1.0]), "weights"),
    (lambda: _region([1.0, INF]), "weights"),
    (lambda: GaussEstimate(NAN, 0.0, 0, True), "nonnegative"),
    (lambda: GaussEstimate(1.0, NAN, 16, False), "nonnegative"),
    (lambda: _stopping_time(NAN), "rho"),
    (lambda: cone_region(GRID, SCALES, NAN, 1.0), "point x"),
    (lambda: cone_region(GRID, SCALES, 0.5, NAN), "alpha"),
    (lambda: cone_region(GRID, SCALES, 0.5, 1.0, h=NAN), "height h"),
    (lambda: ball_at(GRID, 0.5, NAN), "radius"),
    (lambda: a_fun(_field(), 1.0, h=NAN), "height"),
    (lambda: a_fun(_field(), NAN), "alpha"),
    (lambda: n_fun(_field(), NAN), "alpha"),
    (lambda: c_fun(_field(), NAN), "q must"),
], ids=["region_nan_weight", "region_inf_weight", "estimate_nan_value",
        "estimate_nan_stderr", "stopping_time_nan_rho", "cone_nan_centre",
        "cone_nan_alpha", "cone_nan_height", "ball_nan_radius", "a_fun_nan_height",
        "a_fun_nan_alpha", "n_fun_nan_alpha", "c_fun_nan_q"])
def test_nan_and_inf_fail_the_check(build, match):
    with pytest.raises(ValueError, match=match):
        build()

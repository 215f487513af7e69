"""Tent-space functional calculus on periodic grids.

Conical square functions, Carleson functionals, non-tangential maxima,
Gauss norms over finite-dimensional l^q targets, Whitney decompositions,
stopping times and paraproducts, plus experiment suites that check the
norm relations between them at desk scale.
"""

from .calderon import (
    TestFunction,
    bandpass_meyer,
    complementary,
    dgauss_1,
    gauss_bump,
    make_test_function,
    mexican_hat,
    nondegeneracy_margin,
    reproducing_residual,
    resolve,
)
from .decomp import (
    DyadicCube,
    GoodLambdaTable,
    StoppingProfile,
    WhitneyDecomposition,
    fubini_defect,
    good_lambda_table,
    set_measure,
    stopping_time,
    whitney,
    whitney_check,
)
from .field import (
    Ball,
    HalfSpaceField,
    Region,
    SampledFunction,
    ScaleGrid,
    SpatialGrid,
    ball_at,
    box_region,
    cone_region,
    dyadic_radii,
    torus_dist,
)
from .functionals import (
    FunctionalProfile,
    a_fun,
    a_fun_cuts,
    bmo_norm,
    c2_box_profile,
    c_fun,
    maximal_fn,
    n_fun,
)
from .gaussnorm import (
    GaussEstimate,
    duality_defect,
    gauss_norm,
    paired_multiplier_defect,
    unimodular_invariance_defect,
)
from .harness import (
    CorpusSpec,
    ExperimentConfig,
    Report,
    generate_corpus,
    generate_field_corpus,
    run_suite,
)
from .io import read_json, read_tsf1, write_json, write_tsf1
from .paraproduct import ParaproductResult, lp_norm, pair_paraproduct, paraproduct
from .space import (
    BanachSpace,
    RandomSource,
    dual,
    ell,
    norm,
    pair,
)

__version__ = "0.1.0"

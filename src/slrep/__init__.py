"""Exact counting, sampling, and limit-law analysis of random
finite-dimensional representations of the special linear Lie algebras.

A random n-dimensional representation is a uniformly chosen multiset of
irreducibles whose dimensions sum to n.  The package counts these objects
exactly, samples them (directly and through the grand-canonical Boltzmann
model), and compares exact finite-n distributions of their observables
against the limit laws, with certified truncation errors throughout.
"""

from time import monotonic as _monotonic

_IMPORT_STARTED = _monotonic()  # the manifest's import_s counts from here

from .boltzmann import (
    BoltzmannParams,
    boltzmann_sample,
    default_cutoff,
    exact_count_mgf,
    exact_expected_shape,
    exact_prob_height_le,
    exact_prob_max_dim_le,
    rejection_uniform_sample,
    sampling_params,
    solve_saddle,
    truncation_tv_bound,
)
from .census import (
    BudgetError,
    IrrepCensus,
    enumerate_irreps,
    inverse_moment_tail,
    region_volume,
    weighted_tail_bound,
    write_csv,
)
from .exact_count import (
    CountTable,
    Representation,
    count_representations,
    counts_excluding_one_weight,
    uniform_sample,
)
from .limits import (
    LimitConstants,
    asymptotic_saddle,
    bose_tail,
    compute_constants,
    count_mgf,
    dim_moment_integral,
    dispersion_constant,
    exp_cdf,
    gumbel_cdf,
    limit_shape,
    saddle_scale_constant,
    variance_scale_constant,
    zeta,
)
from .stats import (
    default_shape_grid,
    stat_height,
    stat_max_dim,
)
from .weights import (
    degree,
    dim_irrep,
    superfactorial,
    twice_height,
    weyl_numerator,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

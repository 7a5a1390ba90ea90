"""Limit-law constants, reference distributions, shape, and count mgf."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad, tplquad
from scipy.special import gamma as gamma_fn, zeta

import slrep.limits
from slrep.boltzmann import solve_saddle
from slrep.census import enumerate_irreps, inverse_moment_tail, region_volume
from slrep.limits import (
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
from slrep.stats import default_shape_grid
from slrep.verify import _MGF_GRID, _MGF_LIMIT_MAX_DIM
from slrep.weights import degree

from oracles import (
    bose_tail_reference,
    dim_poly,
    limit_shape_simplex_reference,
    moment_box_quadrature,
)


def test_rank_one_moment_integrals_closed_forms():
    # at rank 1 the moment integrals are classical: pi^2/6 and pi^2/3
    j1, e1 = dim_moment_integral(1, 1)
    j2, e2 = dim_moment_integral(1, 2)
    assert j1 == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert j2 == pytest.approx(math.pi**2 / 3.0, abs=1e-12)
    assert e1 == 0.0 and e2 == 0.0


@pytest.mark.parametrize("r,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_moment_integral_matches_volume_factorization(r, p):
    vol, vol_err = region_volume(r)
    beta = 2.0 / (r + 1)
    expected = vol * beta * gamma_fn(p + beta) * zeta(1.0 + beta)
    value, err = dim_moment_integral(r, p)
    assert value == pytest.approx(expected, rel=1e-10)
    assert err <= 2.0 * vol_err * expected / vol + 1e-15


@pytest.mark.parametrize("p", [1, 2])
def test_moment_integral_agrees_with_box_quadrature(p):
    # two independent routes: closed-form layer cake vs direct 2d quadrature
    # with analytic strip tails; they must agree within combined error bars
    closed, closed_err = dim_moment_integral(2, p)
    box, box_err = moment_box_quadrature(p)
    assert abs(closed - box) <= closed_err + box_err


def test_moment_integral_validation():
    with pytest.raises(ValueError):
        dim_moment_integral(2, 3)
    with pytest.raises(ValueError):
        moment_box_quadrature(0)


@pytest.mark.parametrize("s", [1.0 + 2.0 / (r + 1) for r in range(1, 7)]
                         + [1.0001, 1.01, 1.5, 3.0, 4.5, 10.0, 40.0])
def test_zeta_against_mpmath(s):
    # 1 + 2/(r+1) is where dim_moment_integral reads zeta, ranks 1..6
    with mp.workdps(40):
        exact = mp.zeta(mp.mpf(s))
        assert abs(mp.mpf(zeta(s)) - exact) <= 4e-16 * exact
    with pytest.raises(ValueError):
        zeta(1.0)


@pytest.mark.parametrize("s", [2.0 / (r + 1) for r in range(2, 7)]
                         + [1e-3, 0.1, 0.25, 0.75, 0.9, 0.999])
def test_zeta_below_one_against_mpmath(s):
    # zeta(c), c = 2/(r+1), is the constant of bose_tail's series branch;
    # the Euler-Maclaurin terms cancel there, so a few ulps of the largest
    # term (about 10, against |zeta| >= 1/2) are allowed
    with mp.workdps(40):
        exact = mp.zeta(mp.mpf(s))
        assert abs(mp.mpf(zeta(s)) - exact) <= 5e-15 * abs(exact)
    for bad in (0.0, -0.5):
        with pytest.raises(ValueError):
            zeta(bad)


@pytest.mark.parametrize("c", [2.0 / 3.0, 0.5])
def test_bose_tail_against_mpmath(c):
    xs = np.concatenate([np.geomspace(1e-8, 700.0, 25),
                         [np.nextafter(3.0, 0.0), 3.0, np.nextafter(3.0, 4.0)]])
    assert np.any(xs < 3.0) and np.any(xs >= 3.0)  # both branches
    values, err = bose_tail(c, xs)
    with mp.workdps(30):
        for x, value, e in zip(xs, values, err):
            exact = bose_tail_reference(c, x)
            assert abs(mp.mpf(value) - exact) <= e, x
            assert e <= 1e-11 * exact, x
    with pytest.raises(ValueError):
        bose_tail(1.0, xs)
    with pytest.raises(ValueError):
        bose_tail(c, [0.0])


def test_rank_one_saddle_constant_is_pi_over_sqrt_six():
    assert saddle_scale_constant(1) == pytest.approx(math.pi / math.sqrt(6.0),
                                                     abs=1e-12)


def test_dispersion_combines_scale_constants():
    for r in (1, 2, 3):
        expected = variance_scale_constant(r) / saddle_scale_constant(r) ** (r * (r + 2))
        assert dispersion_constant(r) == pytest.approx(expected, rel=1e-12)


def test_asymptotic_saddle_tracks_solver():
    params = solve_saddle(2, 10**6)
    ratio = params.s / asymptotic_saddle(2, 10**6)
    assert abs(ratio - 1.0) < 0.1
    with pytest.raises(ValueError):
        asymptotic_saddle(2, 0)


@pytest.mark.parametrize("n", [10**400, math.inf, math.nan])
def test_asymptotic_saddle_refuses_dimensions_beyond_floats(n):
    with pytest.raises(ValueError, match="largest float"):
        asymptotic_saddle(2, n)
    assert asymptotic_saddle(2, 10**300) > 0.0


def test_compute_constants_fields():
    params = solve_saddle(2, 10**4)
    constants = compute_constants(2, params.s)
    # the record holds only values of s; the r-only volume enters the D
    # center from `region_volume`
    assert list(constants._fields) == [
        "rank", "s", "max_dim_center", "max_dim_scale",
        "height_center", "height_scale"]
    assert constants.s == params.s
    assert constants.count_scale == pytest.approx(params.s ** degree(2), rel=1e-12)
    assert constants.max_dim_scale == pytest.approx(params.s ** (-3), rel=1e-12)
    omega = -2.0 * math.log(params.s)
    center = params.s ** (-3) * (omega - math.log(omega) / 3.0
                                 + math.log(2.0 * region_volume(2)[0] / 3.0))
    assert constants.max_dim_center == pytest.approx(center, rel=1e-12)
    assert constants.max_dim_center > 0.0
    assert constants.height_center > 0.0 and constants.height_scale > 0.0


def test_compute_constants_nan_when_scale_degenerates():
    # a log scale <= 0 leaves that normalizer undefined: its fields are NaN,
    # quietly, and the other normalizer is unaffected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit_s = compute_constants(2, 1.0)
        coarse_s = compute_constants(2, 2.0)
    assert math.isnan(unit_s.max_dim_center)
    assert unit_s.max_dim_scale > 0.0
    assert unit_s.height_center > 0.0 and unit_s.height_scale > 0.0
    # the H log scale r! log(2 (r-1)! s^(-(r+1)/2)) is not positive at s = 2
    assert 2.0 * math.log(2.0 * 2.0 ** -1.5) <= 0.0
    assert math.isnan(coarse_s.height_center) and math.isnan(coarse_s.height_scale)


@pytest.mark.parametrize("r", [4, 5, 6])
def test_compute_constants_at_high_rank(r):
    # at the solved saddle, which the gap reports use, every center and
    # scale is finite and positive down to n = 1
    for n in (1, 10, 100, 300, 10**3, 10**6, 10**9):
        constants = compute_constants(r, solve_saddle(r, n).s)
        for value in (constants.max_dim_center, constants.max_dim_scale,
                      constants.height_center, constants.height_scale):
            assert math.isfinite(value) and value > 0.0, (n, value)


def test_gumbel_and_exponential_reference_cdfs():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert float(gumbel_cdf(50.0)) == pytest.approx(1.0, abs=1e-15)
    xs = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(gumbel_cdf(xs), np.exp(-np.exp(-xs)))
    assert float(exp_cdf(-1.0)) == 0.0
    assert float(exp_cdf(0.0)) == 0.0
    assert float(exp_cdf(1.0)) == pytest.approx(-math.expm1(-1.0), abs=1e-15)
    assert np.all(np.diff(exp_cdf(np.linspace(-1, 5, 50))) >= 0.0)


def test_limit_shape_rank_one_closed_form():
    levels = np.array([0.1, 0.7, 2.0, 5.0])
    values, err = limit_shape(1, levels)
    for t, value, e in zip(levels, values, err):
        assert value == pytest.approx(-math.log(-math.expm1(-t)), rel=1e-12)
        assert 0.0 < e <= 1e-14 * value


@pytest.mark.parametrize("t", [0.5, 1.5])
def test_limit_shape_rank_two_against_direct_quadrature(t):
    # independent route: integrate the raw corner integral on a finite box;
    # the integrand is below e^{-a}/(1 - e^{-hi t^3/2}) ~ e^{-a} far out, so
    # a generous box bounds the truncation well under the tolerance
    def f(y2, y1):
        a = dim_poly(2, (y1, y2))
        return math.exp(-a) / -math.expm1(-a)

    hi = (60.0 / t) ** 0.5 + t
    direct, _ = dblquad(f, t, hi, t, hi, epsabs=1e-10, epsrel=1e-9)
    (value,), _ = limit_shape(2, np.array([t]))
    assert value == pytest.approx(direct, rel=1e-6)


def test_limit_shape_rank_two_against_simplex_reduction():
    # the default levels and three more, against the simplex integral at
    # the corner (t, t) in mpmath; err must be a true bound and at most 1e-6
    levels = np.concatenate([default_shape_grid(2), [0.5, 2.0, 3.0]])
    values, err = limit_shape(2, levels)
    assert values.shape == err.shape == levels.shape
    with mp.workdps(20):
        for t, value, e in zip(levels, values, err):
            exact = limit_shape_simplex_reference(t, t)
            assert abs(mp.mpf(value) - exact) <= e, t
            assert 0.0 < e <= 1e-6 * value, t


@pytest.mark.parametrize("t", [(0.3, 0.3, 0.3), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)])
def test_limit_shape_rank_three_against_tplquad(t):
    # the cube route the package used before the reduction: y_j = t_j -
    # log u_j maps the corner set onto the unit cube
    def f(u3, u2, u1):
        y = (t[0] - math.log(u1), t[1] - math.log(u2), t[2] - math.log(u3))
        a = dim_poly(3, y)
        return 0.0 if a > 700.0 else math.exp(-a) / -math.expm1(-a) / (u1 * u2 * u3)

    direct, _ = tplquad(f, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, epsabs=1e-10, epsrel=1e-7)
    (value,), (err,) = limit_shape(3, np.array(t[:1]))
    assert abs(value - direct) <= err + 1e-7 * direct
    assert 0.0 < err <= 1e-6 * value


def test_limit_shape_validation():
    assert limit_shape(3, np.array([1.0]))[0][0] > 0.0
    with pytest.raises(ValueError):
        limit_shape(2, np.array([(1.0, 1.0)]))  # corners, not levels
    with pytest.raises(ValueError):
        limit_shape(2, np.array(1.0))  # one level is a 1-element array
    for bad in (-1.0, 0.0):
        with pytest.raises(ValueError):
            limit_shape(2, np.array([1.0, bad]))
    with pytest.raises(NotImplementedError):
        limit_shape(4, np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # t^nu overflows: refused, not warned
        with pytest.raises(ValueError):
            limit_shape(2, [1e200])


def test_limit_shape_is_decreasing_in_the_corner():
    values, _ = limit_shape(2, np.array([0.2, 0.5, 1.0, 2.0, 4.0]))
    assert list(values) == sorted(values, reverse=True)


def test_count_mgf_normalization_and_validation():
    census = enumerate_irreps(2, 20_000)
    (value,), (err,) = count_mgf(np.array([0.0]), census)
    assert value == 1.0 and err >= 0.0
    with pytest.raises(ValueError):
        count_mgf(np.array([0.3]), enumerate_irreps(1, 100))
    with pytest.raises(ValueError):
        count_mgf(np.array([1.0 + 1e-12]), census)  # beyond the pole at m = 1
    with pytest.raises(ValueError):
        count_mgf(np.array([20_000.0]), census)
    with pytest.raises(ValueError):
        count_mgf(np.array([0.9]), enumerate_irreps(2, 1))  # |u| above X / 2
    for bad in (np.float64(0.3), np.array([[0.3]]), np.array([0.3 + 0.2j])):
        with pytest.raises(ValueError):
            count_mgf(bad, census)


def test_count_mgf_cutoff_consistency():
    us = np.array([-0.5, -0.25, 0.25, 0.5])
    for r in (2, 3, 4, 5, 6):
        small = enumerate_irreps(r, 20_000)
        large = enumerate_irreps(r, 100_000)
        values, errs = count_mgf(us, small)
        for i, u in enumerate(us):
            (v_small,), (e_small,) = count_mgf(us[i:i + 1], small)
            (v_large,), (e_large,) = count_mgf(us[i:i + 1], large)
            assert abs(v_small - v_large) <= e_small + e_large, (r, u)
            assert e_large < e_small, (r, u)
            # an array of points gives the pointwise values
            assert values[i] == pytest.approx(v_small, rel=1e-14), (r, u)
            assert errs[i] == pytest.approx(e_small, rel=1e-14), (r, u)



@pytest.mark.parametrize("r", [2, 3, 4])
def test_count_mgf_err_covers_rounding(monkeypatch, r):
    # the report's census product against 40 digits with the same three tail
    # terms; their certified errors and the fourth-order remainder are set
    # to zero, so err holds the float rounding alone
    census = enumerate_irreps(r, _MGF_LIMIT_MAX_DIM)
    tails = {j: inverse_moment_tail(census, j)[0] for j in (1, 2, 3)}
    monkeypatch.setattr(slrep.limits, "inverse_moment_tail",
                        lambda c, j: (tails.get(j, 0.0), 0.0))
    us = np.array(_MGF_GRID)
    values, errs = count_mgf(us, census)
    pairs = list(zip(census.dims.tolist(), census.counts.tolist()))
    with mp.workdps(40):
        for u, value, err in zip(us, values, errs):
            u = mp.mpf(u)
            log_ref = -mp.fsum(rho * mp.log1p(-u / m) for m, rho in pairs)
            log_ref += mp.fsum(u**j / j * mp.mpf(tails[j]) for j in (1, 2, 3))
            assert abs(mp.mpf(value) - mp.exp(log_ref)) <= err, (r, float(u))

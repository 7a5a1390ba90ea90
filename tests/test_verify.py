"""Certified fractional-part windows, ensembles TV, and limit-gap reports."""

import math
from fractions import Fraction

import numpy as np
import pytest

from slrep.boltzmann import solve_saddle
from slrep.census import enumerate_irreps
from slrep.exact_count import count_representations
from slrep.verify import (
    FRAC_MARGIN,
    appendix_window_check,
    compare_exact_to_limit,
    ensembles_tv,
    exact_frac_parts,
    ks_distance,
    lambda_window,
    shrinking,
    theta_grid,
    weyl_lower_bound_check,
    _lambda_dims,
)
from slrep.limits import gumbel_cdf
from slrep.weights import dim_irrep


def test_exact_frac_parts_against_rational_arithmetic():
    rng = np.random.default_rng(17)
    dims = rng.integers(1, 2**50, size=2000, dtype=np.int64)
    dims[:4] = [1, 2**50 - 1, 3, 2**49 + 1]
    for theta in (0.5, 0.25, 1.0 / 3.0, math.sqrt(2.0) - 1.0, 0.0, 1.0,
                  math.pi / 4.0, 1e-9, 1.0 - 1e-9):
        got = exact_frac_parts(theta, dims)
        exact_theta = Fraction(theta)
        for d, g in zip(dims[:200], got[:200]):
            frac = (exact_theta * int(d)) % 1
            # distance on the circle: a true part just below 1 may be
            # reported as a value just above 0 and vice versa
            diff = abs(g - float(frac))
            assert min(diff, 1.0 - diff) <= FRAC_MARGIN
        assert np.all((got >= 0.0) & (got < 1.0))


def test_exact_frac_parts_guards():
    with pytest.raises(NotImplementedError):
        exact_frac_parts(0.5, np.array([2**52], dtype=np.int64))
    with pytest.raises(ValueError):
        exact_frac_parts(1.5, np.array([1], dtype=np.int64))
    with pytest.raises(ValueError):
        exact_frac_parts(-0.1, np.array([1], dtype=np.int64))


def test_lambda_window_box_cardinality_and_ranges():
    points = list(lambda_window(2, 4))
    assert len(points) == (2 * 4 + 1) * (3 * 4 + 1) == 117
    k1s = {k[0] for k in points}
    k2s = {k[1] for k in points}
    assert min(k1s) == 4 and max(k1s) == 12
    assert min(k2s) == 4 and max(k2s) == 16
    assert len(list(lambda_window(3, 4))) == 9 * 13 * 17 == 1989
    with pytest.raises(ValueError):
        lambda_window(2, 3)


@pytest.mark.parametrize("r,N", [(2, 4), (3, 4)])
def test_lambda_dims_match_per_point_evaluation(r, N):
    dims = _lambda_dims(r, N)
    expected = [dim_irrep(r, k) for k in lambda_window(r, N)]
    assert sorted(map(int, dims)) == sorted(expected)


def test_weyl_check_passes_on_its_default_grid():
    random_t, adversarial_t = theta_grid(2, 4, 1.0 / 32.0, num_random=500)
    thetas = np.unique(np.concatenate([random_t, adversarial_t]))
    report = weyl_lower_bound_check(2, 4, 1.0 / 32.0, thetas, "unit test grid")
    assert report.passed
    assert report.count_bound == 16.0 / 32.0
    nu = 3
    assert report.sin2_bound == pytest.approx(
        math.sin(math.pi * (1.0 / 32.0) / 2**nu) ** 2 / 32.0 * 16.0)
    assert report.window == (1.0 / 32.0) / 2**nu


def test_weyl_counts_at_one_half_are_odd_dimensions():
    dims = _lambda_dims(2, 4)
    odd = int(np.sum(dims % 2 == 1))
    report = weyl_lower_bound_check(2, 4, 1.0 / 32.0, np.array([0.5]), "pin")
    assert int(report.counts[0]) == odd == 36
    # at theta = 1/2 every window distance is 0 or 1/2 exactly
    direct = odd * math.sin(math.pi * 0.5) ** 2
    assert report.sin2_lower[0] <= direct
    assert report.sin2_lower[0] == pytest.approx(direct, rel=1e-10)


def test_weyl_certified_sum_bounds_true_sum():
    rng = np.random.default_rng(5)
    dims = _lambda_dims(2, 8)
    for theta in rng.uniform(1.0 / 32.0 / 8**3, 0.5, size=5):
        report = weyl_lower_bound_check(2, 8, 1.0 / 32.0, np.array([theta]), "pin")
        true_sum = float(np.sum(np.sin(math.pi * ((dims * Fraction(theta)) % 1)
                                       .astype(float)) ** 2))
        assert report.sin2_lower[0] <= true_sum + 1e-9


def test_weyl_check_validation():
    t = np.array([0.25])
    with pytest.raises(ValueError):
        weyl_lower_bound_check(1, 4, 1.0 / 32.0, t, "bad rank")
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 4, 0.2, t, "epsilon too large")
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 4, 0.0, t, "epsilon zero")
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 3, 1.0 / 32.0, t, "box too small")
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 4, 1.0 / 32.0, np.array([0.6]), "theta high")
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 4, 1.0 / 32.0, np.array([1e-9]), "theta low")


def test_theta_grid_ranges_and_adversarial_content():
    eps = 1.0 / 32.0
    random_t, adversarial_t = theta_grid(2, 4, eps, num_random=200, seed=1)
    lo = eps * 4.0 ** (-3)
    for arr in (random_t, adversarial_t):
        assert np.all((arr >= lo) & (arr <= 0.5))
        assert np.array_equal(arr, np.sort(arr))
    assert len(random_t) == 200
    assert lo in adversarial_t and 0.5 in adversarial_t
    assert 1.0 / 3.0 in adversarial_t


def test_appendix_check_passes_and_reports_structure():
    eps = 1.0 / 32.0
    random_t, adversarial_t = theta_grid(2, 8, eps, num_random=300, seed=2)
    thetas = np.unique(np.concatenate([random_t, adversarial_t]))
    report = appendix_window_check(8, eps, thetas, "unit test grid")
    assert report.passed
    assert report.box_bound == 64.0 / 32.0
    assert report.ladder_bound == 8.0 / 8.0
    assert report.run_length_bound == 8.0 / 2.0 + 1.0
    assert np.all(report.box_counts >= report.box_bound)
    assert len(report.ladder_thetas) <= len(thetas)


def test_ensembles_tv_against_first_principles_at_total_one():
    # at n = 1 the uniform ensemble is a single representation whose
    # dimension-1 weight has multiplicity exactly 1, while the product law
    # keeps the geometric marginal; the TV is then a three-term sum
    params = solve_saddle(2, 1)
    q = params.q
    terms = [abs(0.0 - (1.0 - q)), abs(1.0 - (1.0 - q) * q)]
    tail = 1.0 - (1.0 - q) * (1.0 + q)  # Q(X >= 2)
    expected = 0.5 * (sum(terms) + tail)
    value = ensembles_tv(2, 1, (1, 1), params=params)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.764487636016956, rel=1e-12)


def test_ensembles_tv_reuses_table_and_stays_in_unit_interval():
    table = count_representations(2, 40)
    params = solve_saddle(2, 40)
    for n in (5, 12, 27, 40):
        tv = ensembles_tv(2, n, (1, 1), table=table)
        assert 0.0 <= tv <= 1.0
    assert ensembles_tv(2, 40, (1, 1), table=table, params=params) == \
        pytest.approx(ensembles_tv(2, 40, (1, 1)), rel=1e-12)


def test_ks_distance_cases():
    assert ks_distance([0.0, 0.0], lambda x: np.full_like(x, 0.5)) == 0.5
    rng = np.random.default_rng(9)
    sample = rng.gumbel(size=2000)
    assert ks_distance(sample, gumbel_cdf) < 0.05
    with pytest.raises(ValueError):
        ks_distance([], gumbel_cdf)


def test_shrinking_truth_table():
    assert shrinking([3.0, 2.0, 1.0])
    assert not shrinking([3.0, 2.0, 2.1])
    assert shrinking([3.0, 2.0, 2.1], allow_single_step_fraction=0.1)
    assert shrinking([3.0, 3.2, 2.0], allow_single_step_fraction=0.1)
    assert not shrinking([1.0, 2.0, 3.0], allow_single_step_fraction=0.1)
    assert not shrinking([3.0, 2.0, 2.5], allow_single_step_fraction=0.1)
    assert shrinking([5.0])


def test_compare_multiplicity_gap_closed_form():
    params = solve_saddle(2, 500)
    report = compare_exact_to_limit(2, 500, "mult", params=params, k=(1, 1))
    assert report.gap == pytest.approx(-math.expm1(-params.beta), rel=1e-12)
    assert not report.gap_is_relative
    report3 = compare_exact_to_limit(2, 500, "mult", params=params, k=(2, 1))
    assert report3.gap == pytest.approx(-math.expm1(-3.0 * params.beta), rel=1e-12)


def test_compare_mgf_gap_vanishes_at_zero():
    report = compare_exact_to_limit(2, 500, "mgf", u_grid=(0.0,))
    assert report.gap == 0.0
    assert report.exact[0] == 1.0 and report.limit[0] == 1.0


def test_compare_extremal_statistics_report_fields():
    report = compare_exact_to_limit(2, 500, "D")
    assert report.statistic == "D" and report.rank == 2 and report.n == 500
    assert report.grid.shape == report.exact.shape == report.limit.shape
    assert 0.0 <= report.gap <= 1.0
    assert report.gap == pytest.approx(float(np.max(np.abs(report.exact
                                                           - report.limit))))
    assert np.all((report.exact >= 0.0) & (report.exact <= 1.0))


def test_compare_gaps_shrink_on_small_grid():
    gaps = [compare_exact_to_limit(2, n, "D").gap for n in (200, 2000)]
    assert gaps[1] < gaps[0]


def test_compare_shape_is_relative():
    report = compare_exact_to_limit(2, 500, "shape", t_grid=(1.0, 2.0))
    assert report.gap_is_relative
    assert report.grid.shape == (2,)
    assert np.all(report.limit > 0.0)


def test_compare_shape_certifies_every_corner():
    # the far corners of the default grid lie beyond the saddle solver's
    # census; the report must enlarge its census until each corner's exact
    # value is positive and its certified truncation error is negligible
    params = solve_saddle(2, 10**4)
    report = compare_exact_to_limit(2, 10**4, "shape", params=params)
    assert np.all(report.exact > 0.0)
    assert np.all(report.exact_err <= 1e-6 * report.exact)
    # limit_err is the largest relative error of the limit column, proven
    # at rank 2
    assert 0.0 < report.limit_err <= 1e-6
    assert report.note.endswith("certified")
    far = math.ceil(float(report.grid.max()) / params.s)
    assert dim_irrep(2, (far, far)) > params.cutoff

    small = enumerate_irreps(2, params.cutoff, keep_weights=True)
    with pytest.raises(ValueError):
        compare_exact_to_limit(2, 10**4, "shape", params=params, census=small)


def test_compare_rejects_unknown_statistic():
    with pytest.raises(ValueError):
        compare_exact_to_limit(2, 500, "Z")

"""Certified fractional-part windows, ensembles TV, and limit-gap reports."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import slrep.verify
from slrep.boltzmann import exact_count_mgf, solve_saddle
from slrep.census import enumerate_irreps
from slrep.exact_count import count_representations, counts_excluding_one_weight
from slrep.verify import (
    appendix_window_check,
    compare_exact_to_limit,
    ensembles_tv,
    shrinking,
    theta_grid,
    weyl_lower_bound_check,
    _MGF_LIMIT_MAX_DIM,
    _lambda_dims,
    _window_arrays,
    _window_blocks,
)
from slrep.limits import count_mgf, gumbel_cdf
from slrep.stats import default_shape_grid
from slrep.weights import dim_irrep

from oracles import ks_distance, lambda_window


def grid_ceiling(theta: float) -> float:
    """The least multiple of 2^-64 at or above theta (theta_grid's rounding)."""
    return math.ceil(theta * 2.0**64) * 2.0**-64


def residue_distance(theta: float, a: int) -> Fraction:
    """The distance of theta * a to the nearest integer, in Python integers."""
    m, q = float(theta).as_integer_ratio()
    residue = (m * a) % q
    return Fraction(min(residue, q - residue), q)


def outside_reference(theta: float, dims, window: float):
    """Whether each distance of theta * dims to the integers exceeds window."""
    return [residue_distance(theta, int(a)) > Fraction(window) for a in dims]


# doubles as theta_grid receives them: the kernel is tested at their grid
# ceilings, which move only those below 2^-12
KERNEL_THETAS = (
    0.0, 1.0, 0.5, 0.25, 1.0 / 3.0, math.sqrt(2.0) - 1.0, 1.0 - 1e-9,
    # both sides of 2^-12, below which a double may leave the 2^-64 grid,
    # and the grid point next below it
    np.nextafter(2.0**-12, 1.0), 2.0**-12, np.nextafter(2.0**-12, 0.0),
    2.0**-12 - 2.0**-64,
    1e-9, 1.2715657552083333e-07,
    # the bottom of the grid, and two doubles far below it
    2.0**-64, 3.0 * 2.0**-64, 2.0**-75 * (1.0 + 2.0**-52), 2.0**-100,
)


def kernel_dims():
    rng = np.random.default_rng(17)
    dims = rng.integers(0, 2**63 - 1, size=400, dtype=np.int64, endpoint=True)
    dims[:9] = [0, 1, 2, 3, 2**63 - 1, 2**62, 2**62 + 1, 2**53 + 1, 2**32 + 1]
    return dims


def kernel_rows(thetas, dims, window):
    """Whether each point of the blocked window kernel lies outside the
    window, one row per frequency in the order of thetas, after checking
    that its blocks take every frequency once, in order."""
    outside = np.ones((len(thetas), len(dims)), dtype=bool)
    taken = []
    for block, inside in _window_blocks(thetas, dims, window):
        outside[block] = ~inside
        taken.extend(block.tolist())
    assert taken == list(range(len(thetas)))
    return outside


def run_structure(edge):
    """(longest edge run, follow violation) by a direct scan: a violation is
    a run of length ell whose successor lies outside the edge set while one
    of the next ell - 1 points falls back in."""
    runs, follow = [], False
    start = None
    for i, flag in enumerate(list(edge) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            ell = i - start
            runs.append(ell)
            if i < len(edge) and any(edge[i + 1:i + ell]):
                follow = True
            start = None
    return max(runs, default=0), follow


@pytest.mark.parametrize("theta", KERNEL_THETAS)
def test_window_kernel_distances_against_python_integers(theta):
    theta = grid_ceiling(theta)
    dims = kernel_dims()
    # 2^-11 is a multiple of 2^-64, (1 + 2^-52) 2^-20 and 1e-25 are not
    for window in (2.0**-11, (1.0 + 2.0**-52) * 2.0**-20, 1e-25, 0.0):
        outside = kernel_rows([theta], dims, window)
        assert outside[0].tolist() == outside_reference(theta, dims, window)


@pytest.mark.parametrize("theta", KERNEL_THETAS)
def test_window_kernel_settles_windows_at_each_distance(theta):
    # a window equal to a point's own distance (rounded to a double), or one
    # double either side, is where an inexact distance would flip a test
    theta = grid_ceiling(theta)
    dims = kernel_dims()[:40]
    for a in dims:
        distance = float(residue_distance(theta, int(a)))
        for window in (distance, np.nextafter(distance, 0.0),
                       np.nextafter(distance, 1.0)):
            outside = kernel_rows([theta], dims, window)
            assert outside[0].tolist() == outside_reference(theta, dims, window)


def test_window_kernel_at_simple_frequencies():
    dims = np.arange(0, 50, dtype=np.int64)
    assert not kernel_rows([0.0, 1.0], dims, 0.0).any()
    outside = kernel_rows([0.5], dims, 0.25)
    assert np.array_equal(outside[0], dims % 2 == 1)


def test_window_kernel_guards():
    dims = np.array([1, 2**63 - 1], dtype=np.int64)
    # outside [0, 1], and off the 2^-64 grid
    for theta in (1.5, -0.1, float("nan"), 1e-9, np.nextafter(2.0**-12, 0.0)):
        with pytest.raises(ValueError):
            list(_window_blocks([theta], dims, 0.01))
    # every frequency is checked before the first block is evaluated
    for theta in (1.5, 1e-9):
        with pytest.raises(ValueError):
            next(_window_blocks([0.25, theta], dims, 0.01))


@pytest.mark.parametrize("rows", [None, 3])
def test_window_kernel_blocks_take_every_frequency(monkeypatch, rows):
    # all kernel frequencies in one call: at the module's block size they
    # share one partial block, and at 3 rows they span full blocks and a
    # partial one
    dims = kernel_dims()
    if rows is not None:
        monkeypatch.setattr("slrep.verify._BLOCK_ELEMENTS", rows * dims.size)
    thetas = [grid_ceiling(theta) for theta in KERNEL_THETAS]
    assert len(thetas) % 3 != 0
    window = (1.0 + 2.0**-52) * 2.0**-20
    outside = kernel_rows(thetas, dims, window)
    for i, theta in enumerate(thetas):
        assert outside[i].tolist() == outside_reference(theta, dims, window)


def test_window_kernel_runs_one_row_per_block_on_a_large_box():
    # (3, 16) has more distinct dimensions than a block holds, so every
    # block is one frequency; counts still hold exactly
    dims = _lambda_dims(3, 16)
    unique, mult = np.unique(dims, return_counts=True)
    assert unique.size > 2**16
    thetas = [0.5, math.sqrt(2.0) - 1.0, grid_ceiling(1.2715657552083333e-07),
              grid_ceiling(1e-9), grid_ceiling(2.0 / 3.0 * 2.0**-44)]
    window = 2.0**-11
    assert all(block.size == 1 for block, _ in _window_blocks(thetas, unique, window))
    counts = _window_arrays(np.array(thetas), dims, window)
    wp, wq = window.as_integer_ratio()
    for theta, count in zip(thetas, counts):
        m, q = theta.as_integer_ratio()
        nearest = [min(r, q - r) for r in (m * int(a) % q for a in unique)]
        outside = sum(int(c) for c, x in zip(mult, nearest) if x * wq > wp * q)
        assert int(count) == outside


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


@pytest.mark.parametrize("r,N", [(5, 4), (4, 11)])
def test_lambda_dims_are_dimension_words_on_boxes_beyond_int64(r, N):
    # the corner numerator (dimension times 1!...r!) reaches 2^63 in both
    # boxes, and at (5, 4) the corner dimension itself passes 2^64; every
    # word is the dimension mod 2^64 (checked at 2,000 seeded points and
    # both corners)
    dims = _lambda_dims(r, N)
    lengths = [(j + 1) * N + 1 for j in range(1, r + 1)]
    assert dims.dtype == np.int64 and dims.size == math.prod(lengths)
    rng = np.random.default_rng(11)
    sample = [0, dims.size - 1] + rng.integers(0, dims.size, size=2000).tolist()
    for flat in sample:
        k = [N + int(i) for i in np.unravel_index(flat, lengths)]
        assert int(dims[flat]) % 2**64 == dim_irrep(r, k) % 2**64


def test_weyl_check_passes_on_a_rank_five_box():
    # the box the window kernel once refused; four log-uniform frequencies
    # and the four smallest and largest adversarial ones
    random_t, adversarial_t = theta_grid(5, 4, 1.0 / 32.0, num_random=4, seed=7)
    thetas = np.unique(np.concatenate([random_t, adversarial_t[:4], adversarial_t[-4:]]))
    report = weyl_lower_bound_check(5, 4, 1.0 / 32.0, thetas)
    assert report.passed and thetas.size == 12
    assert report.count_bound == 4**5 / 32.0


def test_weyl_check_passes_on_its_default_grid():
    random_t, adversarial_t = theta_grid(2, 4, 1.0 / 32.0, num_random=500)
    thetas = np.unique(np.concatenate([random_t, adversarial_t]))
    report = weyl_lower_bound_check(2, 4, 1.0 / 32.0, thetas)
    assert report.passed
    assert report.count_bound == 16.0 / 32.0
    nu = 3
    assert report.sin2_bound == pytest.approx(
        math.sin(math.pi * (1.0 / 32.0) / 2**nu) ** 2 / 32.0 * 16.0)
    assert report.window == (1.0 / 32.0) / 2**nu


def test_weyl_counts_at_one_half_are_odd_dimensions():
    dims = _lambda_dims(2, 4)
    odd = int(np.sum(dims % 2 == 1))
    report = weyl_lower_bound_check(2, 4, 1.0 / 32.0, np.array([0.5]))
    assert int(report.counts[0]) == odd == 36


def test_weyl_sin2_bound_follows_from_the_count():
    # the report certifies only the count; the sin^2 form is its corollary:
    # every counted point lies beyond the window, where sin^2(pi x) is
    # increasing, so the true sum reaches count sin^2(pi window) >= sin2_bound
    rng = np.random.default_rng(5)
    cases = []
    for r, N in ((2, 8), (3, 4)):
        lo = 1.0 / 32.0 / N ** (r * (r + 1) // 2)
        # uniform draws land above 2^-12, on the 2^-64 grid already;
        # log-uniform ones below it are rounded up to the grid
        thetas = [grid_ceiling(t) for t in np.concatenate([
            rng.uniform(lo, 0.5, size=5),
            np.exp(rng.uniform(math.log(lo), math.log(2.0**-12), size=3))])]
        cases.extend((r, N, theta) for theta in thetas)
    # the grid ceiling of (1/30) 8^-6: box points within 2^-40 of the window edge
    cases.append((3, 8, grid_ceiling(1.2715657552083333e-07)))
    for r, N, theta in cases:
        unique, mult = np.unique(_lambda_dims(r, N), return_counts=True)
        report = weyl_lower_bound_check(r, N, 1.0 / 32.0, np.array([theta]))
        assert report.passed
        true_sum = math.fsum(
            int(c) * math.sin(math.pi * float(residue_distance(theta, int(a)))) ** 2
            for a, c in zip(unique, mult))
        implied = int(report.counts[0]) * math.sin(math.pi * report.window) ** 2
        assert true_sum >= implied * (1.0 - 1e-12)
        assert implied >= report.sin2_bound * (1.0 - 1e-12)


def test_weyl_count_is_exact_where_points_sit_next_to_the_window():
    # the grid ceiling of theta = (1/30) 8^-6 from the adversarial grid puts
    # six box points within 2^-40 of the window edge 2^-11
    theta = grid_ceiling(1.2715657552083333e-07)
    eps = 1.0 / 32.0
    window = eps * 2.0**-6
    dims = _lambda_dims(3, 8)
    near = [a for a in dims
            if abs(residue_distance(theta, int(a)) - Fraction(window)) < Fraction(1, 2**40)]
    assert len(near) == 6
    expected = sum(outside_reference(theta, dims, window))
    report = weyl_lower_bound_check(3, 8, eps, np.array([theta]))
    assert int(report.counts[0]) == expected == 13991


def test_ladder_flags_and_runs_against_python_integers():
    # points of this frequency sit on the edge of the epsilon / 2 window,
    # where the ladder's sliding count and run structure must be exact
    theta, eps, box = 0.010584677419354838, 1.0 / 32.0, 8
    odd = [2 * k + 1 for k in range(3 * box, 6 * box)]
    edge = [not x for x in outside_reference(theta, odd, eps / 2.0)]
    outside = kernel_rows([theta], np.array(odd), eps / 2.0)
    assert (~outside[0]).tolist() == edge

    longest, follow = run_structure(edge)
    windows = [box - sum(edge[s:s + box]) for s in range(2 * box + 1)]

    report = appendix_window_check(box, eps, np.array([theta]))
    assert report.run_thetas.tolist() == [theta]
    assert int(report.run_max_lengths[0]) == longest == 1
    assert not follow and not report.run_follow_violations[0]
    assert int(report.ladder_min_counts[0]) == min(windows) == 7


def test_ladder_run_structure_against_a_direct_scan(monkeypatch):
    # no real frequency breaks the follow rule (that is what the ladder
    # checks), so a stand-in kernel feeds it random edge sets, in blocks of
    # 7 rows, and the sliding minimum and run structure are compared with a
    # direct scan of each row
    eps, box = 1.0 / 32.0, 8
    length = 3 * box
    rng = np.random.default_rng(3)
    edges = rng.random((200, length)) < rng.uniform(0.05, 0.95, size=(200, 1))
    edges[:2] = [[False], [True]]

    def blocks(thetas, dims, window):
        assert len(dims) == length and window == eps / 2.0
        for start in range(0, len(thetas), 7):
            block = np.arange(start, min(start + 7, len(thetas)))
            yield block, edges[block]

    monkeypatch.setattr("slrep.verify._window_blocks", blocks)
    thetas = np.linspace(eps / box, 0.5 - eps / box, 200)
    report = appendix_window_check(box, eps, thetas)
    assert report.run_thetas.size == 200
    for i, edge in enumerate(edges.tolist()):
        longest, follow = run_structure(edge)
        assert int(report.run_max_lengths[i]) == longest
        assert bool(report.run_follow_violations[i]) == follow
        windows = [box - sum(edge[s:s + box]) for s in range(2 * box + 1)]
        assert int(report.ladder_min_counts[i]) == min(windows)
    assert 0 < report.run_follow_violations.sum() < 200
    assert 0 in report.run_max_lengths and length in report.run_max_lengths


def test_weyl_check_validation():
    t = np.array([0.25])
    with pytest.raises(ValueError):
        weyl_lower_bound_check(1, 4, 1.0 / 32.0, t)
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 4, 0.2, t)
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 4, 0.0, t)
    with pytest.raises(ValueError):
        weyl_lower_bound_check(2, 3, 1.0 / 32.0, t)


@pytest.mark.parametrize("thetas, message", [
    ([], "no frequencies"),
    ([0.25, 0.6], "frequencies must lie"),    # above 1/2
    ([1e-9, 0.25], "frequencies must lie"),   # below epsilon N^-3
])
def test_window_checks_refuse_the_same_frequencies(thetas, message):
    # both window checks read their frequencies through one refusal
    for call in (lambda: weyl_lower_bound_check(2, 4, 1.0 / 32.0, thetas),
                 lambda: appendix_window_check(4, 1.0 / 32.0, thetas)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("box_size, epsilon, message", [
    (4, float("nan"), "window parameter"),   # was OverflowError
    (4, 0.0, "window parameter"),            # was a math domain error
    (4, -0.25, "window parameter"),
    (4, 1.0, "window parameter"),            # was a grid
    (4, float("inf"), "window parameter"),
    (0, 1.0 / 32.0, "box parameter"),        # was ZeroDivisionError
    (2, 1.0 / 32.0, "box parameter"),        # was a grid
    (4, 1e-25, "below 2\\^-64"),              # was a grid collapsed onto 2^-64
])
def test_theta_grid_refuses_an_invalid_window_as_the_checks_do(box_size, epsilon, message):
    # the grid and both window checks refuse the same windows with the same message
    t = np.array([0.25])
    for call in (lambda: theta_grid(2, box_size, epsilon, num_random=4),
                 lambda: weyl_lower_bound_check(2, box_size, epsilon, t),
                 lambda: appendix_window_check(box_size, epsilon, t)):
        with pytest.raises(ValueError, match=message):
            call()


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


# lower ends epsilon N^-nu on the grid (2^-11), off it, and just above 2^-64
@pytest.mark.parametrize("r,N", [(2, 4), (3, 5), (4, 59)])
def test_theta_grid_lies_on_the_2_to_the_64_grid(r, N):
    lo = (1.0 / 32.0) * float(N) ** -(r * (r + 1) // 2)
    random_t, adversarial_t = theta_grid(r, N, 1.0 / 32.0, num_random=200, seed=4)
    ceiling = Fraction(math.ceil(Fraction(lo) * 2**64), 2**64)
    for arr in (random_t, adversarial_t):
        assert np.array_equal(arr, np.sort(arr))
        assert all(Fraction(t) * 2**64 == int(t * 2.0**64) for t in arr)
        assert Fraction(float(arr[0])) >= ceiling and arr[-1] <= 0.5
    # the lower end becomes its ceiling, exactly
    assert Fraction(float(adversarial_t[0])) == ceiling
    assert (ceiling == Fraction(lo)) == (r == 2)
    assert (ceiling == Fraction(2, 2**64)) == (r == 4)
    assert 0.5 in adversarial_t


def test_appendix_check_passes_and_reports_structure():
    eps = 1.0 / 32.0
    random_t, adversarial_t = theta_grid(2, 8, eps, num_random=300, seed=2)
    thetas = np.unique(np.concatenate([random_t, adversarial_t]))
    report = appendix_window_check(8, eps, thetas)
    assert report.passed
    assert report.ladder_bound == 8.0 / 8.0
    assert report.run_length_bound == 8.0 / 2.0 + 1.0
    assert len(report.ladder_thetas) <= len(thetas)
    # the ladder's box count is the rank-2 Weyl check: the dimensions
    # k j (k + j) / 2 over N <= k <= 3N, N <= j <= 4N, window eps / 8 and
    # bound N^2 / 32
    k = np.arange(8, 3 * 8 + 1)[:, None]
    j = np.arange(8, 4 * 8 + 1)[None, :]
    assert np.array_equal(np.sort(_lambda_dims(2, 8)),
                          np.sort((k * j * (k + j) // 2).reshape(-1)))
    box = weyl_lower_bound_check(2, 8, eps, thetas)
    assert box.window == eps / 8.0
    assert box.count_bound == 64.0 / 32.0
    assert np.all(box.counts >= box.count_bound)


def test_ensembles_tv_against_first_principles_at_total_one():
    # at n = 1 the uniform ensemble is a single representation whose
    # dimension-1 weight has multiplicity exactly 1, while the product law
    # keeps the geometric marginal; the TV is then a three-term sum
    params = solve_saddle(2, 1)
    q = params.q
    terms = [abs(0.0 - (1.0 - q)), abs(1.0 - (1.0 - q) * q)]
    tail = 1.0 - (1.0 - q) * (1.0 + q)  # Q(X >= 2)
    expected = 0.5 * (sum(terms) + tail)
    value, _ = ensembles_tv(count_representations(2, 1), 1, (1, 1))
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.764487636016956, rel=1e-12)


def test_ensembles_tv_reuses_table_and_stays_in_unit_interval():
    table = count_representations(2, 40)
    for n in (5, 12, 27, 40):
        tv, _ = ensembles_tv(table, n, (1, 1))
        assert 0.0 <= tv <= 1.0
    # a table reaching past n gives the TV of a table built for n itself
    assert ensembles_tv(table, 27, (1, 1)) == \
        ensembles_tv(count_representations(2, 27), 27, (1, 1))
    with pytest.raises(ValueError, match="count table stops at 40 < 41"):
        ensembles_tv(table, 41, (1, 1))


@pytest.mark.parametrize("n, k", [(60, (1, 1)), (400, (2, 1))])
def test_ensembles_tv_error_bounds_a_50_digit_tv(n, k):
    # the same sum in 50-digit arithmetic, at the same float beta and the
    # same exact counts, lies within the float sum's derived error
    table = count_representations(2, n)
    tv, err = ensembles_tv(table, n, k)
    a = dim_irrep(2, k)
    removed = counts_excluding_one_weight(table, a)
    with mp.workdps(50):
        q = mp.exp(-mp.mpf(solve_saddle(2, n).beta) * a)
        terms = [abs(mp.mpf(removed[n - ell * a]) / table.counts[n] - (1 - q) * q**ell)
                 for ell in range(n // a + 1)]
        exact = (mp.fsum(terms) + q ** (n // a + 1)) / 2
        assert abs(tv - exact) <= err
    assert 0.0 < err < 1e-13


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
    report = compare_exact_to_limit(2, 500, "mult", k=(1, 1))
    assert report.gap == pytest.approx(-math.expm1(-params.beta), rel=1e-12)
    assert not report.gap_is_relative
    report3 = compare_exact_to_limit(2, 500, "mult", k=(2, 1))
    assert report3.gap == pytest.approx(-math.expm1(-3.0 * params.beta), rel=1e-12)


def test_compare_mgf_columns_on_the_standard_grid():
    # the exact column is the product law at the saddle solved for (r, n),
    # the limit column the limit product on its own census
    report = compare_exact_to_limit(2, 500, "mgf")
    params = solve_saddle(2, 500)
    assert report.grid.tolist() == [-0.5, -0.25, 0.25, 0.5]
    # one call over the grid gives each point's own value
    assert report.exact.tolist() == [exact_count_mgf(params, np.array([u]))[0][0]
                                     for u in report.grid.tolist()]
    limit, _ = count_mgf(report.grid, enumerate_irreps(2, _MGF_LIMIT_MAX_DIM))
    assert np.array_equal(report.limit, limit)
    assert report.gap == float(np.max(np.abs(report.exact - report.limit)))


def test_compare_extremal_statistics_report_fields():
    report = compare_exact_to_limit(2, 500, "D")
    assert report.statistic == "D" and report.rank == 2 and report.n == 500
    assert report.grid.shape == report.exact.shape == report.limit.shape
    assert 0.0 <= report.gap <= 1.0
    assert report.gap == pytest.approx(float(np.max(np.abs(report.exact
                                                           - report.limit))))
    assert np.all((report.exact >= 0.0) & (report.exact <= 1.0))


@pytest.mark.parametrize("n", [10**4, 10**6])
def test_rank_one_height_report_is_the_max_dim_report(n):
    # at rank 1 the height is (D - 1) / 2 exactly, so with the H normalizers
    # derived from D's both reports read the same exact CDF on the x-grid
    d = compare_exact_to_limit(1, n, "D")
    h = compare_exact_to_limit(1, n, "H")
    assert np.array_equal(h.grid, d.grid)
    assert np.all(np.abs(h.exact - d.exact) <= h.exact_err + d.exact_err)
    assert h.gap == pytest.approx(d.gap, abs=h.exact_err + d.exact_err)


def test_rank_one_max_dim_gap_converges_at_a_rate():
    # at rank 1 (integer partitions) the largest part is Gumbel (Erdős and
    # Lehner).  The gap falls at least fivefold per factor 100 in n
    # (0.00349, 0.000248, 0.0000365): a rate, which a shrinking trend alone
    # does not check
    gaps = [compare_exact_to_limit(1, n, "D").gap for n in (10**4, 10**6, 10**8)]
    assert all(later <= earlier / 5 for earlier, later in zip(gaps, gaps[1:])), gaps


def test_compare_gaps_shrink_on_small_grid():
    gaps = [compare_exact_to_limit(2, n, "D").gap for n in (200, 2000)]
    assert gaps[1] < gaps[0]


def test_compare_shape_is_relative():
    report = compare_exact_to_limit(2, 500, "shape")
    # read off the statistic, not stored next to it
    assert report.gap_is_relative and "gap_is_relative" not in report._fields
    assert np.array_equal(report.grid, default_shape_grid(2))
    assert np.all(report.limit > 0.0)
    assert report.gap == pytest.approx(
        float(np.max(np.abs(report.exact - report.limit) / report.limit)), rel=1e-15)


def test_compare_shape_certifies_every_corner():
    # the far corners of the default grid lie beyond the saddle solver's
    # census; the report reads one wider census, on which each corner's
    # exact value is positive and its certified truncation error negligible
    params = solve_saddle(2, 10**4)
    report = compare_exact_to_limit(2, 10**4, "shape")
    assert np.all(report.exact > 0.0)
    # exact_err is the largest relative error of the exact column
    assert 0.0 < report.exact_err <= 1e-6
    # limit_err is the largest relative error of the limit column, proven
    # at rank 2
    assert 0.0 < report.limit_err <= 1e-6
    assert report.note.endswith("certified")
    far = math.ceil(float(report.grid.max()) / params.s)
    assert dim_irrep(2, (far, far)) > params.cutoff


def test_compare_shape_refuses_an_uncertified_census(monkeypatch):
    # the shape report reads one census; where its certified error misses
    # the target at some corner it refuses, naming the cutoff and n, and
    # takes no second census
    original = slrep.verify.exact_expected_shape
    cutoffs = []

    def recorded(params, levels):
        cutoffs.append(params.cutoff)
        return original(params, levels)

    monkeypatch.setattr(slrep.verify, "exact_expected_shape", recorded)
    monkeypatch.setattr(slrep.verify, "SHAPE_REL_ERR", 1e-300)
    with pytest.raises(RuntimeError, match=r"cutoff \d+ cannot certify .* at n = 10000"):
        compare_exact_to_limit(2, 10**4, "shape")
    assert len(cutoffs) == 1


@pytest.mark.parametrize("r,n,repeats", [
    (2, 10**6, [1, 3]),
    (3, 10**5, [1, 2, 3, 4, 5, 7, 8, 9, 11]),
    (2, 10**8, []),
])
def test_compare_shape_note_names_rows_that_share_a_lattice_corner(r, n, repeats):
    # integer weights see only the lattice corner ceil(t/s): a row that
    # shares it with the row before repeats that row's exact value, and
    # every other row moves it
    report = compare_exact_to_limit(r, n, "shape")
    same = [i for i in range(1, report.grid.size) if report.exact[i] == report.exact[i - 1]]
    assert same == repeats
    named = ", ".join(map(str, repeats)) or "none"
    assert f"share the lattice corner ceil(t/s) of the row before: {named};" in report.note
    assert report.note.endswith("an estimate" if r == 3 else "certified")


def test_compare_rejects_unknown_statistic(monkeypatch):
    # refused before the saddle is solved
    def never(*args, **kwargs):
        raise AssertionError("saddle solved for an unknown statistic")

    monkeypatch.setattr("slrep.verify.solve_saddle", never)
    with pytest.raises(ValueError, match="unknown observable 'Z'"):
        compare_exact_to_limit(2, 500, "Z")


@pytest.mark.parametrize("which", ["shape", "mgf"])
def test_compare_refuses_rank_limited_statistics_first(monkeypatch, which):
    # the shape limit needs W_t, known for ranks <= 3, and the mgf limit
    # product diverges at rank 1; both are refused before the saddle is solved
    def never(*args, **kwargs):
        raise AssertionError("saddle solved for a refused statistic")

    monkeypatch.setattr("slrep.verify.solve_saddle", never)
    if which == "shape":
        for r in (4, 6):
            with pytest.raises(NotImplementedError, match="shape limit"):
                compare_exact_to_limit(r, 10**6, which)
    else:
        with pytest.raises(ValueError, match="mgf limit diverges at rank 1"):
            compare_exact_to_limit(1, 10**6, which)

"""Census enumeration, counting function, volumes, counting bounds and
tail bounds."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import slrep.census as census_module
from slrep.census import (
    enumerate_irreps,
    inverse_moment_tail,
    region_volume,
    weighted_tail_bound,
)
from slrep.cli import main
from slrep.weights import degree, dim_irrep, superfactorial

from census_terms import (
    counting_law,
    lower_order_terms,
    mellin_barnes_integral,
    mordell_tornheim_diagonal,
)
from oracles import cumulative_count, region_volume_mc

# closed form for the rank-2 region volume: 2^{-1/3} Gamma(1/3)^2 / Gamma(2/3)
VOLUME_R2 = 2.0 ** (-1.0 / 3.0) * gamma_fn(1.0 / 3.0) ** 2 / gamma_fn(2.0 / 3.0)
# rank-3 volume sqrt(3) Gamma(1/4)^4 / (6 pi) = 15.877561531051038665..., the
# nearest double; test_region_volume_matches_simplex_reduction rederives it
VOLUME_R3 = 15.877561531051038


def selberg_volume(r):
    """C_r = sf(r)^c / (r (r-1)!) S_{r-1}(a, a, g), c = 2/(r+1),
    a = (r-1)/(r+1), g = -1/(r+1), in mpmath at the working precision,
    with Selberg's product taken term by term as published."""
    n = r - 1
    a = mp.mpf(r - 1) / (r + 1)
    g = -mp.mpf(1) / (r + 1)
    product = mp.mpf(1)
    for j in range(n):
        product *= (mp.gamma(a + j * g) ** 2 * mp.gamma(1 + (j + 1) * g)
                    / (mp.gamma(2 * a + (n + j - 1) * g) * mp.gamma(1 + g)))
    return (mp.mpf(superfactorial(r)) ** (mp.mpf(2) / (r + 1))
            / (r * mp.factorial(r - 1)) * product)


def brute_census(r, X):
    """dim -> list of its weights, in scan order, by scanning the full
    coordinate box in lexicographic order.

    The dimension is coordinatewise increasing and at least max(k), so the
    box k_j <= X with early inner breaks is exhaustive."""
    out = {}
    k = [1] * r
    while True:
        d = dim_irrep(r, k)
        if d <= X:
            out.setdefault(d, []).append(tuple(k))
            k[-1] += 1
            continue
        # carry: reset trailing coordinate, advance the previous one
        j = r - 1
        while j >= 0 and k[j] == 1:
            j -= 1
        j -= 1
        if j < 0:
            return out
        k[j] += 1
        for i in range(j + 1, r):
            k[i] = 1


# (7, 10^9) has 1!...7! X >= 2^63, beyond any int64 numerator, and rank 13
# has 1!...13! = 2^66 o, so a plain low word of the numerator keeps no bit
# of the dimension there
@pytest.mark.parametrize("r,X", [(1, 40), (2, 200), (2, 500), (3, 500),
                                 (4, 10**6), (5, 10**6), (6, 10**7),
                                 (7, 10**9), (13, 190_530)])
def test_enumeration_matches_box_scan(r, X):
    # the weights of each class must come in the box scan's order, which is
    # the order the samplers index
    census = enumerate_irreps(r, X)
    expected = brute_census(r, X)
    got = {int(m): int(c) for m, c in zip(census.dims, census.counts)}
    assert got == {d: len(group) for d, group in expected.items()}
    assert census.num_weights == sum(got.values())
    assert r == 1 or any(c > 1 for c in got.values())
    for a in (census.dims, census.counts, census.cumulative, census.weights):
        assert a.dtype == np.int64
    assert census.weights.shape == (census.num_weights, r)
    # class i is rows cumulative[i-1]:cumulative[i] of the weight array
    rows = [tuple(k) for k in census.weights.tolist()]
    start = 0
    for m, end in zip(census.dims, census.cumulative):
        assert rows[start:end] == expected[int(m)]
        for k in rows[start:end]:
            assert dim_irrep(r, k) == int(m)
        start = end


def test_rank_two_small_census_pinned():
    census = enumerate_irreps(2, 10)
    assert list(census.dims) == [1, 3, 6, 8, 10]
    assert list(census.counts) == [1, 2, 2, 1, 2]
    assert list(census.cumulative) == [1, 3, 5, 6, 8]
    assert census.weights.tolist() == [[1, 1], [1, 2], [2, 1], [1, 3], [3, 1],
                                       [2, 2], [1, 4], [4, 1]]


def test_rank_one_census_is_all_integers():
    census = enumerate_irreps(1, 25)
    assert list(census.dims) == list(range(1, 26))
    assert list(census.counts) == [1] * 25


def test_counting_function_queries():
    census = enumerate_irreps(2, 10)
    assert cumulative_count(census, 10) == 8
    assert cumulative_count(census, 9.5) == 6
    assert cumulative_count(census, 1) == 1
    assert cumulative_count(census, 0.99) == 0
    with pytest.raises(ValueError):
        cumulative_count(census, 11)


def test_cumulative_is_cumsum_of_counts():
    census = enumerate_irreps(3, 300)
    assert np.array_equal(census.cumulative, np.cumsum(census.counts))


def test_enumeration_validation_and_budget(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_irreps(2, 0)
    with pytest.raises(ValueError):
        enumerate_irreps(0, 10)
    with pytest.raises(ValueError):
        enumerate_irreps(2, 2**63)
    # every rank is refused from the bound C_r X^(2/(r+1)) before the scan,
    # even where fewer weights exist (16 at rank 3, X = 40, bound 100.4);
    # at rank 1 that is exactly X > MAX_WEIGHTS
    monkeypatch.setattr(census_module, "MAX_WEIGHTS", 100)
    assert enumerate_irreps(1, 100).num_weights == 100
    assert enumerate_irreps(2, 100).num_weights <= 100   # bound 90.6
    assert enumerate_irreps(3, 39).num_weights <= 100    # bound 99.2
    # ranks 4-6 under a cap of 10^4: the largest cutoffs the bound admits
    # are 382,160, 101,798 and 7,423, and they hold 2,544, 789 and 150
    # weights
    cap = 10**4
    monkeypatch.setattr(census_module, "MAX_WEIGHTS", cap)
    largest = {}
    for r in (4, 5, 6):
        X = int((cap / sum(region_volume(r))) ** ((r + 1) / 2.0))
        assert enumerate_irreps(r, X).num_weights <= cap
        largest[r] = X

    def never(*args):
        raise AssertionError("scan ran for an oversized census")

    monkeypatch.setattr(census_module, "_scan", never)
    for r, X in ((4, largest[4] + 1), (5, largest[5] + 1), (6, largest[6] + 1),
                 (6, 10**9)):
        with pytest.raises(ValueError, match="above the census cap"):
            enumerate_irreps(r, X)
    monkeypatch.setattr(census_module, "MAX_WEIGHTS", 100)
    for r, X in ((1, 101), (2, 200), (3, 40), (2, 10**6), (3, 10**8), (5, 1)):
        with pytest.raises(ValueError, match="above the census cap"):
            enumerate_irreps(r, X)


def test_weight_cap_is_exact_at_the_bound(monkeypatch):
    # the cap is judged from the bound before the scan: rank 4, X = 10^5
    # holds 1,271 weights and is built unchanged under a cap of ceil(bound)
    # = 5,850, and refused without a scan under floor(bound) = 5,849
    expected = enumerate_irreps(4, 10**5)
    bound = sum(region_volume(4)) * 1e5 ** 0.4
    monkeypatch.setattr(census_module, "MAX_WEIGHTS", math.ceil(bound))
    capped = enumerate_irreps(4, 10**5)
    for field in ("dims", "counts", "cumulative", "weights"):
        assert np.array_equal(getattr(capped, field), getattr(expected, field))

    def never(*args):
        raise AssertionError("scan ran for an oversized census")

    monkeypatch.setattr(census_module, "_scan", never)
    monkeypatch.setattr(census_module, "MAX_WEIGHTS", math.floor(bound))
    with pytest.raises(ValueError, match="above the census cap"):
        enumerate_irreps(4, 10**5)


@pytest.mark.parametrize("r, X, Y", [(1, 300, 1000), (2, 10**4, 10**5),
                                     (3, 10**5, 10**6), (4, 10**6, 10**7),
                                     (5, 10**7, 10**8), (6, 10**8, 10**9)])
def test_censuses_are_nested(r, X, Y):
    # the census at X is the leading part of the census at Y: its classes
    # are those of dimension <= X, and its weights the first rows
    small, large = enumerate_irreps(r, X), enumerate_irreps(r, Y)
    k = np.searchsorted(large.dims, X, side="right")
    assert 0 < k < large.dims.size
    for field in ("dims", "counts", "cumulative"):
        assert np.array_equal(getattr(small, field), getattr(large, field)[:k])
    assert np.array_equal(small.weights, large.weights[:small.num_weights])


def cli_census_csv(tmp_path, r, X):
    """The CSV table that `slrep census --out` writes."""
    path = tmp_path / "census.csv"
    assert main(["census", "--rank", str(r), "--max-dim", str(X),
                 "--out", str(path)]) == 0
    return path.read_text()


def test_write_csv_round_trip(tmp_path):
    census = enumerate_irreps(2, 10)
    lines = cli_census_csv(tmp_path, 2, 10).splitlines()
    assert lines[0] == "m,rho,cumulative"
    assert lines[1] == "1,1,1"
    assert lines[-1] == "10,2,8"
    assert len(lines) == 1 + len(census.dims)


@pytest.mark.parametrize("r,X", [(1, 10**4), (2, 10**6), (3, 10**7),
                                 (4, 10**8), (5, 10**10), (6, 10**11)])
def test_write_csv_matches_numpy_scalar_rows(tmp_path, r, X):
    # the rows are formatted from Python ints; the bytes are those of the
    # numpy scalars they came from
    census = enumerate_irreps(r, X)
    rows = "".join(f"{m},{c},{s}\n" for m, c, s in
                   zip(census.dims, census.counts, census.cumulative))
    assert cli_census_csv(tmp_path, r, X) == "m,rho,cumulative\n" + rows


def test_region_volume_rank_one_exact():
    assert region_volume(1) == (1.0, 0.0)


def test_region_volume_rank_two_against_closed_form():
    value, err = region_volume(2)
    assert err <= 1e-12
    assert abs(value - VOLUME_R2) <= err


def test_region_volume_rank_three_against_pinned():
    value, err = region_volume(3)
    assert err <= 1e-12
    assert abs(value - VOLUME_R3) <= err


def test_region_volume_matches_simplex_reduction():
    # C_r = (1/r) * integral over the unit simplex of P^(-2/(r+1)), with P
    # the dimension form, evaluated in 30-digit arithmetic.  Rank 2 is a
    # beta integral.  At rank 3 the inner integral along each line is a
    # complete elliptic integral, C_3 = (4/sqrt 3) int_0^1 K(1-z) dz /
    # sqrt(z(1-z)); z = sin^2(phi) and K(cos^2 phi) = pi / (2 agm(1, sin phi))
    # leave a single log singularity at phi = 0.
    with mp.workdps(30):
        third = mp.mpf(1) / 3
        c2 = mp.mpf(2) ** (2 * third) * mp.beta(third, third) / 2
        c3 = 8 / mp.sqrt(3) * mp.quad(
            lambda phi: mp.pi / (2 * mp.agm(1, mp.sin(phi))), [0, mp.pi / 2])
    for r, exact in ((2, c2), (3, c3)):
        value, err = region_volume(r)
        assert err <= 1e-12
        assert abs(value - float(exact)) <= err
    assert float(c3) == VOLUME_R3


def test_region_volume_matches_selberg_product():
    # the Selberg product in 30 digits, before the Gamma factors that cancel
    # are taken out; C_4..C_6 are pinned to its nearest doubles
    pinned = {4: 58.49272122021737, 5: 214.16706892659877, 6: 783.6446378531721}
    with mp.workdps(30):
        exact = {r: selberg_volume(r) for r in range(1, 7)}
    assert exact[1] == 1
    assert float(exact[2]) == pytest.approx(VOLUME_R2, rel=1e-15)
    assert float(exact[3]) == VOLUME_R3
    for r, volume in exact.items():
        value, err = region_volume(r)
        assert abs(value - volume) <= err, r
        assert err <= 1e-13 * value, r
        if r in pinned:
            assert float(volume) == pinned[r]


def test_region_volume_monte_carlo_brackets_quadrature():
    mc, mc_err = region_volume_mc(2, samples=2_000_000)
    assert mc_err < 0.5
    assert abs(mc - VOLUME_R2) <= mc_err


def test_region_volume_rejects_unknown_inputs():
    # every rank >= 1 has a volume; rank 0 is no algebra
    with pytest.raises(ValueError):
        region_volume(0)
    with pytest.raises(NotImplementedError):
        region_volume_mc(3)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_envelopes_extrapolate_to_larger_census(r):
    # R(x) <= C_r x^c holds for every x, so it must hold at every jump of
    # the counting function.  Dilation gives R(lam^nu y) >= lam^r R(y): R(y)
    # is constant from one jump to the next and R(lam^nu y) is smallest at
    # the left end, so checking at every jump y with lam^nu y inside the
    # census checks every such y.  Measured: max R(x)/x^c is 3.93 <= C_2 =
    # 4.21 and 11.48 <= C_3 = 15.88
    top = {1: 10**4, 2: 10**7, 3: 10**8, 4: 10**7, 5: 10**9, 6: 10**11}[r]
    census = enumerate_irreps(r, top)
    c = 2.0 / (r + 1)
    vol, vol_err = region_volume(r)
    x = census.dims.astype(float)
    assert np.all(census.cumulative <= (vol + vol_err) * x**c)
    for lam in (2, 3):
        y = census.dims[census.dims <= top // lam ** degree(r)]
        assert y.size, lam
        dilated = np.searchsorted(census.dims, lam ** degree(r) * y, side="right")
        assert np.all(census.cumulative[dilated - 1]
                      >= lam**r * census.cumulative[:y.size]), lam
    if r == 1:
        # R(x) = floor(x) exactly, and C_1 = 1
        assert np.array_equal(census.cumulative, np.arange(1, top + 1))
        assert (vol, vol_err) == (1.0, 0.0)


@pytest.mark.parametrize("r", [4, 5, 6])
def test_volume_bounds_census_at_high_rank(r):
    # R(x) <= C_r x^c at every jump of the counting function up to 10^9;
    # measured: max R(x)/x^c is 27.25 at rank 4 against C_4 = 58.49, and
    # lower-order terms keep the census far below the bound at ranks 5, 6
    census = enumerate_irreps(r, 10**9)
    c = 2.0 / (r + 1)
    vol, vol_err = region_volume(r)
    x = census.dims.astype(float)
    assert np.all(census.cumulative <= (vol + vol_err) * x**c)
    assert census.num_weights <= 0.5 * vol * 1e9**c


def _counting_law_residuals(r, volume, top):
    """|R(x) - counting_law(x)| relative to the leading term, on a
    quarter-decade grid x = 10^4 .. 10^top."""
    census = enumerate_irreps(r, 10**top)
    c = 2.0 / (r + 1)
    xs = np.geomspace(1e4, 10.0**top, 4 * (top - 4) + 1)
    return [abs(cumulative_count(census, x) - counting_law(r, volume, x))
            / (volume * x**c) for x in xs]


def test_rank_two_counting_law_has_a_half_power_term():
    # R(x) = C_2 x^(2/3) + 2 sqrt(2) zeta(1/2) x^(1/2) + O(x^(1/3)): the
    # second term is -0.098 of the first at x = 1e6, the residual 2.6e-4
    residuals = _counting_law_residuals(2, VOLUME_R2, 7)
    assert max(residuals) <= 5e-3
    assert residuals[-1] <= 1e-4


def test_rank_three_counting_law_has_facet_and_edge_terms():
    (c2, alpha2), (c3, alpha3) = lower_order_terms(3)
    assert (alpha2, alpha3) == (0.4, 1.0 / 3.0)
    assert c2 == pytest.approx(-32.5715346, abs=1e-6)
    assert c3 == pytest.approx(16.0887052, abs=1e-6)
    # without the x^(1/3) edge term the residual is 0.22 at x = 1e4
    residuals = _counting_law_residuals(3, VOLUME_R3, 8)
    assert max(residuals) <= 1e-2
    assert residuals[-1] <= 2e-3


def test_mellin_barnes_route_recovers_two_zeta_three():
    # at s = 1 the contour needs no residues and the series is 2 zeta(3)
    two_zeta3 = 2.0 * 1.2020569031595942
    assert mellin_barnes_integral(1.0) == pytest.approx(two_zeta3, rel=1e-12)
    assert mordell_tornheim_diagonal(1.0 / 3.0) == pytest.approx(3.5136946, abs=1e-7)
    with pytest.raises(ValueError):
        mordell_tornheim_diagonal(0.7)


def test_weighted_tail_bound_majorizes_true_tail():
    # split a big census at a small cutoff: the bound computed from the
    # small prefix must cover the exactly known middle part of the tail
    X, beta, p = 200, 0.05, 1.0
    for r in (2, 3):
        big = enumerate_irreps(r, 20 * X)
        bound = weighted_tail_bound(r, X, beta, p)
        m = big.dims.astype(float)
        mask = m > X
        partial = float(np.sum(big.counts[mask] * m[mask] ** p
                               * np.exp(-beta * m[mask])))
        assert partial <= bound, r


@functools.lru_cache(maxsize=None)
def incomplete_gamma_grid():
    """(p, r, a, x, Gamma(a, x) in 40 digits) for a = p + 2/(r+1), p = 0, 1,
    2, r = 1..6 (the orders weighted_tail_bound asks for), x from p to 800,
    with x = a and x = a + 1, and values that underflow."""
    grid = []
    with mp.workdps(40):
        for p in (0, 1, 2):
            for r in range(1, 7):
                a = p + 2.0 / (r + 1)
                xs = {float(p), a, a + 1.0, math.nextafter(a + 1.0, math.inf),
                      *np.geomspace(max(p, 1e-3), 800.0, 40).tolist()}
                grid += [(p, r, a, x, mp.gammainc(a, x)) for x in sorted(xs)]
    return grid


# cutoffs of the formula tests: powers of two, so that beta X = x exactly;
# at 2^40 the log X term of the rounding is large
FORMULA_CUTOFFS = (2**12, 2**40)


@functools.lru_cache(maxsize=None)
def tail_bounds_against_formula():
    """[(p, r, x, bound, formula)] over incomplete_gamma_grid at every cutoff
    of FORMULA_CUTOFFS, where formula = C_r (f(X) X^c + c beta^-(p+c)
    Gamma(p+c, beta X)) in 40 digits, with C_r from Selberg's product; bound
    is None where weighted_tail_bound refuses (x <= (p+c-1)^+)."""
    with mp.workdps(40):
        volumes = {r: selberg_volume(r) for r in range(1, 7)}
    rows = []
    for X in FORMULA_CUTOFFS:
        for p, r, a, x, exact in incomplete_gamma_grid():
            beta = x / X
            if beta == 0.0:
                continue
            if x <= max(a - 1.0, 0.0):
                with pytest.raises(RuntimeError):
                    weighted_tail_bound(r, X, beta, p)
                bound = None
            else:
                bound = weighted_tail_bound(r, X, beta, p)
            c = 2.0 / (r + 1)
            with mp.workdps(40):
                formula = volumes[r] * (mp.mpf(X) ** a * mp.exp(-mp.mpf(x))
                                        + c * mp.mpf(beta) ** -a * exact)
            rows.append((p, r, x, bound, formula))
    return rows


def test_weighted_tail_bound_majorizes_its_formula():
    rows = tail_bounds_against_formula()
    refused = {(p, r, x) for p, r, x, bound, _ in rows if bound is None}
    # the closed form needs x > (p+c-1)^+: only x = p at rank 1 is refused
    assert refused == {(1, 1, 1.0), (2, 1, 2.0)}
    for p, r, x, bound, formula in rows:
        if bound is not None:
            with mp.workdps(40):
                assert bound >= formula, (p, r, x)
    assert any(bound is not None and formula < 2.0**-1022
               for *_, bound, formula in rows)


def test_weighted_tail_bound_is_tight():
    # the closed form's Abel term c X^a e^-x / (x - (a-1)^+) exceeds the
    # Gamma term by a relative O(1/x) of that term, and the Abel term is
    # itself O(1/x) of the whole: a sloppier majorant fails here
    checked = 0
    for p, r, x, bound, formula in tail_bounds_against_formula():
        if x >= 4.0 * (p + 1) and formula > 1e-290:
            with mp.workdps(40):
                assert bound <= (1 + mp.mpf(x) ** -2) * formula, (p, r, x)
            checked += 1
    assert checked >= 400


def test_weighted_tail_bound_validation():
    for beta, p in ((-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError):
            weighted_tail_bound(2, 30, beta, p)
    for X in (0, -5):
        with pytest.raises(ValueError, match="cutoff X >= 1"):
            weighted_tail_bound(2, X, 1.0, 1.0)
    with pytest.raises(RuntimeError):
        # cutoff below p/beta: f is not yet decreasing, the bound is invalid
        weighted_tail_bound(2, 30, 1e-4, 2.0)
    with pytest.raises(RuntimeError):
        # rank 1 at beta X = p: the Abel term's majorant needs beta X > p
        weighted_tail_bound(1, 64, 1.0 / 64.0, 1.0)


def test_inverse_moment_tail_brackets_partial_sums():
    # the bracket from a cutoff of 500 holds the exact sum over the classes
    # of a census to 10^6 plus that census's own bracket, at every rank
    for r in (2, 3, 4, 5, 6):
        small = enumerate_irreps(r, 500)
        big = enumerate_irreps(r, 10**6)
        m = big.dims.astype(float)
        mask = m > 500
        for j in (1, 2, 3):
            est, err = inverse_moment_tail(small, j)
            partial = float(np.sum(big.counts[mask] / m[mask] ** j))
            rest, rest_err = inverse_moment_tail(big, j)
            assert partial + rest - rest_err <= est + err, (r, j)
            assert partial + rest + rest_err >= est - err, (r, j)
            assert rest_err < err, (r, j)
        if r <= 3:
            # the dilation bound already lifts the lower end off zero
            est, err = inverse_moment_tail(small, 1)
            assert est - err > 0.0, r
    with pytest.raises(ValueError):
        inverse_moment_tail(enumerate_irreps(1, 50), 1)
    with pytest.raises(ValueError):
        inverse_moment_tail(enumerate_irreps(2, 100), 0.5)  # order below 2/(r+1)


def test_inverse_moment_tail_matches_its_direct_sum():
    # the ends of the bracket against the bound summed term by term, G(a)
    # straight from its definition sum_{m <= X} rho(m) (max(a, m)^-j - X^-j)
    X = 500
    for r in (2, 3, 4, 6):
        census = enumerate_irreps(r, X)
        nu = degree(r)
        c = 2.0 / (r + 1)
        vol, vol_err = region_volume(r)
        m = census.dims.astype(float)
        lam = np.arange(2.0, census_module._DILATIONS + 1.0)
        a = X * (1.0 - 1.0 / lam) ** nu
        for j in (1, 2, 3):
            G = np.sum(census.counts * (np.maximum(a[:, None], m) ** -j - X**-j),
                       axis=1)
            tail_X = census.num_weights * X**-j
            lower = max(float(lam ** (r - nu * j) @ G) - tail_X, 0.0)
            upper = (vol + vol_err) * j / (j - c) * X ** (c - j) - tail_X
            est, err = inverse_moment_tail(census, j)
            assert est - err <= lower and est + err >= upper, (r, j)
            slack = 1e-8 * upper  # room for the rounding bound in err
            assert est - err >= lower - slack and est + err <= upper + slack, (r, j)

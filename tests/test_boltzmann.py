"""Boltzmann calibration, samplers, and exact product-law distributions."""

import ast
import importlib
import inspect
import math
import pathlib
import pkgutil
import random
import re
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

import slrep.boltzmann
from slrep.boltzmann import (
    REJECTION_ATTEMPT_FACTOR,
    REJECTION_MAX_N,
    SADDLE_TOL,
    BoltzmannParams,
    _term_arrays,
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
from slrep.census import enumerate_irreps
from slrep.exact_count import count_representations, uniform_sample
from slrep.limits import asymptotic_saddle, compute_constants
from slrep.stats import default_shape_grid, stat_height, stat_max_dim
from slrep.weights import degree, dim_irrep, twice_height

from oracles import expected_dim, stat_multiplicity, variance_dim


def mp_moment(census, q, p):
    """High-precision census moment sum rho(m) m^p q^m / (1 - q^m)^p."""
    with mp.workdps(40):
        q = mp.mpf(q)
        total = mp.mpf(0)
        for m, rho in zip(census.dims, census.counts):
            m = int(m)
            total += int(rho) * mp.mpf(m) ** p * q**m / (1 - q**m) ** p
        return float(total)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_moments_match_high_precision_sums(r):
    census = enumerate_irreps(r, 200)
    q = 0.5
    for fn, p in ((expected_dim, 1), (variance_dim, 2)):
        value, err = fn(q, census)
        assert value == pytest.approx(mp_moment(census, q, p), rel=1e-12)
        assert 0.0 <= err < 1e-30  # at q = 1/2 the tail beyond 200 is ~ 2^-200
    # the saddle's own moment sum keeps its 40-digit check
    params = solve_saddle(r, 1000)
    assert params.sigma2 == pytest.approx(mp_moment(params.census, params.q, 2), rel=1e-12)


def test_rank_one_expectation_against_full_series():
    # the rank-1 census is every positive integer once, so the full series
    # is directly summable to high precision
    census = enumerate_irreps(1, 400)
    q = 0.5
    value, err = expected_dim(q, census)
    with mp.workdps(40):
        full = float(mp.nsum(lambda m: m * mp.mpf(q) ** m / (1 - mp.mpf(q) ** m),
                             [1, mp.inf]))
    assert abs(value - full) <= max(err, 1e-13)


def test_moment_q_validation():
    census = enumerate_irreps(2, 50)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            expected_dim(bad, census)


@pytest.mark.parametrize("r,n", [(1, 100), (2, 100), (2, 10_000), (3, 1000)])
def test_solve_saddle_certifies_target(r, n):
    params = solve_saddle(r, n)
    assert params.rank == r and params.n == n
    assert 0.0 < params.q < 1.0
    assert params.beta == pytest.approx(-math.log(params.q), rel=1e-12)
    assert params.beta == pytest.approx(params.s ** degree(r), rel=1e-12)
    # q and s are read off beta, so a moved beta moves them too
    moved = params._replace(beta=2.0 * params.beta)
    assert moved.q == math.exp(-2.0 * params.beta)
    assert moved.s == (2.0 * params.beta) ** (1.0 / degree(r))
    assert params.sigma2 > 0.0
    # recheck the calibration on a census twice as wide
    wide = enumerate_irreps(r, 2 * params.cutoff)
    value, err = expected_dim(params.q, wide)
    assert abs(value - n) <= 1e-8 * n + err


def brent_saddle(r, n, cutoff):
    """(s, gap evaluations): the census-truncated saddle equation in s solved
    by scipy's brentq, on censuses from the default cutoff doubling up to
    `cutoff`, as the solver enlarges them.  The solver needs no bracket; the
    oracle keeps its own search, outward from the leading-order guess."""
    from scipy.optimize import brentq

    nu, calls = degree(r), 0
    X = default_cutoff(r, n)
    while X <= cutoff:
        census = enumerate_irreps(r, X)
        m, rho = census.dims.astype(float), census.counts.astype(float)

        def gap(s):
            nonlocal calls
            calls += 1
            return math.fsum(rho * m * np.exp(-(s**nu) * m)
                             / -np.expm1(-(s**nu) * m)) - n

        s_guess = asymptotic_saddle(r, n)
        lo, hi = s_guess / 4.0, s_guess * 4.0
        while gap(lo) <= 0.0:
            lo /= 2.0
        while gap(hi) >= 0.0:
            hi *= 2.0
        s = brentq(gap, lo, hi, xtol=1e-300, rtol=1e-14)
        X *= 2
    return s, calls


@pytest.mark.parametrize("r,n", [(1, 10**6), (2, 10**4), (2, 10**6),
                                 (2, 10**9), (3, 10**5), (3, 10**8),
                                 (4, 10**6), (6, 10**3), (6, 10**6)])
def test_solve_saddle_agrees_with_brent(monkeypatch, r, n):
    calls = 0
    gap = slrep.boltzmann._saddle_gap

    def counted(*args):
        nonlocal calls
        calls += 1
        return gap(*args)

    monkeypatch.setattr(slrep.boltzmann, "_saddle_gap", counted)
    params = solve_saddle(r, n)
    s, brent_calls = brent_saddle(r, n, params.cutoff)
    assert params.s == pytest.approx(s, rel=1e-13, abs=0.0)
    # Newton in beta needs no more gap evaluations than Brent did, also
    # where the seed overshoots and the census doubles (ranks 4 and 6)
    assert calls <= brent_calls
    if (r, n) == (3, 10**5):
        # this solve enlarges its census once; the retry starts from the
        # first root (22 evaluations when it restarted from scratch)
        assert params.cutoff > default_cutoff(r, n)
        assert calls <= 14


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_solve_saddle_steps_rise_to_the_root(monkeypatch, r):
    # E is convex and decreasing in beta, so a tangent meets n at or left of
    # the root: iterates right of it (the seed, and halvings where a step
    # would reach beta <= 0) only fall, and from the first one left of it on,
    # every step rises, across census retries too, as a larger census only
    # raises E
    gap = slrep.boltzmann._saddle_gap
    for n in (1, 10**3, 10**6, 10**9):
        seen = []

        def recorded(arrays, beta, *rest):
            g = gap(arrays, beta, *rest)
            seen.append((beta, g[0]))
            return g

        monkeypatch.setattr(slrep.boltzmann, "_saddle_gap", recorded)
        params = solve_saddle(r, n)
        betas = [beta for beta, _ in seen]
        left = next((i for i, (_, g) in enumerate(seen) if g >= 0.0), len(seen))
        assert all(b < a for a, b in zip(betas[:left], betas[1:left]))
        assert all(b >= a - 4.0 * math.ulp(a)
                   for a, b in zip(betas[left:], betas[left + 1:])), (n, betas)
        value, _ = expected_dim(params.q, params.census)
        assert abs(value - n) <= SADDLE_TOL * n / 2.0


def test_solve_saddle_is_monotone_in_target():
    qs = [solve_saddle(2, n).q for n in (100, 1000, 10_000)]
    assert qs == sorted(qs)


def test_solve_saddle_keeps_its_census():
    # r = 3, n = 1e5 enlarges its census once; the params keep the last one,
    # on which the expectation is certified
    for r, n in ((2, 10_000), (3, 10**5)):
        params = solve_saddle(r, n)
        census = params.census
        assert census.rank == r and census.max_dim == params.cutoff
        assert params.cutoff == default_cutoff(r, n) * (1 if r == 2 else 2)
        value, err = expected_dim(params.q, census)
        assert err == pytest.approx(params.tail_bound, rel=1e-9)
        assert abs(value - n) <= SADDLE_TOL * n
    with pytest.raises(ValueError):
        solve_saddle(2, 0)


@pytest.mark.parametrize("r", [4, 5, 6])
def test_solve_saddle_certifies_high_ranks(r):
    # the asymptotic seed overshoots the root's decay rate at high rank (at
    # rank 6, n = 10^6 it guesses beta = 4.0e-3 for a root at 1.56e-4), so
    # the cutoff doubles until the tail bound certifies: five censuses there.
    # At n = 1000 the seed cutoff lies below 1/beta, where no tail bound
    # exists, and is doubled too.
    for n in (1, 10**3, 10**6, 10**9):
        params = solve_saddle(r, n)
        value, err = expected_dim(params.q, params.census)
        assert params.census.max_dim * params.beta >= 1.0
        assert err == pytest.approx(params.tail_bound, rel=1e-9)
        assert err <= SADDLE_TOL * n / 2.0
        assert abs(value - n) <= SADDLE_TOL * n / 2.0
    if r == 6:
        assert solve_saddle(6, 10**6).cutoff == 16 * default_cutoff(6, 10**6)
        params = solve_saddle(6, 10**3)
        assert default_cutoff(6, 10**3) * params.beta < 1.0


def test_solve_saddle_halves_past_a_flat_tangent():
    # at rank 8, n = 1 the seed beta = 2008 underflows every q^m, so the
    # gap's slope is 0; beta halves until the terms return
    params = solve_saddle(8, 1)
    value, err = expected_dim(params.q, params.census)
    assert err <= SADDLE_TOL / 2.0
    assert abs(value - 1) <= SADDLE_TOL / 2.0


def test_default_cutoff_grows_with_target():
    cuts = [default_cutoff(2, n) for n in (10, 1000, 100_000)]
    assert cuts == sorted(cuts)
    assert cuts[0] >= 8


SCALARS = ("n", "beta", "sigma2", "tail_bound", "rank", "q", "s")


def scalar_fields(params):
    """The params' scalars by name: every field but the census and its
    arrays, the rank, which is read off the census, and q and s, which are
    read off beta."""
    assert BoltzmannParams._fields == (*SCALARS[:4], "census", "term_arrays")
    return tuple(getattr(params, name) for name in SCALARS)


@pytest.mark.parametrize("r,n", [(2, 300), (3, 1000)])
def test_with_cutoff_refills_the_term_arrays(r, n):
    params = solve_saddle(r, n)
    wide = params.with_cutoff(2 * params.cutoff)
    assert scalar_fields(wide) == scalar_fields(params)
    census = enumerate_irreps(r, 2 * params.cutoff)
    assert wide.cutoff == census.max_dim == 2 * params.cutoff
    for got, want in zip(wide.census, census):
        assert np.array_equal(got, want)
    assert len(wide.term_arrays) == 4
    for got, want in zip(wide.term_arrays, _term_arrays(census, params.beta)):
        assert np.array_equal(got, want)


def test_sampling_params_certify_truncation():
    # the saddle's params are returned when their census certifies the bound
    params = solve_saddle(2, 10**8)
    assert truncation_tv_bound(params) <= 1e-12
    assert sampling_params(params) is params
    # at n = 300 it does not, and the cutoff doubles once (537 -> 1074)
    params = solve_saddle(2, 300)
    sampling = sampling_params(params)
    assert truncation_tv_bound(params) > 1e-12
    assert sampling.cutoff == 2 * params.cutoff
    assert truncation_tv_bound(sampling) <= 1e-12
    # only the census changes: q, s, beta, sigma2 and tail_bound stay
    assert scalar_fields(sampling) == scalar_fields(params)
    # widening the census can only shrink the bound
    wide = params.with_cutoff(2 * sampling.cutoff)
    assert truncation_tv_bound(wide) <= truncation_tv_bound(sampling)


def test_boltzmann_sampler_requires_coverage():
    # both samplers refuse a census that leaves more than SAMPLING_TV
    params = solve_saddle(2, 300)
    rng = np.random.default_rng(0)
    for draw in (boltzmann_sample, rejection_uniform_sample):
        for narrow in (params, params.with_cutoff(20)):
            with pytest.raises(RuntimeError, match="truncation TV"):
                draw(narrow, rng)


def test_params_carry_the_only_census():
    # every public function of the Boltzmann layer that takes the params
    # reads the census from them, never from a second argument
    takers = [fn for name, fn in vars(slrep.boltzmann).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == "slrep.boltzmann"
              and "params" in inspect.signature(fn).parameters]
    assert len(takers) >= 8
    for fn in takers:
        assert "census" not in inspect.signature(fn).parameters, fn.__name__
    # the params' rank is their census's, whichever census they carry
    params = solve_saddle(2, 300)
    for moved in (params.with_cutoff(50), sampling_params(params)):
        assert moved.rank == moved.census.rank == 2
    # package-wide, no public function takes a carrier of the rank (params,
    # a census or a count table) together with a rank of its own, which the
    # two would have to agree on
    functions = list(_public_functions())
    assert len(functions) >= 53
    offenders = [name for name, fn in functions
                 if {"params", "census", "table"} & set(inspect.signature(fn).parameters)
                 and {"r", "rank"} & set(inspect.signature(fn).parameters)]
    assert offenders == []
    # nor does a record: no named tuple's fields and no plain class's
    # __init__ hold a census together with a rank
    records = list(_record_fields())
    assert {"boltzmann.BoltzmannParams", "exact_count.CountTable"} <= dict(records).keys()
    offenders = [name for name, fields in records
                 if "census" in fields and {"r", "rank"} & fields]
    assert offenders == []


def _reads(tree):
    """Every name an AST reads: loaded names and attributes, and the names
    its imports bring in."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_reached():
    # a public function or class of slrep is read by another part of src/
    # (its own top-level definition and the package's re-exports do not
    # count) or shown in the README's library tour; a route that only tests
    # call belongs in tests/oracles.py
    reached = set()
    for path in pathlib.Path(slrep.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _reads(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            reached |= names
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    for block in re.findall(r"```python\n(.*?)```", tour, re.S):
        reached |= _reads(ast.parse(block))
    unreached = []
    for info in pkgutil.iter_modules(slrep.__path__):
        module = importlib.import_module(f"slrep.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and name not in reached
                    and getattr(obj, "__module__", None) == module.__name__
                    and (inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)))):
                unreached.append(f"{info.name}.{name}")
    assert unreached == []


def _public_functions():
    """(dotted name, function) for every public function and method that a
    module of the slrep package defines."""
    for info in pkgutil.iter_modules(slrep.__path__):
        module = importlib.import_module(f"slrep.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):  # lru_cache wrappers too
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)  # unwrap classmethods
                    if not method.startswith("_") and inspect.isfunction(fn):
                        yield f"{info.name}.{name}.{method}", fn


def _record_fields():
    """(dotted name, field names) for every class that a module of the slrep
    package defines: a named tuple's fields, or the parameters of a plain
    class's own __init__."""
    for info in pkgutil.iter_modules(slrep.__path__):
        module = importlib.import_module(f"slrep.{info.name}")
        for name, obj in vars(module).items():
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            if hasattr(obj, "_fields"):
                yield f"{info.name}.{name}", set(obj._fields)
            elif "__init__" in vars(obj):
                yield f"{info.name}.{name}", set(inspect.signature(obj).parameters)


def _boltzmann_draws(n, num, seed):
    params = sampling_params(solve_saddle(2, n))
    rng = np.random.default_rng(seed)
    return params, [boltzmann_sample(params, rng) for _ in range(num)]


def test_boltzmann_marginals_match_product_law():
    num = 4000
    params, reps = _boltzmann_draws(300, num, seed=21)
    q = params.q

    # multiplicity of the dimension-1 weight is geometric with mean q/(1-q)
    mean_mult = q / (1.0 - q)
    var_mult = q / (1.0 - q) ** 2
    observed = sum(stat_multiplicity(rep, (1, 1)) for rep in reps) / num
    assert abs(observed - mean_mult) <= 5.0 * math.sqrt(var_mult / num)

    # total dimension has mean n (calibration) and variance sigma2
    totals = [rep.total_dim() for rep in reps]
    assert abs(sum(totals) / num - 300.0) <= 5.0 * math.sqrt(params.sigma2 / num)


def test_boltzmann_weights_of_one_class_are_independent_geometrics():
    # census rows 1 and 2 are the two weights of dimension 3; under the
    # product law their multiplicities are independent Geometric(1 - q^3),
    # P(X = i, Y = j) = (1 - x)^2 x^(i + j) with x = q^3
    num, top = 4000, 8
    params, reps = _boltzmann_draws(300, num, seed=27)
    census = params.census
    assert census.weights[1:3].tolist() == [[1, 2], [2, 1]]
    assert census.dims[1] == 3 and census.counts[1] == 2
    cells = np.zeros((top + 1, top + 1))
    for rep in reps:
        i, j = (min(int(rep.mult[rep.rows == row].sum()), top) for row in (1, 2))
        cells[i, j] += 1
    x = params.q ** 3
    marginal = (1.0 - x) * x ** np.arange(top + 1.0)
    marginal[top] = x**top  # the last bin pools every multiplicity >= top
    expected = num * np.outer(marginal, marginal)
    assert expected.min() > 5.0
    _, pvalue = chisquare(cells.ravel(), expected.ravel())
    assert pvalue > 1e-3


def test_boltzmann_within_class_law():
    # the class of dimension 15 holds four weights; under the product law each
    # is occupied with probability q^15, independently of the others
    num = 4000
    params, reps = _boltzmann_draws(300, num, seed=26)
    census = params.census
    cls = int(np.flatnonzero(census.dims == 15)[0])
    weights = [tuple(w) for w in census.weights[
        census.cumulative[cls] - census.counts[cls]:census.cumulative[cls]].tolist()]
    assert sorted(weights) == [(1, 5), (2, 3), (3, 2), (5, 1)]
    occupied = np.array([[stat_multiplicity(rep, w) > 0 for w in weights]
                         for rep in reps])

    def close(freq, p):
        return abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / num)

    p1 = params.q**15
    for j in range(4):
        assert close(occupied[:, j].mean(), p1)
    for i in range(4):
        for j in range(i + 1, 4):
            assert close((occupied[:, i] & occupied[:, j]).mean(), p1 * p1)


def test_exact_max_dim_distribution_against_monte_carlo():
    num = 4000
    params, reps = _boltzmann_draws(300, num, seed=22)
    for ell in (10, 40, 160):
        (value,), err = exact_prob_max_dim_le(params, np.array([ell]))
        empirical = sum(1 for rep in reps if not rep.num_irreps()
                        or stat_max_dim(rep) <= ell) / num
        sigma = math.sqrt(max(value * (1.0 - value), 1e-12) / num)
        assert abs(empirical - value) <= 5.0 * sigma + err


def test_exact_height_distribution_against_monte_carlo():
    num = 4000
    params, reps = _boltzmann_draws(300, num, seed=23)
    for ell in (1.0, 4.0, 12.0):
        (value,), err = exact_prob_height_le(params, np.array([ell]))
        empirical = sum(1 for rep in reps if not rep.num_irreps()
                        or stat_height(rep) <= ell) / num
        sigma = math.sqrt(max(value * (1.0 - value), 1e-12) / num)
        assert abs(empirical - value) <= 5.0 * sigma + err


def test_exact_prob_anchors():
    params = sampling_params(solve_saddle(2, 300))
    assert exact_prob_max_dim_le(params, np.array([params.cutoff]))[0][0] == 1.0
    (value,), _ = exact_prob_max_dim_le(params, np.array([0]))
    assert 0.0 < value < 1.0  # probability of the empty representation


@pytest.mark.parametrize("prob", [exact_prob_max_dim_le, exact_prob_height_le])
def test_exact_prob_matches_direct_product(prob):
    # D class by class at rank 2, where 1, 3 and 10 are class dimensions;
    # H weight by weight at ranks 1-4, keyed on L(k - 1) of each weight
    for r in (2,) if prob is exact_prob_max_dim_le else (1, 2, 3, 4):
        params = sampling_params(solve_saddle(r, 300))
        census = params.census
        if prob is exact_prob_max_dim_le:
            factors = [(float(m), int(rho), int(m))
                       for m, rho in zip(census.dims, census.counts)]
            ells = (0.0, 1.0, 3.0, 10.0, 40.0, 160.0)
        else:
            dims = np.repeat(census.dims, census.counts)
            factors = [(int(twice_height(r, np.array(k) - 1)) / 2.0, 1, int(a))
                       for k, a in zip(census.weights.tolist(), dims)]
            ells = (0.0, 1.5, 4.0, 12.0, 30.0)
        for ell in ells:
            (value,), _ = prob(params, np.array([ell]))
            direct = math.fsum(rho * math.log1p(-params.q ** a)
                               for key, rho, a in factors if key > ell)
            assert value == pytest.approx(math.exp(direct), rel=1e-12), (r, ell)


def _shape_curve(params, levels):
    """exact_expected_shape with its errs folded to one, as the curves'."""
    values, errs = exact_expected_shape(params, levels)
    return values, float(np.max(errs))


@pytest.mark.parametrize("prob", [exact_prob_max_dim_le, exact_prob_height_le,
                                  _shape_curve])
def test_exact_prob_grid_equals_pointwise_calls(prob):
    params = sampling_params(solve_saddle(2, 300))
    # -1 lies below every key and 1e6 above every key, height and min_j k_j
    ells = np.array([-1.0, 0.0, 1.5, 4.0, 12.0, 40.0, 160.0, 1e6])
    values, err = prob(params, ells)
    pointwise = [prob(params, ells[i:i + 1]) for i in range(ells.size)]
    assert values.tolist() == [value[0] for value, _ in pointwise]
    assert err == max(e for _, e in pointwise)
    assert values[-1] == (0.0 if prob is _shape_curve else 1.0)
    for bad in (ells.reshape(2, 4), 4.0):
        with pytest.raises(ValueError):
            prob(params, bad)


def test_exact_expected_shape_matches_direct_sum():
    for r in (1, 2, 3, 4):
        params = sampling_params(solve_saddle(r, 300))
        census = params.census
        dims, K = np.repeat(census.dims, census.counts), census.weights
        for t in (1.0, 2.0, 2.5, 5.5):
            # the level t is the corner (t, ..., t)
            (value,), (err,) = exact_expected_shape(params, np.array([t]))
            direct = math.fsum(
                params.q ** int(a) / (1.0 - params.q ** int(a))
                for a, k in zip(dims, K) if all(k >= t))
            assert value == pytest.approx(direct, rel=1e-10), (r, t)
            assert err >= 0.0
    for bad in ([[1.0, 1.0]], 1.0):
        with pytest.raises(ValueError):
            exact_expected_shape(params, np.array(bad))


def test_exact_shape_against_monte_carlo():
    num = 4000
    params, reps = _boltzmann_draws(300, num, seed=24)
    (value,), (err,) = exact_expected_shape(params, np.array([2.0]))
    counts = [sum(x for k, x in rep.components() if k[0] >= 2 and k[1] >= 2)
              for rep in reps]
    mean = sum(counts) / num
    spread = math.sqrt(sum((c - mean) ** 2 for c in counts) / (num - 1) / num)
    assert abs(mean - value) <= 5.0 * spread + err


def test_exact_count_mgf_basics():
    params = sampling_params(solve_saddle(2, 300))
    (value,), (err,) = exact_count_mgf(params, np.array([0.0]))
    assert value == 1.0 and err >= 0.0
    for bad in (-1.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            exact_count_mgf(params, np.array([bad]))
        # each point is checked, not only the first
        with pytest.raises(ValueError):
            exact_count_mgf(params, np.array([0.25, bad]))


def test_exact_count_mgf_against_monte_carlo():
    num = 4000
    params, reps = _boltzmann_draws(300, num, seed=25)
    u = -0.4  # negative side keeps the Monte Carlo average light-tailed
    (value,), (err,) = exact_count_mgf(params, np.array([u]))
    vals = [math.exp(u * params.beta * rep.num_irreps()) for rep in reps]
    mean = sum(vals) / num
    spread = math.sqrt(sum((v - mean) ** 2 for v in vals) / (num - 1) / num)
    assert abs(mean - value) <= 5.0 * spread + err


def _mp_suffix_logs(keys, logs):
    """(sorted keys, S) with S[i] the 40-digit sum of logs over the keys
    from the i-th smallest up, so the sum over keys > x is S[i] at the
    first i with sorted_keys[i] > x."""
    order = np.argsort(keys, kind="stable")
    suffix = [mp.mpf(0)]
    for i in order[::-1]:
        suffix.append(suffix[-1] + logs[i])
    return np.asarray(keys)[order], suffix[::-1]


def test_exact_curves_err_covers_rounding():
    # each curve against a 40-digit evaluation of the same census product or
    # sum at the same float beta: the values are computed in floats, where
    # the mgf's two logs per class nearly cancel, so err must hold the
    # rounding as well as the census truncation
    with mp.workdps(40):
        for r, u in ((2, 0.5), (4, -0.5)):
            params = solve_saddle(r, 10**6)
            census, beta = params.census, mp.mpf(params.beta)
            (value,), (err,) = exact_count_mgf(params, np.array([u]))
            shift = mp.exp(mp.mpf(u) * beta)
            log_ref = sum(int(rho) * (mp.log1p(-mp.exp(-beta * int(m)))
                                      - mp.log1p(-mp.exp(-beta * int(m)) * shift))
                          for m, rho in zip(census.dims, census.counts))
            assert abs(mp.mpf(value) - mp.exp(log_ref)) <= err, (r, u)

        params = solve_saddle(4, 10**6)
        census, beta = params.census, mp.mpf(params.beta)
        constants = compute_constants(4, params.s)
        xs = np.linspace(-3.0, 6.0, 181)
        logs = [mp.log1p(-mp.exp(-beta * int(m))) for m in census.dims]
        per_weight = [log for log, rho in zip(logs, census.counts) for _ in range(rho)]
        heights = twice_height(4, census.weights - 1) / 2.0
        for prob, keys, terms, center, scale in (
                (exact_prob_max_dim_le, census.dims.astype(float),
                 [int(rho) * log for log, rho in zip(logs, census.counts)],
                 constants.max_dim_center, constants.max_dim_scale),
                (exact_prob_height_le, heights, per_weight,
                 constants.height_center, constants.height_scale)):
            ells = center + scale * xs
            values, err = prob(params, ells)
            sorted_keys, suffix = _mp_suffix_logs(keys, terms)
            for ell, value in zip(ells, values):
                ref = mp.exp(suffix[int(np.searchsorted(sorted_keys, ell, side="right"))])
                assert abs(mp.mpf(value) - ref) <= err, (prob.__name__, ell)

        params = solve_saddle(2, 10**6)
        census, beta = params.census, mp.mpf(params.beta)
        levels = default_shape_grid(2) / params.s
        values, errs = exact_expected_shape(params, levels)
        dims = np.repeat(census.dims, census.counts)
        ratios = [mp.exp(-beta * int(a)) / -mp.expm1(-beta * int(a)) for a in dims]
        for level, value, err in zip(levels, values, errs):
            inside = np.flatnonzero(np.all(census.weights >= level, axis=1))
            ref = mp.fsum(ratios[i] for i in inside)
            assert abs(mp.mpf(value) - ref) <= err, level


def test_rejection_sampler_totals_and_agreement_with_dp():
    params = sampling_params(solve_saddle(2, 10))
    rng = np.random.default_rng(31)
    reps = [rejection_uniform_sample(params, rng) for _ in range(2000)]
    assert all(rep.total_dim() == 10 for rep in reps)

    table = count_representations(2, 10)
    dp_rng = random.Random(32)
    dp_reps = [uniform_sample(table, 10, dp_rng) for _ in range(2000)]

    def key(rep):
        return tuple(rep.components())

    classes = sorted({key(rep) for rep in reps} | {key(rep) for rep in dp_reps})
    contingency = [[sum(1 for rep in group if key(rep) == c) for c in classes]
                   for group in (reps, dp_reps)]
    _, pvalue, _, _ = chi2_contingency(contingency)
    assert pvalue > 1e-3


def test_rejection_sampler_attempt_budget():
    # a uniform of 1 accepts no attempt, so one call spends the whole
    # budget, one geometric vector per attempt, and then raises
    params = sampling_params(solve_saddle(2, 10))
    expected = max(-math.expm1(-params.beta)
                   * math.sqrt(2.0 * math.pi * params.sigma2), 1.0)
    budget = math.ceil(REJECTION_ATTEMPT_FACTOR * expected)

    class Refusing(_CountingRng):
        def random(self):
            return 1.0

    rng = Refusing(np.random.default_rng(33))
    with pytest.raises(RuntimeError, match=f"exceeded {budget} attempts"):
        rejection_uniform_sample(params, rng)
    assert rng.calls["geometric"] == budget


def test_rejection_sampler_refuses_n_from_2_to_the_62():
    params = sampling_params(solve_saddle(1, 10))
    for n in (REJECTION_MAX_N, 10**20):
        with pytest.raises(ValueError, match="n < 2\\^62"):
            rejection_uniform_sample(params._replace(n=n), np.random.default_rng(1))


def test_rejection_drops_a_row_whose_total_wrapped():
    # rank 1, n = 10, weights of dimensions 2, 3, 4, ...: attempt 0 sums to
    # 2 * 2^62 + 3 * 2 + 4 * 2^61 = 2^64 + 6, which int64 reads as 6, so it
    # leaves k = 4 as attempt 1 does (dimension 2 three times); u = 0 accepts
    # both, and only attempt 1 is a representation of dimension 10
    params = sampling_params(solve_saddle(1, 10))
    attempts = iter([(2**62, 2, 2**61), (3, 0, 0)])

    class Wrapping:
        def geometric(self, p):
            vec = np.ones(p.size, dtype=np.int64)
            vec[:3] += next(attempts)
            return vec

        def random(self):
            return 0.0

    rep = rejection_uniform_sample(params, Wrapping())
    assert rep.components() == [((1,), 4), ((2,), 3)]
    assert rep.total_dim() == 10


def test_rejection_sampler_is_uniform_at_rank_three():
    # 16 representations of dimension 12 at rank 3, 1000 expected draws each
    n = 12
    params = sampling_params(solve_saddle(3, n))
    rng = np.random.default_rng(34)
    reps = [rejection_uniform_sample(params, rng) for _ in range(16_000)]
    seen = Counter(tuple(rep.components()) for rep in reps)
    assert len(seen) == count_representations(3, n).counts[n] == 16
    _, pvalue = chisquare(list(seen.values()))
    assert pvalue > 1e-3


def test_rejection_sampler_fills_the_trivial_weight():
    n = 2000
    params = sampling_params(solve_saddle(2, n))
    trivial = tuple(params.census.weights[0].tolist())
    assert trivial == (1, 1)
    rng = np.random.default_rng(35)
    reps = [rejection_uniform_sample(params, rng) for _ in range(200)]
    for rep in reps:
        mult = dict(rep.components())
        rest = sum(dim_irrep(2, k) * c for k, c in mult.items() if k != trivial)
        assert mult.get(trivial, 0) == n - rest
    assert any(stat_multiplicity(rep, trivial) > 0 for rep in reps)


def test_rejection_sampler_refuses_census_without_trivial_class():
    params = sampling_params(solve_saddle(2, 30))
    census = params.census
    cut = census._replace(dims=census.dims[1:],
                          counts=census.counts[1:],
                          cumulative=census.cumulative[1:] - 1,
                          weights=census.weights[1:])
    cut_params = params._replace(census=cut, term_arrays=_term_arrays(cut, params.beta))
    with pytest.raises(ValueError):
        rejection_uniform_sample(cut_params, np.random.default_rng(36))


class _CountingRng:
    """A numpy Generator that counts the calls made to each of its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


def test_draws_compute_the_term_arrays_once(monkeypatch):
    # the exp and expm1 over every class depend on the params alone, so
    # the params carry them from where their census was chosen, and
    # repeated draws and curves compute none
    params = sampling_params(solve_saddle(2, 10**8))
    made = []

    def counted(census, beta):
        made.append(beta)
        return term_arrays(census, beta)

    term_arrays = slrep.boltzmann._term_arrays
    monkeypatch.setattr(slrep.boltzmann, "_term_arrays", counted)
    rng = np.random.default_rng(46)
    for _ in range(20):
        boltzmann_sample(params, rng)
    exact_count_mgf(params, np.array([0.5]))
    exact_prob_max_dim_le(params, [10.0])
    assert made == []


def test_sampler_generator_calls_do_not_grow_with_classes():
    per_draw = []
    for n in (300, 10**6):
        params = sampling_params(solve_saddle(2, n))
        rng = _CountingRng(np.random.default_rng(44))
        for _ in range(3):
            boltzmann_sample(params, rng)
        assert rng.calls["geometric"] == rng.calls.total()
        per_draw.append(rng.calls.total() / 3)
    assert per_draw[0] == per_draw[1] == 1

    # rejection: one geometric call per attempt and one uniform call per
    # attempt that leaves k >= 0, none per accepted sample
    n = 10**4
    params = sampling_params(solve_saddle(2, n))
    dims = np.repeat(params.census.dims, params.census.counts)[1:]
    fits = []

    class Recording(_CountingRng):
        def geometric(self, p):
            self.calls["geometric"] += 1
            vec = self.rng.geometric(p)
            fits.append(int((vec - 1) @ dims) <= n)
            return vec

    rng = Recording(np.random.default_rng(45))
    reps = [rejection_uniform_sample(params, rng) for _ in range(8)]
    assert all(rep.total_dim() == n for rep in reps)
    assert rng.calls["geometric"] == len(fits) > 8
    assert rng.calls["random"] == sum(fits)
    assert rng.calls.total() == len(fits) + sum(fits)

"""Grand-canonical (Boltzmann) model over sl_{r+1} representations.

Under the product measure with parameter q in (0, 1), the multiplicities
X_k of the irreducible modules are independent geometrics,
P(X_k = l) = (1 - q^a) q^{a l} with a the module dimension.  Conditioned on
total dimension n this measure is exactly uniform, which is what the
rejection sampler exploits: it draws every weight but the trivial module and
accepts with probability q^k, k the dimension left to it, at an expected
(1 - q) sqrt(2 pi sigma^2) attempts per sample.  Both samplers draw that
measure directly, one geometric per census weight (Duchon, Flajolet,
Louchard & Schaeffer 2004), in one generator call per draw or attempt,
whatever the number of weights.

`solve_saddle` tunes q so the expected total dimension equals n, by Newton
steps in beta = -log q that need no bracket, as the expectation is convex
and decreasing in beta; writing q = exp(-s^nu) with nu = r(r+1)/2, the
solved s shrinks like n^{-2/(r(r+3))}.  The solved parameters are the one
state every later stage reads: q and the census the solve was certified on
(`params.census`), with its per-class term arrays.  `params.with_cutoff`
moves them to another census of their rank, which `sampling_params` does
when sampling needs a wider one, sized before its scan, and the samplers
and exact distribution curves take the parameters alone.

Every truncated sum here carries a certified tail bound, returned as the
second element of a (value, err) pair or recorded on the params object.
The bounds rest on R(x) <= C_r x^{2/(r+1)} for the number R(x) of weights
with dim <= x: the dimension form increases in each coordinate, so the
unit cubes [k - 1, k] of the counted weights are disjoint and lie in
{y >= 0 : dim form <= x}, of volume C_r x^{2/(r+1)} (`census.region_volume`,
a Selberg integral at every rank).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .census import _U, IrrepCensus, enumerate_irreps, weighted_tail_bound
from .exact_count import Representation
from .limits import _mgf_points, asymptotic_saddle
from .weights import degree, twice_height


class BoltzmannParams(NamedTuple):
    """Solved saddle point: E_q[total dimension] = n within SADDLE_TOL * n,
    certified on `census`, whose rank is theirs and which every later stage
    reads, with its `term_arrays`.  Parameters moved to another cutoff by
    `with_cutoff` keep their solve's tail_bound and sigma2."""

    n: int
    beta: float       # -log q = s^nu
    sigma2: float     # Var_q(total dimension), census part
    tail_bound: float  # certified truncation error of E_q[dim] at the solution
    census: IrrepCensus
    term_arrays: tuple  # (m, rho, q^m, 1 - q^m) per class of census, as floats

    @property
    def rank(self) -> int:
        return self.census.rank

    @property
    def q(self) -> float:
        """exp(-beta)."""
        return math.exp(-self.beta)

    @property
    def s(self) -> float:
        """beta^(1/nu), nu = r(r+1)/2."""
        return self.beta ** (1.0 / degree(self.rank))

    @property
    def cutoff(self) -> int:
        """Cutoff (max_dim) of `census`."""
        return self.census.max_dim

    def with_cutoff(self, cutoff: int) -> BoltzmannParams:
        """These parameters on their rank's census up to `cutoff`, with its
        term arrays."""
        census = enumerate_irreps(self.rank, cutoff)
        return self._replace(census=census, term_arrays=_term_arrays(census, self.beta))


def _class_terms(m, beta):
    """q^m and 1 - q^m for the float class dimensions m, q = e^(-beta): the
    one per-class kernel of the saddle solve, the samplers and the curves."""
    return np.exp(-beta * m), -np.expm1(-beta * m)


def _term_arrays(census, beta):
    m = census.dims.astype(float)
    rho = census.counts.astype(float)
    return (m, rho, *_class_terms(m, beta))


def _moment_terms(arrays, beta, p):
    """rho m^p q^m / (1 - q^m)^p per class of the float arrays (m, rho),
    with 1 - q^m."""
    m, rho = arrays
    qm, one_minus = _class_terms(m, beta)
    return rho * m**p * qm / one_minus**p, one_minus


_CHI = 48.0


def default_cutoff(r: int, n: int) -> int:
    """Census cutoff heuristic: dims where q^m has decayed to e^{-48}."""
    beta_guess = asymptotic_saddle(r, n) ** degree(r)
    return max(int(math.ceil(_CHI / beta_guess)), 8)


def _saddle_gap(arrays, beta: float, n: int):
    """E - n on the census arrays (dims, counts), with dE/dbeta = -sum rho
    m^2 q^m / (1 - q^m)^2, q^m = exp(-beta m).  E = sum rho m sum_{k >= 1}
    e^(-k beta m) is a sum of decreasing convex exponentials, so it is
    convex and decreasing in beta, and a larger census only adds terms to
    it.  The gap is summed exactly rounded; the derivative only steers
    Newton steps, so a plain sum serves."""
    terms, one_minus = _moment_terms(arrays, beta, 1)
    slope = -float(np.sum(terms * arrays[0] / one_minus))
    return math.fsum(terms) - n, slope


# err leaves out the rounding of E_q's float terms, about (beta m + 8) u
# each (u = 2^-53, beta m up to about 50), so SADDLE_TOL keeps it negligible
SADDLE_TOL = 1e-8  # every solve: |E_q[total dimension] - n| <= SADDLE_TOL * n


def solve_saddle(r: int, n: int) -> BoltzmannParams:
    """Solve E_q[total dimension] = n for q, |E - n| <= SADDLE_TOL * n certified.

    Newton in beta = -log q on the census-truncated E, from the leading-order
    guess asymptotic_saddle(r, n)^nu.  E is convex and decreasing in beta, so
    each tangent meets n at or left of the root: a guess right of it steps
    left (or halves, where a step would reach beta <= 0), and from the first
    iterate left of it on, each step rises to the root without passing it,
    so the last gap bounds E - n at the beta returned.  The census starts at
    `default_cutoff` and doubles, the solve resuming from its beta (a larger
    census only raises E), until the truncation error there fits the
    tolerance budget (a cutoff with beta X <= 1 has no tail bound and fails
    it), so only the census cap (BudgetError) ends the loop.
    """
    if n < 1:
        raise ValueError(f"target dimension must be >= 1, got {n}")
    beta = asymptotic_saddle(r, n) ** degree(r)
    X = default_cutoff(r, n)
    while True:
        census = enumerate_irreps(r, X)
        arrays = census.dims.astype(float), census.counts.astype(float)
        for _ in range(200):
            g, slope = _saddle_gap(arrays, beta, n)
            # a flat tangent (every q^m underflows) lies right of the root
            step = g / slope if slope else math.inf
            if abs(step) <= 4.0 * math.ulp(beta):  # g == 0 included
                beta -= step
                break
            beta = beta - step if step < beta else 0.5 * beta
        err = ((-np.expm1(-beta * X)) ** -1 * weighted_tail_bound(r, X, beta, 1)
               if beta * X > 1.0 else math.inf)
        if err <= SADDLE_TOL * n / 2.0 and abs(g) <= SADDLE_TOL * n / 2.0:
            sigma2 = math.fsum(_moment_terms(arrays, beta, 2)[0])
            return BoltzmannParams(n=n, beta=beta, sigma2=sigma2, tail_bound=err,
                                   census=census, term_arrays=_term_arrays(census, beta))
        X *= 2


def truncation_tv_bound(params: BoltzmannParams) -> float:
    """Certified TV distance between the full product law and the one
    truncated at params.cutoff: at most sum of q^a beyond the cutoff."""
    return weighted_tail_bound(params.rank, params.cutoff, params.beta, 0)


def _tail_mean_bound(params):
    """Certified bound on sum q^a / (1 - q^a) beyond the cutoff X, by q^X."""
    return truncation_tv_bound(params) / -np.expm1(-params.beta * params.cutoff)


SAMPLING_TV = 1e-12
"""Largest truncation TV distance a sampling census may leave."""

REJECTION_ATTEMPT_FACTOR = 100.0  # attempt budget per sample, in expected attempts

REJECTION_MAX_N = 2**62
"""The rejection sampler's bound on n, which it holds in int64 (see
rejection_uniform_sample)."""


def sampling_params(params: BoltzmannParams) -> BoltzmannParams:
    """params on a census wide enough to sample within SAMPLING_TV in TV: the
    solver's census targets moment accuracy, so unless it already certifies
    this stricter bound, the cutoff doubles in arithmetic until the
    closed-form tail bound does, and `with_cutoff` scans that one census."""
    X = params.cutoff
    while weighted_tail_bound(params.rank, X, params.beta, 0) > SAMPLING_TV:
        X *= 2
    return params if X == params.cutoff else params.with_cutoff(X)


def _require_sampling_census(params):
    tv = truncation_tv_bound(params)
    if tv > SAMPLING_TV:
        raise RuntimeError(
            f"census cutoff {params.cutoff} leaves truncation TV {tv:.3g} "
            f"> {SAMPLING_TV:.3g}; widen it with sampling_params")
    return params.census


def boltzmann_sample(params: BoltzmannParams, rng: np.random.Generator) -> Representation:
    """One free (unconditioned) draw from the truncated product measure:
    one geometric call gives every census weight its multiplicity.  numpy's
    geometric(p) counts trials, so with p = 1 - q^a, geometric(p) - 1 takes
    l with probability (1 - q^a) q^{a l}, the weight's own law (Duchon,
    Flajolet, Louchard & Schaeffer 2004).

    Raises RuntimeError when the census cannot certify the draw: its
    truncation TV exceeds SAMPLING_TV (widen it with sampling_params).
    """
    census = _require_sampling_census(params)
    mult = rng.geometric(np.repeat(params.term_arrays[3], census.counts)) - 1
    rows = np.flatnonzero(mult)
    return Representation(census, rows, mult[rows])


def rejection_uniform_sample(params: BoltzmannParams,
                             rng: np.random.Generator) -> Representation:
    """One exactly uniform representation of dimension n, by rejection.

    Probabilistic divide-and-conquer (Arratia & DeSalvo 2016), deterministic
    second half.  Each attempt draws the multiplicity X_k of every census
    weight but the trivial module (params.census's row 0, dimension 1) from
    its own geometric law, in one generator call, sets k = n - sum a X_k,
    and is accepted when k >= 0 and U < q^k, with U uniform from one more
    call; the trivial module then takes multiplicity k.  Its own
    multiplicity is Geometric(1 - q), so an accepted attempt follows the
    product law conditioned on total n, and succeeds with probability
    P(T = n) / (1 - q): about (1 - q) sqrt(2 pi sigma_n^2) attempts are
    expected.

    An attempt's total sum a X_k is an int64 dot product, exact below 2^63,
    and n < REJECTION_MAX_N keeps every total up to n in int64.  The terms
    are nonnegative, so only a total above n can wrap; an accepted attempt
    is kept when its exact total_dim is n, which drops the attempts a wrap
    let through and no other.

    Raises RuntimeError when the census's truncation TV exceeds SAMPLING_TV
    or the attempt budget (REJECTION_ATTEMPT_FACTOR times the expected
    count) is spent, and ValueError for n >= REJECTION_MAX_N or a census
    that does not start at the trivial module.
    """
    if params.n >= REJECTION_MAX_N:
        raise ValueError(f"rejection sampling needs n < 2^62, got {params.n}")
    census = _require_sampling_census(params)
    if census.dims[0] != 1 or census.counts[0] != 1:
        raise ValueError("rejection sampling needs a census that starts at "
                         "the trivial module")
    expected = max(-math.expm1(-params.beta)
                   * math.sqrt(2.0 * math.pi * params.sigma2), 1.0)
    max_attempts = int(math.ceil(REJECTION_ATTEMPT_FACTOR * expected))
    # one entry per weight after the trivial row 0
    m_vec = np.repeat(census.dims, census.counts)[1:]
    p_vec = np.repeat(params.term_arrays[3], census.counts)[1:]
    for _ in range(max_attempts):
        mult = rng.geometric(p_vec) - 1
        k = params.n - int(mult @ m_vec)
        if k >= 0 and rng.random() < math.exp(-params.beta * k):
            mult = np.append(k, mult)
            used = np.flatnonzero(mult)
            rep = Representation(census, used, mult[used])
            if rep.total_dim() == params.n:
                return rep
    raise RuntimeError(f"rejection sampler exceeded {max_attempts} attempts")


# ---- exact distribution curves under the product measure ----
#
# Each curve's err also bounds its float rounding, against the exact value
# at the float beta.  Every exp, expm1 and log1p is taken to be within one
# ulp (2u relative, u the unit roundoff), every other operation within u.
# fl(beta m) and its exp put (beta m + 2)u on q^m, and log1p(-x) moves by
# x / (1 - x) per unit relative change of x.  A sum of k terms in any order
# is within (k - 1)u of their summed magnitudes.  The extra u here and there
# covers the float evaluation of the bounds themselves.

def _log_factors(params):
    """(m, rho, log(1 - q^m), slack) per census class: slack bounds the
    rounding of rho log1p(-q^m), and is (beta m + 6)u q^m / (1 - q^m) per
    weight (the error of q^m, log1p's own 2u of |log(1 - q^m)|, which is at
    most q^m / (1 - q^m), and the product by rho)."""
    m, rho, qm, one_minus = params.term_arrays
    return m, rho, np.log1p(-qm), (params.beta * m + 6.0) * _U * qm / one_minus


def _suffix_sums(keys, arrays, points, side):
    """Each array's sum over the keys from where each point of the 1-D
    array points falls among them, on `side`, up to the largest, 0 past
    the last key.  The keys must ascend: nothing is sorted here."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 1:
        raise ValueError("the grid must be a 1-D array")
    at = np.searchsorted(keys, points, side=side)
    return [np.append(np.cumsum(a[::-1])[::-1], 0.0)[at] for a in arrays]


def _extremal_cdf(params, keys, terms, slack, sizes, ell):
    """exp of the sum of terms over the ascending keys > x, for each x of
    the 1-D array ell, with the err shared by exact_prob_*_le: the largest,
    over the values, of the census truncation (which only lowers the true
    value) plus the rounding: the slack of the summed terms, (k - 1)u of
    the magnitude of a k-term sum, 2u of exp.  sizes[i] is the number of
    float terms summed into terms[i], so k is their sum over the keys > x."""
    truncation = -math.expm1(-_tail_mean_bound(params))
    total, slack, sizes = _suffix_sums(keys, (terms, slack, sizes), ell, "right")
    values = np.fromiter(map(math.exp, total), float, total.size)
    drift = slack - (sizes - 1) * _U * total
    expm1 = np.fromiter(map(math.expm1, drift), float, total.size)
    return values, float(np.max(values * (truncation + expm1 + 3.0 * _U)))


def exact_prob_max_dim_le(params: BoltzmannParams, ell):
    """(values, err): Q(largest used dimension <= x) for each x of the 1-D
    array ell, as prod over dims m > x of (1 - q^m)^rho(m), from one pass
    over params.census.  Every true value lies within err of its value."""
    m, rho, logs, slack = _log_factors(params)
    logs *= rho
    slack *= rho
    # the census dims ascend, one float term per class
    return _extremal_cdf(params, m, logs, slack, np.broadcast_to(1.0, m.shape), ell)


def exact_prob_height_le(params: BoltzmannParams, ell):
    """(values, err): Q(largest weight height <= x) for each x of the 1-D
    array ell, the product of (1 - q^a) over all weights k with
    L(k - 1) > x.  Every true value lies within err of its value."""
    census = params.census
    r = census.rank
    # 2 L(k - 1) = 2 L(k) - r(r+1)(r+2)/6, a non-negative integer bin
    h2 = twice_height(r, census.weights)
    h2 -= r * (r + 1) * (r + 2) // 6
    _, _, logs, slack = _log_factors(params)
    terms = np.bincount(h2, np.repeat(logs, census.counts))
    slack = np.bincount(h2, np.repeat(slack, census.counts))
    sizes = np.bincount(h2)
    # the bin keys b / 2 are exact, so b / 2 > x exactly when b > 2 x
    return _extremal_cdf(params, np.arange(sizes.size) / 2.0, terms, slack, sizes, ell)


def exact_expected_shape(params: BoltzmannParams, levels):
    """(values, errs): E_Q[number of weights k >= (t, ..., t), counted with
    multiplicity], the expected shape functional sum q^a/(1-q^a) over the
    diagonal corner set of params.census, for each level t of the 1-D array
    levels.  The terms are binned on the exact integer key min_j k_j, and
    one suffix sum reads the bins on the left, so each level sums the keys
    >= t.  Each true value lies within its err of its value; the census
    truncation only raises it.  Each err is the truncation bound plus the
    rounding, relative to the value as every term is positive: (beta m +
    6)u per term (q^m, expm1 of the rounded beta m, the division) and
    (K - 1)u for the census's K weights."""
    census = params.census
    _, _, qm, one_minus = params.term_arrays
    bins = np.bincount(census.weights.min(axis=1), np.repeat(qm / one_minus, census.counts))
    (values,) = _suffix_sums(np.arange(bins.size), (bins,), levels, "left")
    rounding = (params.beta * params.cutoff + census.num_weights + 6.0) * _U
    return values, _tail_mean_bound(params) + rounding * values


def exact_count_mgf(params: BoltzmannParams, us):
    """(values, errs): E_Q[exp(u s^nu N)], N the number of irreducible components,
    as prod (1-q^m)/(1-q^m e^{u s^nu}) at each u of the real 1-D array us in (-1, 1).

    Each err bounds the census truncation and the float rounding.  A class's
    two logs nearly cancel, so their rounding is charged against the logs,
    not against their difference.  c = e^{u beta} carries (|u| beta + 2)u,
    the shifted x = q^m c one more u, and each log1p 2u of its log.  Both
    logs read the same q^m, so its error moves their difference only by
    |c - 1| q^m / ((1 - q^m)(1 - x)) times its relative size.  The
    difference, the product by rho and the sum of the k class terms, which
    share one sign, add (k + 1)u of |log value|, and exp 2u of the value."""
    us = _mgf_points(us)
    beta = params.beta
    m, rho, qm, one_minus = params.term_arrays
    # math.exp, whose last bit np.exp may not match
    spread = np.fromiter(map(math.exp, abs(us) * beta), float, us.size)
    growth = np.fromiter(map(math.exp, us * beta), float, us.size)[:, None]
    shifted = qm * growth  # one row per point
    if np.any(shifted >= 1.0):
        raise ValueError("mgf undefined: e^{u s^nu} q^m reaches 1 on the census")
    logs = np.sum(rho * (np.log1p(-qm) - np.log1p(-shifted)), axis=1)
    edge = math.exp(-beta * params.cutoff) * spread
    t_u = abs(us) * beta * spread / (1.0 - edge) * truncation_tv_bound(params)
    rest = 1.0 - shifted
    drift = _U * np.sum(rho * (
        abs(growth - 1.0) * qm * (beta * m + 3.0) / (one_minus * rest)
        + shifted * (abs(us)[:, None] * beta + 4.0) / rest
        + 2.0 * (qm / one_minus + shifted / rest)), axis=1)
    drift += (m.size + 1) * _U * abs(logs)
    values = np.fromiter(map(math.exp, logs), float, us.size)
    relative = np.fromiter(map(math.expm1, t_u + drift), float, us.size)
    return values, values * (relative + 3.0 * _U)

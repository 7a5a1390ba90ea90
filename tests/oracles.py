"""Independent routes kept as test oracles (some use scipy and mpmath).

The package computes the region volume C_2 and the moment integrals in
closed form, the limit shape by a certified one-dimensional rule, and the
window-box dimensions as one vectorized array.  These routes reach the
same numbers another way: a Monte Carlo volume with an analytic tail, an
adaptive box quadrature with an analytic strip correction, the simplex
reduction of the rank-2 shape in mpmath, and a point-by-point walk over
the window box.  The second exact routes live here too: the counts by the
Euler recurrence, the partition numbers (the rank-1 counts) by Euler's
pentagonal-number recurrence, the counting function of a census, the
grand-ensemble moments summed over a census with their certified tails,
the multiplicity and shape statistics of one representation, the
dimension form at a real point, and the KS distance of a sample to a CDF.  Only tests call them.
`representation` builds a representation from a dict of weights, the form
tests write by hand.
"""

import itertools
import math
import warnings

import numpy as np

from slrep.census import IrrepCensus, enumerate_irreps, weighted_tail_bound
from slrep.exact_count import Representation
from slrep.weights import dim_irrep, superfactorial, weyl_numerator


def dim_poly(r: int, y) -> float:
    """The dimension form evaluated at a real point y > 0 (for quadrature)."""
    return weyl_numerator(r, y) / superfactorial(r)


def count_by_recurrence(r: int, n: int) -> list:
    """The counts p(0), ..., p(n) by the Euler identity

        v p(v) = sum_d sum_{k>=1} d rho(d) p(v - k d),

    run as a recurrence in exact integers (the division by v never leaves
    a remainder): the route the count table is compared with, coefficient
    for coefficient."""
    census = enumerate_irreps(r, max(n, 1))

    # c[j] = sum of d*rho(d) over divisors d <= n of j, by sieving
    c = [0] * (n + 1)
    for d, rho in zip(census.dims.tolist(), census.counts.tolist()):
        for j in range(d, n + 1, d):
            c[j] += d * rho

    p = [0] * (n + 1)
    p[0] = 1
    for v in range(1, n + 1):
        acc = 0
        for j in range(1, v + 1):
            acc += c[j] * p[v - j]
        q, rem = divmod(acc, v)
        if rem:
            raise ArithmeticError(f"Euler recurrence not divisible at v={v}")
        p[v] = q
    return p


def partitions_by_pentagonal_recurrence(n: int) -> list:
    """The partition numbers p(0), ..., p(n) by Euler's pentagonal-number
    theorem,

        p(v) = sum_{k>=1} (-1)^(k+1) (p(v - k(3k-1)/2) + p(v - k(3k+1)/2)),

    in exact integers, with p of a negative argument zero: O(n^(3/2))
    additions, and no census."""
    p = [0] * (n + 1)
    p[0] = 1
    for v in range(1, n + 1):
        acc, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= v:
            term = p[v - g] + (p[v - g - k] if g + k <= v else 0)
            acc += term if k % 2 else -term
            k += 1
        p[v] = acc
    return p


def cumulative_count(census: IrrepCensus, x) -> int:
    """Number of irreducible modules of dimension <= x (x real)."""
    if x < 0 or x > census.max_dim:
        raise ValueError(f"argument {x} outside census range [0, {census.max_dim}]")
    i = int(np.searchsorted(census.dims, math.floor(x), side="right"))
    return int(census.cumulative[i - 1]) if i else 0


def _census_moment(q, census, p):
    """(value, err): sum rho(m) m^p q^m / (1 - q^m)^p over the census, summed
    exactly rounded, and the certified bound on the terms beyond its
    cutoff X: `weighted_tail_bound` scaled by (1 - q^X)^-p."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"Boltzmann parameter must satisfy 0 < q < 1, got {q}")
    beta = -math.log(q)
    m = census.dims.astype(float)
    rho = census.counts.astype(float)
    value = math.fsum(rho * m**p * np.exp(-beta * m) / (-np.expm1(-beta * m)) ** p)
    scale = (-np.expm1(-beta * census.max_dim)) ** (-p)
    return value, scale * weighted_tail_bound(census.rank, census.max_dim, beta, p)


def expected_dim(q: float, census: IrrepCensus):
    """(value, err): E_q[total dimension], truncated at the census cutoff.

    err is a certified bound on the ignored tail; a RuntimeError signals a
    census cutoff too small for the tail machinery at this q.
    """
    return _census_moment(q, census, 1)


def variance_dim(q: float, census: IrrepCensus):
    """(value, err): Var_q(total dimension) = sum a^2 q^a / (1-q^a)^2."""
    return _census_moment(q, census, 2)


def stat_multiplicity(rep: Representation, k) -> int:
    """X_k: multiplicity of the weight k."""
    return int(rep.mult[np.all(rep.weights() == np.asarray(k), axis=1)].sum())


def stat_shape(rep: Representation, t) -> int:
    """shape(t): number of components (with multiplicity) whose weight
    dominates the corner t coordinatewise."""
    t = np.asarray(t)
    if t.shape != (rep.rank,):
        raise ValueError(f"corner must have {rep.rank} coordinates")
    return int(rep.mult[np.all(rep.weights() >= t, axis=1)].sum())


def ks_distance(sample, cdf) -> float:
    """Sup distance between the empirical law of the sample and a CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise ValueError("empty sample has no empirical law")
    values = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, xs.size + 1, dtype=float) / xs.size
    return float(max(np.max(steps - values), np.max(values - steps + 1.0 / xs.size)))


def representation(r: int, mult: dict) -> Representation:
    """The representation with multiplicity mult[k] at each weight tuple k,
    its rows looked up in a census that reaches every weight and sorted, a
    zero multiplicity dropped."""
    census = enumerate_irreps(r, max((dim_irrep(r, k) for k in mult), default=1))
    index = {k: i for i, k in enumerate(map(tuple, census.weights.tolist()))}
    rows = sorted((index[k], m) for k, m in mult.items() if m)
    return Representation(census, np.array([i for i, _ in rows], dtype=np.int64),
                          np.array([m for _, m in rows], dtype=np.int64))


def boundary_root_r2(y1: float) -> float:
    """Largest y2 with y1*y2*(y1+y2)/2 <= 1, in closed form.

    Rationalized so the large-y1 branch (root ~ 2/y1^2) suffers no
    cancellation: the naive (-y1 + sqrt(y1^2 + 8/y1)) / 2 loses every
    significant digit past y1 ~ 1e5."""
    return 4.0 / (y1 * (math.sqrt(y1 * y1 + 8.0 / y1) + y1))


def lambda_window(r: int, box_size: int):
    """Iterate over the lattice box box_size <= k_j <= (j + 2) * box_size.

    The box has exactly prod_j ((j + 1) * box_size + 1) points.
    """
    if box_size < 4:
        raise ValueError(f"box parameter must be at least 4, got {box_size}")
    ranges = [range(box_size, (j + 2) * box_size + 1) for j in range(1, r + 1)]
    return itertools.product(*ranges)


def region_volume_mc(r: int, seed: int = 7, samples: int = 8_000_000,
                     box: float = 40.0):
    """(value, err): C_2 by Monte Carlo.  Throws uniform points in
    [0, box]^2 and adds the two analytic axis tails, with a 3-sigma error
    bar.  Other ranks raise NotImplementedError."""
    if r != 2:
        raise NotImplementedError(f"Monte Carlo volume implemented for rank 2, got {r}")
    from scipy.integrate import quad

    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 1_000_000
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        y = rng.uniform(0.0, box, size=(b, 2))
        a = y[:, 0] * y[:, 1] * (y[:, 0] + y[:, 1]) / 2.0
        hits += int(np.count_nonzero(a <= 1.0))
        done += b
    p = hits / samples
    vol_box = p * box * box
    sigma = box * box * math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    tail, tail_err = quad(boundary_root_r2, box, np.inf, limit=300)
    return vol_box + 2.0 * tail, 3.0 * sigma + 2.0 * tail_err


def moment_box_quadrature(p: int, box: float = 200.0):
    """Rank-2 cross-check of `dim_moment_integral`: adaptive quadrature on
    [0, box]^2 plus the analytic strip-tail correction 4 K_p / box, where
    K_p = int_0^inf t^p e^{-t}/(1-e^{-t})^p dt (pi^2/6 for p = 1, pi^2/3
    for p = 2; each of the two strips beyond the box contributes
    2 K_p / box).  Two quadrature traps are defused explicitly.  The inner
    integrand concentrates in a spike of width ~ 1/y1^2 near the axis, so
    the level-set roots at heights 1e-3 and 60 are passed as breakpoints;
    without them the adaptive rule sees only zeros once y1 is moderately
    large.  The outer profile behaves like c/sqrt(y1) near zero with a
    narrow clipping dip the adaptive rule cannot resolve against the
    singularity (it silently returns a value biased by 2 K_p / box with a
    misleadingly small error estimate), so the stretch [0, 1] is computed
    under the substitution y1 = w^2, which makes the profile bounded and
    smooth.  Accuracy is O(box^{-2}) from the strip approximation."""
    if p not in (1, 2):
        raise ValueError(f"box quadrature implemented for p in {{1, 2}}, got {p}")
    from scipy.integrate import IntegrationWarning, quad

    def g(a):
        if a < 1e-12:
            return 1.0
        if a > 700.0:
            return 0.0
        e = math.exp(-a)
        return a**p * e / (1.0 - e) ** p

    def level_root(y1, t):
        # largest y2 with y1 y2 (y1 + y2) / 2 <= t, rationalized
        return 4.0 * t / (y1 * (math.sqrt(y1 * y1 + 8.0 * t / y1) + y1))

    def inner(y1):
        if y1 <= 0.0:
            return box
        cuts = sorted({min(level_root(y1, t), box) for t in (1e-3, 60.0)})
        with warnings.catch_warnings():
            # the claimed error is dominated by the strip term, not the
            # inner refinement, so subdivision-limit chatter is noise here
            warnings.simplefilter("ignore", IntegrationWarning)
            v, _ = quad(lambda y2: g(dim_poly(2, (y1, y2))), 0.0, box,
                        points=cuts, epsabs=1e-11, epsrel=1e-9, limit=300)
        return v

    val_lo, err_lo = quad(lambda w: 2.0 * w * inner(w * w), 0.0, 1.0,
                          epsabs=1e-10, epsrel=1e-9, limit=300)
    val_hi, err_hi = quad(inner, 1.0, box, epsabs=1e-10, epsrel=1e-9, limit=300)
    k_p = math.pi**2 / 6.0 if p == 1 else math.pi**2 / 3.0
    return val_lo + val_hi + 4.0 * k_p / box, err_lo + err_hi + 16.0 * k_p / box**2


def bose_tail_reference(c, x):
    """G_c(x) = int_x^inf w^(c-1) / (e^w - 1) dw in mpmath, at the working
    precision: sum_k k^(-c) Gamma(c, k x) from x = 1 on, and below that a
    quadrature over [x, 1] on dyadic breakpoints plus G_c(1)."""
    import mpmath as mp

    c, x = mp.mpf(c), mp.mpf(x)
    if x >= 1:
        total, k, eps = mp.mpf(0), 1, mp.mpf(2) ** (-mp.mp.prec - 8)
        while True:
            total += k ** (-c) * mp.gammainc(c, k * x)
            if mp.exp(-(k - 1) * x) * mp.exp(-x) <= eps * total:
                return total
            k += 1
    points = [x]
    while points[-1] * 2 < 1:
        points.append(points[-1] * 2)
    return (mp.quad(lambda w: w ** (c - 1) / mp.expm1(w), points + [1])
            + bose_tail_reference(c, 1))


def limit_shape_simplex_reference(t1, t2):
    """The rank-2 limit shape in mpmath by the simplex reduction

        f_2(t) = (1/3) int_0^1 P(u)^(-2/3) G_{2/3}(P(u) max(t1/u, t2/(1-u))^3) du,

    P(u) = u (1 - u) / 2, on a mesh graded geometrically toward the kink
    u* = t1 / (t1 + t2) (down to the integrand's decay length there) and
    toward both ends, with a 12-point Gauss-Legendre rule per cell.  G_c
    below x = 3 is the Bernoulli series, which converges for x < 2 pi;
    above, the sum of incomplete gamma functions."""
    import mpmath as mp
    from mpmath.calculus.quadrature import GaussLegendre

    c = mp.mpf(2) / 3
    const = mp.gamma(c) * mp.zeta(c)
    eps = mp.mpf(2) ** (-mp.mp.prec - 8)
    ratios = [mp.bernoulli(2 * j) / mp.factorial(2 * j) for j in range(1, 80)]

    def tail(x):
        if x >= 3:
            return bose_tail_reference(c, x)
        total = const + x ** (c - 1) / (1 - c) + x**c / (2 * c)
        for j, ratio in enumerate(ratios, start=1):
            term = ratio * x ** (2 * j + c - 1) / (2 * j + c - 1)
            total -= term
            if abs(term) <= eps * abs(total):
                return total
        raise ArithmeticError("Bernoulli series did not converge")

    t1, t2 = mp.mpf(t1), mp.mpf(t2)
    kink = t1 / (t1 + t2)

    def f(u):
        form = u * (1 - u) / 2
        return form ** (-c) * tail(form * max(t1 / u, t2 / (1 - u)) ** 3)

    # (t1 + t2)^3 bounds |dx/du| at the kink, beyond which the integrand
    # decays like e^(-slope |u - u*|)
    slope = (t1 + t2) ** 3 + 1
    points = {mp.mpf(0), kink, mp.mpf(1)}
    for length, side in ((kink, -1), (1 - kink, 1)):
        for j in range(int(mp.ceil(mp.log(length * slope, 2))) + 4):
            points.add(kink + side * length * mp.mpf(2) ** -j)
        for j in range(1, 14):
            points.add(kink + side * length * (1 - mp.mpf(2) ** -j))
    points = sorted(points)
    rule = GaussLegendre(mp.mp).calc_nodes(3, mp.mp.prec)
    total = mp.mpf(0)
    for a, b in zip(points[:-1], points[1:]):
        half = (b - a) / 2
        total += half * mp.fsum(w * f(a + half * (x + 1)) for x, w in rule)
    return total / 3

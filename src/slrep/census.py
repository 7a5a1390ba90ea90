"""Census of irreducible sl_{r+1} modules ordered by dimension.

`enumerate_irreps` lists every highest weight whose module dimension is at
most a cutoff X by one numpy scan, a coordinate level at a time, on the
exact word kernel `weights.dimension_words`; the dimension form increases
strictly in each coordinate, so each prefix's next coordinate runs up to
the last one whose cheapest completion fits.  The result is a table of
distinct dimensions with multiplicities plus one int64 array holding every
weight, ordered by dimension.  The number of weights up to x grows like
C_r x^{2/(r+1)}, where C_r is the volume of the region {y > 0 : dim form <= 1}.
By homogeneity C_r = (1/r) * integral over the unit simplex of P^{-2/(r+1)}
(P the dimension form), a Selberg integral (`region_volume`).  Lattice cubes
prove R(x) <= C_r x^{2/(r+1)} for every x, which caps a census before its
scan and bounds every tail beyond one.  Dilation proves R(lam^nu y) >=
lam^r R(y) for every integer lam >= 1 (`inverse_moment_tail`), so a census
also bounds the counting function beyond its cutoff from below.

The census is immutable and shared: the saddle solver keeps its census on
its parameters for the samplers and curves.  The tail bound beyond a cutoff
reads the rank and cutoff alone, so a stage can size a census before its scan.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .weights import degree, dimension_words, superfactorial


class BudgetError(RuntimeError):
    """Raised when a census may hold more than MAX_WEIGHTS weights."""


class IrrepCensus(NamedTuple):
    """All irreducible modules with dimension <= max_dim, grouped by dimension.

    dims        distinct realized dimensions, ascending (int64)
    counts      number of highest weights at each dimension (int64)
    cumulative  running total of counts (int64); cumulative[i] counts all
                weights with dimension <= dims[i]
    weights     (num_weights, rank) int64 array of every highest weight,
                ordered by class: class i is rows cumulative[i-1]:cumulative[i]
                (from 0 for i = 0), each class in lexicographic order
    """

    rank: int
    max_dim: int
    dims: np.ndarray
    counts: np.ndarray
    cumulative: np.ndarray
    weights: np.ndarray

    @property
    def num_weights(self) -> int:
        return int(self.cumulative[-1]) if len(self.dims) else 0


MAX_WEIGHTS = 50_000_000
"""Most weights one census may hold, judged from its proven bound."""


def _scan(r: int, X: int):
    """The r int64 coordinate columns of every weight with dim <= X, in
    lexicographic order.  Level by level, each prefix gets the largest next
    coordinate m whose cheapest completion (later coordinates 1) fits, by
    doubling while the step equals m and then bisection, and np.repeat
    expands it into the prefix followed by 1, ..., m.  A candidate fits when
    its estimate is below 1.5 X and its word lies in [0, X]: above X, a
    dimension has a word outside [0, X] up to 2^64, and from there an
    estimate above 1.5 X, as X < 2^63."""
    columns, size = [], 1
    for depth in range(r):
        ones = [1] * (r - depth - 1)
        # m = 1 fits, as each prefix came from a fitting completion
        last, step = np.ones((2, size), dtype=np.int64)
        rows = np.arange(size)
        while rows.size:
            s = step[rows]
            k = last[rows] + s
            words, est = dimension_words(r, [c[rows] for c in columns] + [k] + ones)
            ok = (est < 1.5 * X) & (words >= 0) & (words <= X)
            step[rows] = np.where(ok & (s == last[rows]), 2 * s, s // 2)
            last[rows[ok]] = k[ok]
            rows = rows[step[rows] > 0]
        columns = [np.repeat(c, last) for c in columns]
        ends = np.cumsum(last)
        size = int(ends[-1])
        run = np.ones(size, dtype=np.int64)  # counts 1, ..., m along each prefix's run
        run[ends[:-1]] -= last[:-1]
        columns.append(np.cumsum(run, out=run))
    return columns


def enumerate_irreps(r: int, max_dim) -> IrrepCensus:
    """Census of all weights with dim <= max_dim; inside each dimension
    class the weights stay in lexicographic order.

    Raises ValueError for max_dim outside [1, 2^63) (dimensions are kept in
    int64), and BudgetError before the scan when the proven bound
    R(X) <= C_r X^(2/(r+1)) exceeds MAX_WEIGHTS (at rank 1 exactly when
    X > MAX_WEIGHTS).
    """
    X = int(max_dim)
    if X < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    if X >= 2**63:
        raise ValueError(f"max_dim {max_dim} does not fit 64-bit storage")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    bound = sum(region_volume(r)) * X ** (2.0 / (r + 1))
    if bound > MAX_WEIGHTS:
        raise BudgetError(f"census at cutoff {X} may hold up to {bound:.3g} "
                          f"weights, above the census cap {MAX_WEIGHTS}")

    columns = _scan(r, X)
    # each word is its dimension (X < 2^63); 2^15 weights a call keep work arrays small
    found = np.empty(columns[0].size, dtype=np.int64)
    for i in range(0, found.size, 2**15):
        rows = slice(i, i + 2**15)
        found[rows] = dimension_words(r, [c[rows] for c in columns])[0]
    # a stable sort keeps each class in scan order; order[i] is the scan
    # position of the i-th weight by dimension
    order = np.argsort(found, kind="stable")
    found = found[order]
    first = np.flatnonzero(np.diff(found, prepend=0))  # each class's first row
    dims = found[first]
    counts = np.diff(first, append=found.size)
    del found
    # column-major, so each scan column is freed once placed; every index
    # is in range, and mode="clip" lets take write into a column unbuffered
    weights = np.empty((order.size, r), dtype=np.int64, order="F")
    for j in range(r):
        np.take(columns[j], order, out=weights[:, j], mode="clip")
        columns[j] = None
    return IrrepCensus(rank=r, max_dim=X, dims=dims, counts=counts,
                       cumulative=np.cumsum(counts), weights=weights)


_U = 2.0**-53          # unit roundoff of a double
_TINY = 2.0**-1022     # smallest normal double


# ---- the region {dim form <= 1} and its volume ----

@lru_cache(maxsize=None)
def region_volume(r: int):
    """Volume C_r of {y > 0 : dim form <= 1}, with an error bound.

    Returns (value, err).  Integrating along rays gives C_r = (1/r) *
    integral over the unit simplex of P^(-c), c = 2/(r+1).  In the partial
    sums 0 = x_0 < x_1 < ... < x_r = 1 of a simplex point, P is the
    Vandermonde prod_{i<j} (x_j - x_i) / sf(r), sf(r) = 1! 2! ... r!, so
    C_r = sf(r)^c / r! * S_{r-1}(a, a, g), Selberg's integral over the r - 1
    inner points with a = (r-1)/(r+1), g = -1/(r+1) (A. Selberg, Norsk Mat.
    Tidsskr. 26, 1944; Forrester and Warnaar, Bull. AMS 45, 2008).  In its
    Gamma product, Gamma(1 + (j+1) g) and Gamma(2a + (r+j-2) g) are both
    Gamma((r-j)/(r+1)) and cancel:

        C_r = sf(r)^c / r! * prod_{k<r} Gamma(k/(r+1))^2 / Gamma(r/(r+1))^(r-1),

    so C_1 = 1, C_2 = 2^(-1/3) Gamma(1/3)^2 / Gamma(2/3) and C_3 = sqrt(3)
    Gamma(1/4)^4 / (6 pi).  err = (128 (r-1) + 8 log sf(r)) u C_r (u the
    unit roundoff) covers 34u per Gamma value (32u for math.gamma, measured
    within 8u on (0, 17], and 2u for its rounded argument x, as |x psi(x)|
    < 1.06 on (0, 1)), the 2r roundings of products, powers and exp, and
    at most 8 log sf(r) u for the exponent c log sf(r) - log r! (logarithms
    keep sf(r) out of the float range).  At rank 1 all is exact: err = 0.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    c = 2.0 / (r + 1)
    sf = superfactorial(r)
    value = math.exp(c * math.log(sf) - math.log(math.factorial(r)))
    for k in range(1, r):
        value *= math.gamma(k / (r + 1)) ** 2
    value /= math.gamma(r / (r + 1)) ** (r - 1)
    return value, (128.0 * (r - 1) + 8.0 * math.log(sf)) * _U * value


def weighted_tail_bound(r: int, X: int, beta: float, p: float) -> float:
    """Upper bound for sum over m > X of rho(m) m^p e^{-beta m} at rank r, p >= 0,
    X >= 1, from (r, X) alone: no census is read.

    Abel summation against the proven bound R(t) <= C_r t^c, c = 2/(r+1)
    (C_r at its value plus its error bound), with f(t) = t^p e^{-beta t}
    decreasing past the cutoff X, bounds the sum by C_r f(X) X^c + C_r c
    int_X^inf t^(a-1) e^(-beta t) dt, a = p + c.  For t >= X, t^(a-1) <=
    X^(a-1) e^(k (t-X)/X) with k = max(a - 1, 0), so with x = beta X the
    integral is at most X^a e^(-x) / (x - k), and

        sum_{m > X} rho(m) f(m) <= C_r X^a e^(-x) (1 + c / (x - k)).

    Unless x >= p (f decreasing) and x > k, RuntimeError is raised: the
    cutoff cannot certify this tail.  Both tests and d = x - k are exact
    (in rationals), so d is rounded once.  X^a e^(-x) is one
    exp(a log X - x): with each operation within u, the unit roundoff, and
    log and exp within 2u, its argument is off by at most (6.2 a log X +
    1.1 a + 2.1 x) u, which exp turns into 1.01 times as much relative
    error while that is below 1/100 (x below 2^40 at moderate p); a larger
    x leaves the value far below 2^-1022, which is added so that a value
    lost to underflow is still covered.  The other roundings add at most
    12u, so the result is rounded up by (a (log X + 1) + x + 2) * 8u.
    """
    if not (0.0 < beta < math.inf and p >= 0.0):
        raise ValueError(f"tail bound needs a finite decay rate beta > 0 and an "
                         f"order p >= 0, got beta = {beta}, p = {p}")
    if X < 1:
        raise ValueError(f"tail bound needs a cutoff X >= 1, got {X}")
    from fractions import Fraction

    x = Fraction(beta) * X
    k = max(Fraction(p) + Fraction(2, r + 1) - 1, 0)
    if x < p or x <= k:
        raise RuntimeError(f"census cutoff {X} too small for a certified "
                           f"tail (need beta X >= {p} and > {float(k):.3g})")
    c = 2.0 / (r + 1)
    a = p + c
    log_X = math.log(X)
    power = math.exp(a * log_X - float(x)) + _TINY  # X^a e^(-x)
    bound = sum(region_volume(r)) * power * (1.0 + c / float(x - k))
    return bound * (1.0 + (a * (log_X + 1.0) + float(x) + 2.0) * 8.0 * _U)


_DILATIONS = 4000  # last lam of the lower bound; the terms it drops are positive


def inverse_moment_tail(census: IrrepCensus, j: int):
    """(estimate, err) for T = sum over m > X of rho(m) / m^j, j >= 1, X the
    census cutoff, bracketed from the census alone at every rank >= 2.

    By parts, T = -R(X) X^-j + j int_X^inf R(t) t^(-j-1) dt, R the counting
    function.  Above, R(t) <= C_r t^c, c = 2/(r+1), gives
    T <= -R(X) X^-j + C_r j/(j-c) X^(c-j).  Below, dilation: the form P is
    homogeneous of degree nu = r(r+1)/2 and increasing in each coordinate,
    so each weight k with P(k) <= y gives lam^r weights lam k - e,
    e in {0..lam-1}^r, with P <= lam^nu y, distinct as e is their residue
    mod lam: R(lam^nu y) >= lam^r R(y).  Putting t = lam^nu y on
    (X (lam-1)^nu, X lam^nu], so y in (a_lam, X], a_lam = X (1 - 1/lam)^nu,

        T >= -R(X) X^-j + sum_{lam >= 2} lam^(r - nu j) G(a_lam),
        G(a) = j int_a^X R(y) y^(-j-1) dy
             = R(a) a^-j + sum_{a < m <= X} rho(m) m^-j - R(X) X^-j,

    with every G read by one searchsorted on the census prefix sums, the
    sum stopped at lam = _DILATIONS and the lower end clamped at 0.

    The estimate is the midpoint of the ends, err the half-width plus a
    rounding bound.  Each end sums nonnegative terms, each within a few
    units u of roundoff, with at most one subtraction per term, and G is
    continuous with |G'(a)| <= j R(X) a^(-j-1), so rounding a_lam (relative
    (nu + 2) u) moves G by at most j (nu + 2) u R(X) a^-j.  So each end is
    within (K + _DILATIONS + 8 nu j + 64) u of the sum of the magnitudes of
    its terms, K the number of dimension classes.
    """
    r = census.rank
    if r < 2:
        raise ValueError("inverse-moment tails need rank >= 2 (divergent at rank 1)")
    c = 2.0 / (r + 1)
    if j <= c:
        raise ValueError(f"moment order {j} must exceed the growth exponent {c}")
    nu = degree(r)
    X = float(census.max_dim)
    tail_X = census.num_weights * X ** -j  # R(X) X^-j
    m = census.dims.astype(float)
    prefix = np.cumsum(census.counts * m ** -j)  # sum of rho m^-j up to each class
    lam = np.arange(2.0, _DILATIONS + 1.0)
    a = X * (1.0 - 1.0 / lam) ** nu
    below = np.searchsorted(m, a, side="right") - 1  # last class with m <= a
    a_j = a ** -j
    G = (np.where(below >= 0, census.cumulative[below] * a_j - prefix[below], 0.0)
         + prefix[-1] - tail_X)
    dilation = lam ** (r - nu * j)
    lower = max(float(dilation @ G) - tail_X, 0.0)
    volume, volume_err = region_volume(r)
    envelope = (volume + volume_err) * j / (j - c) * X ** (c - j)
    upper = envelope - tail_X
    magnitude = (envelope + 2.0 * tail_X + float(
        dilation @ (census.num_weights * a_j + tail_X + 2.0 * prefix[-1])))
    rounding = (m.size + _DILATIONS + 8 * nu * j + 64) * _U * magnitude
    return 0.5 * (lower + upper), 0.5 * (upper - lower) + rounding

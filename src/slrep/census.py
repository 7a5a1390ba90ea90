"""Census of irreducible sl_{r+1} modules ordered by dimension.

`enumerate_irreps` lists every highest weight whose module dimension is at
most a cutoff X, exploiting that the dimension form is strictly increasing
in each coordinate (each nested loop stops as soon as the cheapest
completion overshoots).  The result is stored as a compact table of distinct
dimensions with multiplicities; the number of weights up to x grows like
C_r x^{2/(r+1)}, where C_r is the volume of the region {y > 0 : dim form <= 1}.
By homogeneity C_r = (1/r) * integral over the unit simplex of P^{-2/(r+1)}
(P the dimension form): 2^{-1/3} Gamma(1/3)^2 / Gamma(2/3) at rank 2 and
sqrt(3) Gamma(1/4)^4 / (6 pi) at rank 3.

The census is immutable and shared: samplers, exact distribution curves and
tail bounds all read from the same table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .weights import _dim2, _dim3, superfactorial, twice_height, weyl_numerator


class BudgetError(RuntimeError):
    """Raised when an enumeration or DP would exceed its configured budget."""


@dataclass(frozen=True)
class IrrepCensus:
    """All irreducible modules with dimension <= max_dim, grouped by dimension.

    dims        distinct realized dimensions, ascending (int64)
    counts      number of highest weights at each dimension (int64)
    cumulative  running total of counts (int64); cumulative[i] counts all
                weights with dimension <= dims[i]
    weights     optional tuple, aligned with dims, of tuples of weight vectors
    """

    rank: int
    max_dim: int
    dims: np.ndarray
    counts: np.ndarray
    cumulative: np.ndarray
    weights: tuple | None = None

    @property
    def num_weights(self) -> int:
        return int(self.cumulative[-1]) if len(self.dims) else 0


def _enumerate_generic(r, X, record, budget_left):
    """Depth-first scan; prune on the cheapest completion (all-ones tail)."""
    c = superfactorial(r)
    k = [1] * r

    def scan(depth):
        nonlocal budget_left
        k[depth] = 1
        while True:
            h = weyl_numerator(r, k[: depth + 1] + [1] * (r - depth - 1))
            a = h // c
            if a > X:
                break
            if depth == r - 1:
                budget_left -= 1
                if budget_left < 0:
                    raise BudgetError(f"census budget exhausted at cutoff {X}")
                record(a, tuple(k))
            else:
                scan(depth + 1)
            k[depth] += 1
        k[depth] = 1

    scan(0)


def enumerate_irreps(r: int, max_dim, keep_weights: bool = False,
                     budget: int = 50_000_000) -> IrrepCensus:
    """Census of all weights with dim <= max_dim.

    Raises BudgetError if more than `budget` weights would be stored, and
    ValueError for max_dim outside [1, 2^63) (dimensions are kept in int64).
    """
    X = int(max_dim)
    if X < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    if X >= 2**63:
        raise ValueError(f"max_dim {max_dim} does not fit 64-bit storage")
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")

    counts: dict[int, int] = {}
    weights_by_dim: dict[int, list] = {} if keep_weights else None

    def record(a, kt):
        counts[a] = counts.get(a, 0) + 1
        if keep_weights:
            weights_by_dim.setdefault(a, []).append(kt)

    if r == 1:
        if X > budget:
            raise BudgetError(f"census budget exhausted at cutoff {X}")
        for m in range(1, X + 1):
            record(m, (m,))
    elif r == 2:
        used = 0
        k1 = 1
        while _dim2(k1, 1) <= X:
            k2 = 1
            while True:
                a = _dim2(k1, k2)
                if a > X:
                    break
                used += 1
                if used > budget:
                    raise BudgetError(f"census budget exhausted at cutoff {X}")
                record(a, (k1, k2))
                k2 += 1
            k1 += 1
    elif r == 3:
        used = 0
        k1 = 1
        while _dim3(k1, 1, 1) <= X:
            k2 = 1
            while _dim3(k1, k2, 1) <= X:
                k3 = 1
                while True:
                    a = _dim3(k1, k2, k3)
                    if a > X:
                        break
                    used += 1
                    if used > budget:
                        raise BudgetError(f"census budget exhausted at cutoff {X}")
                    record(a, (k1, k2, k3))
                    k3 += 1
                k2 += 1
            k1 += 1
    else:
        _enumerate_generic(r, X, record, budget)

    dims = np.array(sorted(counts), dtype=np.int64)
    cnts = np.array([counts[int(m)] for m in dims], dtype=np.int64)
    cumulative = np.cumsum(cnts, dtype=np.int64)
    wtuple = None
    if keep_weights:
        wtuple = tuple(tuple(weights_by_dim[int(m)]) for m in dims)
    return IrrepCensus(rank=r, max_dim=X, dims=dims, counts=cnts,
                       cumulative=cumulative, weights=wtuple)


def dim_count(census: IrrepCensus, m: int) -> int:
    """Number of irreducible modules of dimension exactly m."""
    if not 1 <= m <= census.max_dim:
        raise ValueError(f"dimension {m} outside census range [1, {census.max_dim}]")
    i = int(np.searchsorted(census.dims, m))
    if i < len(census.dims) and census.dims[i] == m:
        return int(census.counts[i])
    return 0


def cumulative_count(census: IrrepCensus, x) -> int:
    """Number of irreducible modules of dimension <= x (x real)."""
    if x < 0 or x > census.max_dim:
        raise ValueError(f"argument {x} outside census range [0, {census.max_dim}]")
    i = int(np.searchsorted(census.dims, math.floor(x), side="right"))
    return int(census.cumulative[i - 1]) if i else 0


def flatten_weights(census: IrrepCensus):
    """Per-weight arrays (dim, weight matrix, twice the shifted height).

    The height column is 2 L(k - 1), the exact-integer form of the height
    statistic contribution of each weight.
    """
    if census.weights is None:
        raise ValueError("census was built without keep_weights=True")
    r = census.rank
    dims, rows, h2 = [], [], []
    for m, group in zip(census.dims, census.weights):
        for k in group:
            dims.append(int(m))
            rows.append(k)
            h2.append(twice_height(r, [x - 1 for x in k]))
    return (np.array(dims, dtype=np.int64),
            np.array(rows, dtype=np.int64).reshape(len(rows), r),
            np.array(h2, dtype=np.int64))


def write_csv(census: IrrepCensus, fileobj) -> None:
    """Dump as CSV with header m,rho,cumulative."""
    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(["m", "rho", "cumulative"])
    for m, c, s in zip(census.dims, census.counts, census.cumulative):
        w.writerow([int(m), int(c), int(s)])


# ---- the region {dim form <= 1} and its volume ----

@lru_cache(maxsize=None)
def region_volume(r: int):
    """Volume C_r of {y > 0 : dim form <= 1}, with an error bound.

    Returns (value, err).  The dimension form P has degree r(r+1)/2, so
    integrating along rays gives C_r = (1/r) * integral over the unit
    simplex of P^(-2/(r+1)): C_1 = 1, C_2 = (1/2) 2^(2/3) B(1/3, 1/3) =
    2^(-1/3) Gamma(1/3)^2 / Gamma(2/3), and C_3 = sqrt(3) Gamma(1/4)^4 /
    (6 pi) (complete elliptic integrals); err bounds their float rounding
    by 64 ulps.  Ranks above 3 raise NotImplementedError.
    """
    if r == 1:
        return 1.0, 0.0
    if r == 2:
        value = (2.0 ** (-1.0 / 3.0) * math.gamma(1.0 / 3.0) ** 2
                 / math.gamma(2.0 / 3.0))
    elif r == 3:
        value = math.sqrt(3.0) * math.gamma(0.25) ** 4 / (6.0 * math.pi)
    else:
        raise NotImplementedError(
            f"region volume known in closed form for rank <= 3, got {r}")
    return value, 64.0 * 2.0**-52 * value


_U = 2.0**-53          # unit roundoff of a double
_TINY = 2.0**-1022     # smallest normal double


def upper_incomplete_gamma(a: float, x: float):
    """(value, err): Gamma(a, x) = int_x^inf t^(a-1) e^(-t) dt for
    0 < a <= 16 and x >= 0.

    For x > a + 1 Legendre's continued fraction
        Gamma(a, x) = x^a e^(-x) / (x+1-a - 1(1-a) / (x+3-a - 2(2-a) / ...))
    is evaluated by the modified Lentz method until a step moves it by at
    most one unit roundoff u; otherwise Gamma(a, x) = Gamma(a) - gamma(a, x)
    with gamma(a, x) = x^a e^(-x) sum_k x^k / (a (a+1) ... (a+k)).  err
    counts 8u per Lentz step, 2u per series term, 32u for math.gamma
    (measured within 8u on (0, 17]), the geometric tail of the series, and
    an absolute 2^-1022, so that a value lost to underflow is still covered.
    """
    if not (0.0 < a <= 16.0 and x >= 0.0):
        raise ValueError(f"upper incomplete gamma needs 0 < a <= 16 and x >= 0, "
                         f"got a = {a}, x = {x}")
    if x > a + 1.0:
        if a * math.log(x) - x < -708.0:
            return 0.0, _TINY  # Gamma(a, x) <= x^a e^(-x) / 2 < 2^-1022
        half = math.exp(-0.5 * x)
        b = x + 1.0 - a
        c, d = math.inf, 1.0 / b
        h = d
        for k in range(1, 10_000):
            an = -k * (k - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = c * d
            h *= delta
            if abs(delta - 1.0) <= _U:
                break
        value = x**a * half * half * h
        return value, (8 * k + 32) * _U * value + _TINY
    prefactor = x**a * math.exp(-x)
    term = total = 1.0 / a
    for k in range(1, 10_000):
        term *= x / (a + k)
        total += term
        if term <= _U * total:
            break
    ratio = x / (a + k + 1)  # every later term shrinks by at least this
    tail = term * ratio / (1.0 - ratio)
    lower = prefactor * total
    gamma_a = math.gamma(a)
    value = gamma_a - lower
    err = (32 * _U * gamma_a + (2 * k + 16) * _U * lower + prefactor * tail
           + 2 * _U * value + _TINY)
    return value, err


def weighted_tail_bound(census: IrrepCensus, beta: float, p: float,
                        envelope: float | None = None) -> float:
    """Upper bound for sum over m > max_dim of rho(m) m^p e^{-beta m}.

    Abel summation against the growth envelope R(x) <= C' x^c, c = 2/(r+1):
    with f(t) = t^p e^{-beta t} decreasing past the cutoff X (this needs
    X >= p/beta, or the bound is invalid and we raise),

        sum_{m > X} rho(m) f(m) <= C' f(X) X^c
                                   + C' c beta^{-(p+c)} Gamma(p+c, beta X),

    Gamma(.,.) the upper incomplete gamma function, taken at its value plus
    its error bound.  The result is rounded up by (beta X + 16) * 2u (u the
    unit roundoff): the exponentials amplify the rounding of beta X by
    beta X, and every other operation adds at most u.
    """
    X = float(census.max_dim)
    if beta <= 0:
        raise ValueError(f"decay rate must be positive, got {beta}")
    if X < p / beta:
        raise ValueError(
            f"census cutoff {census.max_dim} too small for a certified tail "
            f"(need at least {p / beta:.3g})")
    if envelope is None:
        envelope = growth_envelope(census)
    c = 2.0 / (census.rank + 1)
    x = beta * X
    fX = X**p * math.exp(-x)
    incomplete, incomplete_err = upper_incomplete_gamma(p + c, x)
    bound = envelope * (fX * X**c
                        + c * beta ** (-(p + c)) * (incomplete + incomplete_err))
    return bound * (1.0 + (x + 16.0) * 2.0 * _U)


def inverse_moment_tail(census: IrrepCensus, j: int,
                        volume: float | None = None):
    """(estimate, err) for sum over m > max_dim of rho(m) / m^j, j >= 1.

    Abel summation with R(t) = C_r t^c + O(t^{c'}) gives the main term
    C_r c/(j-c) X^{c-j}; the error uses the fitted remainder envelope.
    """
    r = census.rank
    if r < 2:
        raise ValueError("inverse-moment tails need rank >= 2 (divergent at rank 1)")
    if volume is None:
        volume, _ = region_volume(r)
    c = 2.0 / (r + 1)
    cprime = 2.0 * (r - 1) / (r * r)
    if j <= c:
        raise ValueError(f"moment order {j} must exceed the growth exponent {c}")
    X = float(census.max_dim)
    K = remainder_envelope(census, volume)
    est = volume * c / (j - c) * X ** (c - j)
    err = K * (1.0 + cprime / (j - cprime)) * X ** (cprime - j)
    return est, err


def growth_envelope(census: IrrepCensus) -> float:
    """Fitted constant C' with cumulative_count(x) <= C' x^{2/(r+1)} on range.

    Twice the maximum observed ratio; used to majorize census tails.  Exact
    on the census range; beyond it the bound rests on the power law with
    the known exponent holding with a factor-2 margin.
    """
    c = 2.0 / (census.rank + 1)
    ratios = census.cumulative / np.power(census.dims.astype(float), c)
    return 2.0 * float(ratios.max())


def remainder_envelope(census: IrrepCensus, volume: float | None = None,
                       tail_fraction: float = 1.0 / 16.0) -> float:
    """Fitted K with |cumulative_count(x) - C_r x^{2/(r+1)}| <= K x^{c'},
    c' = 2(r-1)/r^2, checked at both sides of every jump of the counting
    step function.

    The fit runs over dims >= tail_fraction * max_dim because the envelope
    is only ever used to extrapolate beyond max_dim; the first few dims sit
    far from the power law and would inflate K by an order of magnitude.
    Falls back to the full range when the tail window holds no jumps.
    """
    r = census.rank
    if volume is None:
        volume, _ = region_volume(r)
    c = 2.0 / (r + 1)
    cprime = 2.0 * (r - 1) / (r * r) if r > 1 else 0.0
    start = np.searchsorted(census.dims, tail_fraction * census.max_dim)
    if start >= census.dims.size:
        start = 0
    x = census.dims[start:].astype(float)
    main = volume * np.power(x, c)
    hi = census.cumulative[start:]
    lo = census.cumulative[start - 1:-1] if start > 0 else np.concatenate(
        ([0], census.cumulative[:-1]))
    dev = np.maximum(np.abs(hi - main), np.abs(lo - main))
    return 2.0 * float((dev / np.power(x, cprime)).max())

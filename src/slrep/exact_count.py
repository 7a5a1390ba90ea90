"""Exact counting and exact-uniform sampling of sl_{r+1} representations.

A representation of total dimension n is a multiset of irreducible modules
whose dimensions add to n, i.e. a finitely supported multiplicity function
on highest weights.  Writing rho(d) for the number of weights of dimension
d, the counting generating function is prod_d (1 - t^d)^(-rho(d)), and its
logarithmic derivative gives the Euler identity

    n p(n) = sum_d sum_{k>=1} d rho(d) p(n - k d).

`count_representations` fills its table by multiplying the product out,
one factor 1/(1 - t^d) per weight, the classes in ascending dimension.  The
table is an (n + 1, L) int64 array: row v holds p(v) in L limbs of radix
2^31, least significant first, p(v) = sum_i limb_i 2^(31 i).  A factor is
the in-place recurrence p[v] += p[v - d], run as one vectorized add per
block of d rows, `p[j:j+d] += p[j-d:j]`; above n/2 a pass is a single
slice add.  Carries are lazy: limbs are added limb by limb, and a Python
integer `bound` caps every limb.  After a pass each new entry is a sum of at
most m = n // d + 1 old entries, so every limb is at most bound * m.  The
pass runs only when bound * m < 2^62; otherwise the limbs are first
normalized: carries are rippled up and limbs appended while the top one
carries, which leaves every limb below 2^31 and resets `bound` to 2^31 - 1.
A limb below 2^62 plus a carry below 2^32 stays below 2^63, so no int64
ever overflows as long as (2^31 - 1) m < 2^62, which holds for n < 2^31;
`count_representations` refuses larger n.  At the end every row becomes a
Python int.

`uniform_sample` draws an exactly uniform representation of dimension n by
the recursive method (Nijenhuis & Wilf, Combinatorial Algorithms, 1978):
read the Euler identity at v as a law on its terms, pick one weight of
dimension d and a step k with probability d p(v - k d) / (v p(v)), add k to
that weight's multiplicity and go on at v - k d.  It reads only the count
table.  All randomness comes from `random.Random`, whose big-int randrange
keeps the draw exact at any table size: each step draws u uniform in
[0, v p(v)) and takes the term whose block of integers holds u, the terms
in class order, then k ascending, then weight by weight.

The exact scan of those blocks, `_pick_term`, adds big-int products from
d = 1 on.  Each step first reads the answer from floats instead
(`_screen_term`).  With S = p(max_total), the step gathers the m terms
rho d q(v - k d), q(w) = p(w) / S, of the classes with d <= v, forms their
cumsum, and searches x = u / S in it; inside the chosen (class, k) term
the weight is the floor of the remaining offset over d q(w).  Every
quotient is a correctly rounded int / int division, and x < v because p
never decreases (the trivial module has dimension 1), so nothing
overflows.  All terms are positive, so each difference the screen compares
is within gamma_{m+6} V + (m + 2)(c + 1) 2^-1075 of its exact value, where
V = v p(v) / S is the exact total, c bounds d rho, and
gamma_j = j 2^-53 / (1 - j 2^-53) (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, Lemma 3.1): q, the product by d rho and the
m - 1 additions of a cumsum entry make m + 1 roundings, x one, the offset
of x from the start of its term one, and the weight boundary j fl(d q)
three; the second term covers underflow, at most half the smallest
subnormal per rounded product.  The screen answers only when x and the
offset lie more than twice that bound from every boundary they fall
between, which proves its answer equal to the exact one; otherwise the
step returns `_pick_term`'s answer.  Both routes consume the same u, so
seeded streams do not depend on which one settles a step.  The floats of
q and the class arrays are built once per table; the m terms, floor(v / d)
for each class with d <= v, are gathered at each visited v, so memory
stays O(n).
"""

from __future__ import annotations

import random
from typing import NamedTuple

import numpy as np

from .census import _U, IrrepCensus, enumerate_irreps

_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_CAP = 1 << 62  # limbs below this take a normalization's carries in int64
_MAX_TOTAL = 1 << 31  # the no-overflow proof needs (2^31 - 1)(n + 1) < 2^62
_TINY = 2.0 ** -1074  # smallest positive float64


class Representation:
    """Multiset of irreducibles: mult[i] copies of the weight in census row
    rows[i]; rows sorted and distinct, mult positive, both int64.  Equal
    only to itself."""

    def __init__(self, census: IrrepCensus, rows: np.ndarray, mult: np.ndarray):
        self.census = census
        self.rows = rows
        self.mult = mult

    @classmethod
    def from_rows(cls, census: IrrepCensus, rows, mult) -> "Representation":
        """rows in any order; a repeated row adds up, a zero total is dropped."""
        rows, inverse = np.unique(np.asarray(rows, dtype=np.int64),
                                  return_inverse=True)
        total = np.zeros(rows.size, dtype=np.int64)
        np.add.at(total, inverse, np.asarray(mult, dtype=np.int64))
        return cls(census, rows[total > 0], total[total > 0])

    @property
    def rank(self) -> int:
        return self.census.rank

    def weights(self) -> np.ndarray:
        return self.census.weights[self.rows]

    def dims(self) -> np.ndarray:
        """Each component's dimension, the entry of its census class."""
        c = self.census
        return c.dims[np.searchsorted(c.cumulative, self.rows, side="right")]

    def total_dim(self) -> int:
        return int(self.dims() @ self.mult)

    def num_irreps(self) -> int:
        return int(self.mult.sum())

    def components(self) -> list:
        """(weight tuple, multiplicity) pairs in lexicographic weight order."""
        table = np.column_stack([self.weights(), self.mult])
        table = table[np.lexsort(table[:, -2::-1].T)].tolist()
        return [(tuple(row[:-1]), row[-1]) for row in table]


class CountTable:
    """counts[v] = number of representations of total dimension v; counts[0] = 1."""

    def __init__(self, rank: int, max_total: int, counts: list, census: IrrepCensus):
        self.rank = rank
        self.max_total = max_total
        self.counts = counts
        self.census = census
        self._screen = None  # the sampler's `_Screen`, built on first use


def _classes(census, n):
    """(dimension, number of weights) for every dimension class up to n."""
    return [(int(d), int(rho)) for d, rho in zip(census.dims, census.counts)
            if d <= n]


def count_representations(r: int, n: int) -> CountTable:
    """Exact table of representation counts for totals 0..n.

    Multiplies out prod_d (1 - t^d)^(-rho(d)) on int64 limbs of radix 2^31
    with lazy carries (see the module docstring for the no-overflow
    argument); `counts` is a list of Python ints.
    """
    if n >= _MAX_TOTAL:
        raise ValueError(f"count table needs n < 2^31 for its int64 limbs "
                         f"to provably not overflow, got {n}")
    if n < 0:
        raise ValueError(f"total dimension must be >= 0, got {n}")
    census = enumerate_irreps(r, max(n, 1))
    p = np.zeros((n + 1, 1), dtype=np.int64)
    p[0, 0] = 1
    bound = 1  # every limb of p is at most bound
    for d, rho in _classes(census, n):
        m = n // d + 1
        whole = n + 1 - d  # blocks starting below row `whole` are d rows long
        for _ in range(rho):
            if bound * m >= _LIMB_CAP:
                p = _normalize(p)
                bound = _LIMB_MASK
            # in-place multiplication by 1/(1 - t^d), one block of d rows at a time
            j = d
            while j < whole:
                p[j:j + d] += p[j - d:j]
                j += d
            p[j:] += p[j - d:whole]
            bound *= m
    counts = p[:, -1].astype(object)
    for i in range(p.shape[1] - 2, -1, -1):
        counts = (counts << _LIMB_BITS) + p[:, i].astype(object)
    return CountTable(rank=r, max_total=n, counts=counts.tolist(), census=census)


def _normalize(p):
    """Ripple the carries of the limb array p up, so every limb is below
    2^31; limbs are appended while the top one carries."""
    for i in range(p.shape[1] - 1):
        p[:, i + 1] += p[:, i] >> _LIMB_BITS
        p[:, i] &= _LIMB_MASK
    while True:
        top = p[:, -1] >> _LIMB_BITS
        if not top.any():
            return p
        p[:, -1] &= _LIMB_MASK
        p = np.concatenate([p, top[:, None]], axis=1)


def counts_excluding_one_weight(table: CountTable, a: int) -> list:
    """Counts with one designated weight of dimension a removed from the
    alphabet: g(v) = p(v) - p(v - a), exact for every v."""
    if a < 1:
        raise ValueError(f"dimension must be >= 1, got {a}")
    p = table.counts
    return [p[v] - (p[v - a] if v >= a else 0) for v in range(len(p))]


def _pick_term(classes, p, v, u):
    """Census row of the weight, step k and dimension d of the Euler-identity
    term at v whose block of integers holds u, for 0 <= u < v p(v).

    classes pairs each (dimension, number of weights) with the census row
    of the class's first weight."""
    for (d, rho), first in classes:
        if d > v:
            break
        for k in range(1, v // d + 1):
            block = d * p[v - k * d]
            if u < rho * block:
                return first + u // block, k, d
            u -= rho * block
    raise ArithmeticError(f"Euler identity fails at total {v}")


def _gamma(m):
    """gamma_m = m u / (1 - m u), u = 2^-53: the relative error of m
    roundings of positive quantities; infinite once m u reaches 1."""
    mu = m * _U
    return mu / (1.0 - mu) if mu < 1.0 else np.inf


class _Screen(NamedTuple):
    """What `_screen_term` reads, built once per count table.

    scale        p(max_total), the one denominator of every float here
    q            q[w] = p(w) / scale, correctly rounded
    dims, rho    dimension and number of weights of each class up to max_total
    first        census row of each class's first weight
    coef         d rho of each class, exact in float64
    coef_max     the largest d rho, as an int
    classes      the same classes in the form `_pick_term` reads
    """

    scale: int
    q: np.ndarray
    dims: np.ndarray
    rho: np.ndarray
    first: np.ndarray
    coef: np.ndarray
    coef_max: int
    classes: list

    @classmethod
    def of(cls, table: CountTable) -> "_Screen":
        if table._screen is None:
            census, n = table.census, table.max_total
            keep = census.dims <= n
            dims, rho = census.dims[keep], census.counts[keep]
            first = (census.cumulative - census.counts)[keep]
            coef = dims * rho
            scale = table.counts[n]
            table._screen = cls(
                scale=scale, q=np.array([c / scale for c in table.counts]),
                dims=dims, rho=rho, first=first, coef=coef.astype(float),
                coef_max=int(coef.max(initial=0)),
                classes=list(zip(_classes(census, n), first.tolist())))
        return table._screen


def _screen_term(screen: _Screen, p, v, u):
    """`_pick_term(screen.classes, p, v, u)` read from floats, or None when
    rounding might change the answer (module docstring)."""
    c = int(np.searchsorted(screen.dims, v, side="right"))
    dims = screen.dims[:c]
    lens = v // dims  # class i has the terms k = 1..lens[i]
    ends = np.cumsum(lens)
    m = int(ends[-1])
    # w = v - k d in term order: a cumsum of d steps restarted at each class
    step = np.repeat(dims, lens)
    step[ends[:-1]] -= (lens * dims)[:-1]
    w = v - np.cumsum(step)
    cum = np.cumsum(np.repeat(screen.coef[:c], lens) * screen.q[w])
    x = u / screen.scale
    margin = (2.0 * _gamma(m + 6) * (v * p[v] / screen.scale)
              + (m + 2) * (screen.coef_max + 1) * _TINY)
    t = int(np.searchsorted(cum, x, side="right"))
    if t == m:
        return None
    offset = x - float(cum[t - 1]) if t else x  # the first term starts at 0
    if not ((not t or offset > margin) and float(cum[t]) - x > margin):
        return None
    i = int(np.searchsorted(ends, t, side="right"))
    k = t + 1 - int(ends[i] - lens[i])
    d, rho = int(dims[i]), int(screen.rho[i])
    j = 0
    if rho > 1:
        width = d * float(screen.q[v - k * d])  # one weight's share of the term
        if width <= margin:
            return None
        j = min(int(offset // width), rho - 1)
        if not (offset - j * width > margin
                and (j + 1 == rho or (j + 1) * width - offset > margin)):
            return None
    return int(screen.first[i]) + j, k, d


def uniform_sample(table: CountTable, n: int, rng: random.Random) -> Representation:
    """Exactly uniform representation of total dimension n.

    Raises ValueError when no representation of dimension n exists.
    """
    if not 0 <= n <= table.max_total:
        raise ValueError(f"total {n} outside table range [0, {table.max_total}]")
    p = table.counts
    if p[n] == 0:
        raise ValueError(f"no representation has total dimension {n}")
    screen = _Screen.of(table)
    rows, mult = [], []  # a row drawn twice adds up its steps
    v = n
    while v:
        u = rng.randrange(v * p[v])
        row, k, d = (_screen_term(screen, p, v, u)
                     or _pick_term(screen.classes, p, v, u))
        rows.append(row)
        mult.append(k)
        v -= k * d
    return Representation.from_rows(table.census, rows, mult)

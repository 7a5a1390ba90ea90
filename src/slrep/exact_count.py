"""Exact counting and exact-uniform sampling of sl_{r+1} representations.

A representation of total dimension n is a multiset of irreducible modules
whose dimensions add to n, i.e. a finitely supported multiplicity function
on highest weights.  Writing rho(d) for the number of weights of dimension
d, the counting generating function is prod_d (1 - t^d)^(-rho(d)), and its
logarithmic derivative gives the Euler identity

    n p(n) = sum_d sum_{k>=1} d rho(d) p(n - k d)
           = sum_{j=1..n} sigma(j) p(n - j),  sigma(j) = sum_{d | j} d rho(d),

the second form grouping the terms by the dimension j = k d they remove
(d runs over the classes whose dimension divides j).

`count_representations` fills its table by multiplying the product out,
one factor 1/(1 - t^d) per weight, the classes in ascending dimension.  The
table is an (n + 1, L) int64 array: row v holds p(v) in L limbs of radix
2^31, least significant first, p(v) = sum_i limb_i 2^(31 i).  A factor is
the in-place recurrence p[v] += p[v - d]: one prefix sum over the blocks
of d rows where the (n + 1) // d blocks outnumber the d rows of one,
otherwise one vectorized add per block, `p[j:j+d] += p[j-d:j]`.  Carries
are lazy: limbs are added limb by limb, and a pass makes each entry a sum
of at most m = n // d + 1 old entries.  So a pass first reads the largest
limb M, and when M m reaches 2^62 one carry round comes first: each limb
keeps its low 31 bits and hands the rest, below 2^31, to the next limb, a
new top limb taking the top one's carries.  Every limb then ends below
2^32, and a pass leaves it below 2^32 (n + 1) <= 2^62 as long as n < 2^30;
`count_representations` refuses larger n, whose table would need 8 GiB
per limb.  At the end every row becomes a Python int.  The same class loop
sieves sigma in int64: sigma(j) <= j R(j), where R(j) counts the weights
of dimension at most j, fewer than the census cap MAX_WEIGHTS < 2^26, so
sigma(j) < 2^30 2^26 = 2^56.

`uniform_sample` draws an exactly uniform representation of dimension n by
the recursive method (Nijenhuis & Wilf, Combinatorial Algorithms, 1978):
read the Euler identity at v as a law on its terms, pick one weight of
dimension d and a step k with probability d p(v - k d) / (v p(v)), add k to
that weight's multiplicity and go on at v - k d.  It reads only the count
table.  All randomness comes from `random.Random`, whose big-int randrange
keeps the draw exact at any table size: each step draws u uniform in
[0, v p(v)) and scans j = 1, 2, ... in exact integers until u falls in the
block of sigma(j) p(v - j) integers that the j-grouped identity gives j.
Then w = u // p(v - j) lies in [0, sigma(j)); the classes d | j, in
ascending d, give each of their weights d consecutive values of w, and
k = j / d.  So each weight of class d takes d p(v - k d) values of u, its
term of the identity, and every step has the recursive method's law.

The scan is short because the blocks fall off fast: p(v - j) / p(v) decays
like e^(-beta j), beta the saddle point of the product at v, while sigma(j)
grows only like a power of j.  So a step ends after about 1 / beta values
of j on average, about a hundred at n = 10^4 at ranks 1 and 2, however
many classes there are; in class order the terms number
sum_{d <= v} floor(v / d).  A step reads sigma and the counts at indices
0..v only.
"""

from __future__ import annotations

import operator
import random

import numpy as np

from .census import IrrepCensus, enumerate_irreps

_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_LIMB_CAP = 1 << 62  # limbs below this take a carry round's carries in int64
_MAX_TOTAL = 1 << 30  # the no-overflow proof needs 2^32 (n + 1) <= 2^62


class Representation:
    """Multiset of irreducibles: mult[i] copies of the weight in census row
    rows[i]; rows sorted and distinct, mult positive, both int64.  Equal
    only to itself."""

    def __init__(self, census: IrrepCensus, rows: np.ndarray, mult: np.ndarray):
        self.census = census
        self.rows = rows
        self.mult = mult

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
        """Exact at any size: the sum is taken in Python ints."""
        return sum(map(operator.mul, self.dims().tolist(), self.mult.tolist()))

    def num_irreps(self) -> int:
        return int(self.mult.sum())

    def components(self) -> list:
        """(weight tuple, multiplicity) pairs in lexicographic weight order."""
        table = np.column_stack([self.weights(), self.mult])
        table = table[np.lexsort(table[:, -2::-1].T)].tolist()
        return [(tuple(row[:-1]), row[-1]) for row in table]


class CountTable:
    """counts[v] = number of representations of total dimension v; counts[0] = 1.

    sigma[j] = sum of d rho(d) over the classes whose dimension d divides j,
    sigma[0] = 0; classes lists (d, rho(d), census row of the class's first
    weight) for every class with d <= max_total, in ascending d.  Both hold
    Python ints, and every sampler step reads them; the rank is the census's."""

    def __init__(self, counts: list, census: IrrepCensus, sigma: list, classes: list):
        self.counts = counts
        self.census = census
        self.sigma = sigma
        self.classes = classes

    @property
    def rank(self) -> int:
        return self.census.rank

    @property
    def max_total(self) -> int:
        return len(self.counts) - 1


def count_representations(r: int, n: int) -> CountTable:
    """Exact table of representation counts for totals 0..n.

    Multiplies out prod_d (1 - t^d)^(-rho(d)) on int64 limbs of radix 2^31
    with lazy carries, and sieves sigma in the same class loop (see the
    module docstring for both no-overflow arguments); `counts` and `sigma`
    are lists of Python ints.
    """
    if n >= _MAX_TOTAL:
        raise ValueError(f"count table needs n < 2^30 for its int64 limbs "
                         f"to provably not overflow, got {n}")
    if n < 0:
        raise ValueError(f"total dimension must be >= 0, got {n}")
    census = enumerate_irreps(r, max(n, 1))
    keep = census.dims <= n
    classes = list(zip(census.dims[keep].tolist(), census.counts[keep].tolist(),
                       (census.cumulative - census.counts)[keep].tolist()))
    sigma = np.zeros(n + 1, dtype=np.int64)
    p = np.zeros((n + 1, 1), dtype=np.int64)
    p[0, 0] = 1
    for d, rho, _ in classes:
        sigma[d::d] += d * rho
        m = n // d + 1
        blocks = (n + 1) // d
        for _ in range(rho):
            if int(p.max()) * m >= _LIMB_CAP:
                p = _normalize(p)
            if blocks > d:
                v = p[:blocks * d].reshape(blocks, d, -1)
                np.add.accumulate(v, axis=0, out=v)
                p[blocks * d:] += p[(blocks - 1) * d:n + 1 - d]
            else:
                for j in range(d, n + 1, d):
                    p[j:j + d] += p[j - d:min(j, n + 1 - d)]
    counts = p[:, -1].astype(object)
    for i in range(p.shape[1] - 2, -1, -1):
        counts = (counts << _LIMB_BITS) + p[:, i].astype(object)
    return CountTable(counts=counts.tolist(), census=census, sigma=sigma.tolist(),
                      classes=classes)


def _normalize(p):
    """One carry round on the limb array p, whose limbs are below 2^62:
    every limb ends below 2^32, and the top limb's carries become a new
    limb when any is nonzero."""
    carry = p >> _LIMB_BITS
    p &= _LIMB_MASK
    p[:, 1:] += carry[:, :-1]
    if carry[:, -1].any():
        p = np.concatenate([p, carry[:, -1:]], axis=1)
    return p


def counts_excluding_one_weight(table: CountTable, a: int) -> list:
    """Counts with one designated weight of dimension a removed from the
    alphabet: g(v) = p(v) - p(v - a), exact for every v."""
    if a < 1:
        raise ValueError(f"dimension must be >= 1, got {a}")
    p = table.counts
    return [p[v] - (p[v - a] if v >= a else 0) for v in range(len(p))]


def _pick_term(table: CountTable, v: int, u: int):
    """Census row of the weight, step k and dimension d of the Euler-identity
    term at v whose block of integers holds u, for 0 <= u < v p(v): the
    blocks of j = 1, 2, ... in turn, then the weights of the classes d | j
    (module docstring)."""
    p, sigma = table.counts, table.sigma
    for j in range(1, v + 1):
        block = sigma[j] * p[v - j]
        if u < block:
            w = u // p[v - j]
            for d, rho, first in table.classes:
                if d > j:
                    break
                if j % d == 0:
                    if w < d * rho:
                        return first + w // d, j // d, d
                    w -= d * rho
            break
        u -= block
    raise ArithmeticError(f"Euler identity fails at total {v}")


def uniform_sample(table: CountTable, n: int, rng: random.Random) -> Representation:
    """Exactly uniform representation of total dimension n.

    Raises ValueError when no representation of dimension n exists.
    """
    if not 0 <= n <= table.max_total:
        raise ValueError(f"total {n} outside table range [0, {table.max_total}]")
    p = table.counts
    if p[n] == 0:
        raise ValueError(f"no representation has total dimension {n}")
    mult = {}  # census row -> multiplicity: a row drawn twice adds up its steps
    v = n
    while v:
        row, k, d = _pick_term(table, v, rng.randrange(v * p[v]))
        mult[row] = mult.get(row, 0) + k
        v -= k * d
    rows = sorted(mult)
    return Representation(table.census, np.array(rows, dtype=np.int64),
                          np.array([mult[row] for row in rows], dtype=np.int64))

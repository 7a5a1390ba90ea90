"""Exact counting and exact-uniform sampling of sl_{r+1} representations.

A representation of total dimension n is a multiset of irreducible modules
whose dimensions add to n, i.e. a finitely supported multiplicity function
on highest weights.  Writing rho(d) for the number of weights of dimension
d, the counting generating function is prod_d (1 - t^d)^(-rho(d)), and its
logarithmic derivative gives the Euler identity

    n p(n) = sum_d sum_{k>=1} d rho(d) p(n - k d).

`count_representations` fills its table by multiplying the product out,
one factor 1/(1 - t^d) per weight.  `count_by_recurrence` runs the Euler
identity as a recurrence instead (exact integers, the division by n never
leaves a remainder); it is the independent oracle the tests compare the
table with, coefficient for coefficient.

`uniform_sample` draws an exactly uniform representation of dimension n by
the recursive method (Nijenhuis & Wilf, Combinatorial Algorithms, 1978):
read the Euler identity at v as a law on its terms, pick one weight of
dimension d and a step k with probability d p(v - k d) / (v p(v)), add k to
that weight's multiplicity and go on at v - k d.  It reads only the count
table.  All randomness comes from `random.Random`, whose big-int randrange
keeps the draw exact at any table size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .census import IrrepCensus, enumerate_irreps
from .weights import dim_irrep


@dataclass
class Representation:
    """Multiset of highest weights; mult maps weight tuple -> multiplicity."""

    rank: int
    mult: dict

    def total_dim(self) -> int:
        return sum(dim_irrep(self.rank, k) * x for k, x in self.mult.items())

    def num_irreps(self) -> int:
        return sum(self.mult.values())


@dataclass
class CountTable:
    """counts[v] = number of representations of total dimension v; counts[0] = 1."""

    rank: int
    max_total: int
    counts: list
    census: IrrepCensus


def _census_for(r, n, census, keep_weights):
    if n < 0:
        raise ValueError(f"total dimension must be >= 0, got {n}")
    if census is None:
        return enumerate_irreps(r, max(n, 1), keep_weights=keep_weights)
    if census.max_dim < n:
        raise ValueError(f"census cutoff {census.max_dim} below requested total {n}")
    if census.rank != r:
        raise ValueError(f"census has rank {census.rank}, expected {r}")
    return census


def _classes(census, n):
    """(dimension, number of weights) for every dimension class up to n."""
    return [(int(d), int(rho)) for d, rho in zip(census.dims, census.counts)
            if d <= n]


def count_representations(r: int, n: int, census: IrrepCensus | None = None) -> CountTable:
    """Exact table of representation counts for totals 0..n."""
    census = _census_for(r, n, census, keep_weights=True)
    p = [1] + [0] * n
    for d, rho in _classes(census, n):
        for _ in range(rho):
            # in-place multiplication by 1/(1 - t^d)
            for v in range(d, n + 1):
                p[v] += p[v - d]
    return CountTable(rank=r, max_total=n, counts=p, census=census)


def count_by_recurrence(r: int, n: int, census: IrrepCensus | None = None) -> list:
    """Second exact route: the counts by the Euler-identity recurrence."""
    census = _census_for(r, n, census, keep_weights=False)

    # c[j] = sum of d*rho(d) over divisors d <= n of j, by sieving
    c = [0] * (n + 1)
    for d, rho in _classes(census, n):
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


def counts_excluding_one_weight(table: CountTable, a: int) -> list:
    """Counts with one designated weight of dimension a removed from the
    alphabet: g(v) = p(v) - p(v - a), exact for every v."""
    if a < 1:
        raise ValueError(f"dimension must be >= 1, got {a}")
    p = table.counts
    return [p[v] - (p[v - a] if v >= a else 0) for v in range(len(p))]


def _pick_term(classes, p, v, u):
    """Weight, step k and dimension d of the Euler-identity term at v whose
    block of integers holds u, for 0 <= u < v p(v)."""
    for (d, rho), group in classes:
        if d > v:
            break
        for k in range(1, v // d + 1):
            block = d * p[v - k * d]
            if u < rho * block:
                return group[u // block], k, d
            u -= rho * block
    raise ArithmeticError(f"Euler identity fails at total {v}")


def uniform_sample(table: CountTable, n: int, rng: random.Random) -> Representation:
    """Exactly uniform representation of total dimension n.

    Raises ValueError when no representation of dimension n exists or the
    table's census was built without weights.
    """
    if not 0 <= n <= table.max_total:
        raise ValueError(f"total {n} outside table range [0, {table.max_total}]")
    if table.counts[n] == 0:
        raise ValueError(f"no representation has total dimension {n}")
    census = table.census
    if census.weights is None:
        raise ValueError("uniform sampling needs a census built with keep_weights=True")
    classes = list(zip(_classes(census, n), census.weights))
    mult = {}
    v = n
    while v:
        weight, k, d = _pick_term(classes, table.counts, v,
                                  rng.randrange(v * table.counts[v]))
        mult[weight] = mult.get(weight, 0) + k
        v -= k * d
    return Representation(rank=table.rank, mult=mult)

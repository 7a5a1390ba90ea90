"""Exact representation counting and exactly uniform sampling."""

import hashlib
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from scipy.stats import chisquare

from slrep import exact_count
from slrep.census import enumerate_irreps
from slrep.exact_count import (
    Representation,
    count_representations,
    counts_excluding_one_weight,
    uniform_sample,
)
from slrep.weights import dim_irrep

from oracles import count_by_recurrence, partitions_by_pentagonal_recurrence, representation

# p(10^4) at rank 2, the CLI's exact-counting cap
COUNT_R2_10000 = 77286174609560949994788618084033615667449698306709202996900417272344870000

# sha256 of ",".join(map(str, counts)) for the table of totals 0..10^4
COUNT_DIGESTS_10000 = {
    1: "47bcead18dd7cb418228880c94df90188ffd68dc3240ee0fafa729d83b20ad62",
    2: "a96b5c1aca0e82d1470f701d5bf95436575a6f35d29b0a8d3faa51af6e51a3d5",
    3: "19abc704430d3da897e34808344ebea07bbf4dde4ab1ea155012c381aaa130b6",
    6: "81b518b5b52ab51a3b5af21373dfb32d13b6685757225b7e0bc50a4a3cef5bf5",
}


def partition_numbers(n):
    """Coin-change oracle: partitions of 0..n into parts 1..n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for v in range(part, n + 1):
            p[v] += p[v - part]
    return p


def enumerate_reps(r, n):
    """All multisets of weights with total dimension exactly n, brute force.

    Returns canonical frozensets of (weight, multiplicity) pairs."""
    census = enumerate_irreps(r, max(n, 1))
    flat = list(zip(map(tuple, census.weights.tolist()),
                    np.repeat(census.dims, census.counts).tolist()))
    out = []

    def go(i, left, acc):
        if left == 0:
            out.append(frozenset(acc))
            return
        if i == len(flat):
            return
        k, d = flat[i]
        go(i + 1, left, acc)
        c = 1
        while c * d <= left:
            go(i + 1, left - c * d, acc + [(k, c)])
            c += 1

    go(0, n, [])
    return out


def canonical(rep):
    return frozenset(rep.components())


def test_rank_one_counts_are_partition_numbers():
    table = count_representations(1, 50)
    assert table.counts == partition_numbers(50)
    assert table.counts[:7] == [1, 1, 2, 3, 5, 7, 11]


def test_rank_one_counts_follow_the_pentagonal_recurrence():
    # rank 1 is integer partitions: the table matches Euler's recurrence,
    # which reads no census, entry by entry up to the exact-counting cap
    table = count_representations(1, 10**4)
    assert table.counts == partitions_by_pentagonal_recurrence(10**4)
    assert table.counts[100] == 190569292


def test_rank_two_small_counts_pinned():
    table = count_representations(2, 10)
    assert table.counts[1:9] == [1, 1, 3, 3, 3, 8, 8, 9]
    assert table.counts[10] == 19


def test_counts_match_multiset_enumeration():
    for r in (2, 3):
        table = count_representations(r, 12)
        for n in range(13):
            assert table.counts[n] == len(enumerate_reps(r, n))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_recurrence_equals_truncated_product(r):
    table = count_representations(r, 120)
    assert count_by_recurrence(r, 120) == table.counts


def count_carry_rounds(monkeypatch):
    """Record the limb count of the table at each carry round."""
    calls = []
    normalize = exact_count._normalize

    def counted(p):
        calls.append(p.shape[1])
        return normalize(p)

    monkeypatch.setattr(exact_count, "_normalize", counted)
    return calls


@pytest.mark.parametrize("r, n", [(1, 1000), (2, 1500), (3, 2000), (4, 3000)])
def test_limb_table_equals_recurrence(r, n, monkeypatch):
    # sizes whose counts outgrow one 62-bit limb, so the table runs carry
    # rounds and appends limbs on the way
    calls = count_carry_rounds(monkeypatch)
    table = count_representations(r, n)
    assert len(calls) >= 2 and calls[-1] > calls[0]  # limbs were appended
    assert table.counts[n].bit_length() > exact_count._LIMB_BITS
    assert table.counts == count_by_recurrence(r, n)


@pytest.mark.parametrize("r, n", [(1, 1000), (2, 1500)])
def test_table_is_exact_when_every_pass_carries(r, n, monkeypatch):
    # with the cap at 2^36 nearly every pass runs a carry round first;
    # limbs below 2^32 times m <= 1501 entries stay far inside int64
    monkeypatch.setattr(exact_count, "_LIMB_CAP", 1 << 36)
    calls = count_carry_rounds(monkeypatch)
    table = count_representations(r, n)
    assert len(calls) >= 100 and calls[-1] > calls[0]
    assert table.counts == count_by_recurrence(r, n)


def test_normalize_at_the_limb_bound():
    # the largest limbs a pass may leave carry in one round without int64
    # overflow: every limb ends below 2^32, the top carries become a limb
    top = exact_count._LIMB_CAP - 1
    p = np.full((3, 2), top, dtype=np.int64)
    q = exact_count._normalize(p)
    assert q.shape[1] == 3
    assert (q >= 0).all() and (q < 1 << 32).all()
    value = top + (top << exact_count._LIMB_BITS)
    for row in q:
        assert sum(int(x) << (exact_count._LIMB_BITS * i)
                   for i, x in enumerate(row)) == value


def test_smallest_tables():
    assert count_representations(2, 0).counts == [1]
    assert count_representations(2, 1).counts == [1, 1]
    assert count_representations(1, 1).counts == [1, 1]
    # the rank and the largest total are read off the census and the counts
    table = count_representations(3, 0)
    assert (table.rank, table.max_total) == (3, 0)
    assert set(vars(table)) == {"counts", "census", "sigma", "classes"}


def test_counts_are_python_ints():
    # the sampler's randrange(v * p[v]) and the CLI's str() need exact ints
    counts = count_representations(2, 1500).counts
    assert isinstance(counts, list)
    assert all(type(c) is int for c in counts)


def test_count_at_the_exact_cap_is_pinned():
    assert count_representations(2, 10**4).counts[-1] == COUNT_R2_10000


@pytest.mark.parametrize("r", sorted(COUNT_DIGESTS_10000))
def test_whole_table_at_the_exact_cap_is_pinned(r):
    counts = count_representations(r, 10**4).counts
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
    assert digest == COUNT_DIGESTS_10000[r]


def test_count_rejects_negative_total():
    with pytest.raises(ValueError):
        count_representations(2, -1)


def test_count_refuses_totals_beyond_the_limb_proof(monkeypatch):
    # the int64 limbs are proven not to overflow only for n < 2^30; the
    # refusal comes before any census or table is built
    def never(*args, **kwargs):
        raise AssertionError("census built for a refused total")

    monkeypatch.setattr(exact_count, "enumerate_irreps", never)
    with pytest.raises(ValueError, match="2\\^30"):
        count_representations(2, 2**30)


@pytest.mark.parametrize("a", [1, 3, 6])
def test_excluded_weight_counts_resum_to_totals(a):
    # removing one weight of dimension a and resumming its geometric layers
    # must reproduce the full counts: sum_l g(n - l a) = p(n)
    table = count_representations(2, 60)
    g = counts_excluding_one_weight(table, a)
    for n in range(61):
        assert sum(g[n - ell * a] for ell in range(n // a + 1)) == table.counts[n]


def test_excluded_weight_validation():
    table = count_representations(2, 10)
    with pytest.raises(ValueError):
        counts_excluding_one_weight(table, 0)


def test_representation_accessors():
    rep = representation(2, {(2, 1): 1, (1, 1): 2})
    assert rep.total_dim() == 5
    assert rep.num_irreps() == 3
    assert rep.rank == 2
    assert rep.components() == [((1, 1), 2), ((2, 1), 1)]
    empty = representation(2, {})
    assert empty.total_dim() == 0
    assert empty.num_irreps() == 0
    assert empty.components() == []


def test_uniform_sample_adds_up_a_repeated_row():
    # a draw of 0 takes the first term of the Euler identity at every step,
    # the trivial module with k = 1, so its five steps add up to one row
    class FirstTerm:
        def randrange(self, stop):
            return 0

    rep = uniform_sample(count_representations(2, 5), 5, FirstTerm())
    assert rep.components() == [((1, 1), 5)]
    assert rep.rows.tolist() == [0] and rep.mult.tolist() == [5]


def test_total_dim_is_exact_past_2_to_the_63():
    # dimension 4 (row 3 at rank 1) 2^62 times: an int64 dot product reads 0
    rep = Representation(enumerate_irreps(1, 4), np.array([3]), np.array([2**62]))
    assert rep.total_dim() == 2**64
    # 2^63 - 1 fits int64, but above 2^62 the float sum proves nothing
    rep = Representation(enumerate_irreps(1, 4), np.array([0, 1]),
                         np.array([2**62 - 1, 2**61]))
    assert rep.total_dim() == 2**63 - 1


@pytest.mark.parametrize("r, n", [(2, 4), (3, 12)])
def test_uniform_sample_hits_every_class_uniformly(r, n):
    table = count_representations(r, n)
    classes = set(enumerate_reps(r, n))
    assert len(classes) == table.counts[n]
    rng = random.Random(11)
    seen = Counter(canonical(uniform_sample(table, n, rng))
                   for _ in range(1000 * len(classes)))
    assert set(seen) == classes
    _, pvalue = chisquare(list(seen.values()))
    assert pvalue > 1e-3


def test_uniform_sample_total_dimension_is_exact():
    table = count_representations(2, 30)
    rng = random.Random(12)
    for _ in range(50):
        rep = uniform_sample(table, 30, rng)
        assert rep.total_dim() == 30
        # each component's census dimension is its Weyl dimension
        assert rep.dims().tolist() == [dim_irrep(2, k) for k in rep.weights().tolist()]
        assert max(rep.dims()) <= 30


def test_uniform_sample_is_seed_deterministic():
    table = count_representations(2, 25)
    a = [canonical(uniform_sample(table, 25, random.Random(77))) for _ in range(5)]
    b = [canonical(uniform_sample(table, 25, random.Random(77))) for _ in range(5)]
    assert a == b


def test_uniform_sample_edge_cases():
    table = count_representations(2, 12)
    assert uniform_sample(table, 0, random.Random(1)).components() == []
    with pytest.raises(ValueError):
        uniform_sample(table, 13, random.Random(1))


def step_key(table, v, u):
    """(census row, k) of the sampler's step at v for the draw u."""
    return exact_count._pick_term(table, v, u)[:2]


def step_law(table, v):
    """How many u in [0, v p(v)) the sampler's step maps to each
    (census row, k), every u tried."""
    return Counter(step_key(table, v, u) for u in range(v * table.counts[v]))


def euler_terms(table, v):
    """The Euler-identity term d p(v - k d) of each (census row, k) at v,
    read from the census in class order."""
    census, p = table.census, table.counts
    terms = {}
    for d, rho, end in zip(census.dims.tolist(), census.counts.tolist(),
                           census.cumulative.tolist()):
        for k in range(1, v // d + 1):
            for row in range(end - rho, end):
                terms[row, k] = d * p[v - k * d]
    return terms


@pytest.mark.parametrize("r, n", [(1, 20), (2, 26), (3, 34), (4, 40)])
def test_step_law_is_the_euler_identity(r, n):
    # every u of every step: each (weight, k) of class d takes exactly
    # d p(v - k d) of the v p(v) values, the recursive method's law
    table = count_representations(r, n)
    for v in range(1, n + 1):
        assert step_law(table, v) == euler_terms(table, v), v


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sigma_groups_the_euler_identity(r):
    # v p(v) = sum_j sigma(j) p(v - j), with sigma(j) the sum of d rho(d)
    # over the classes whose dimension divides j
    table = count_representations(r, 200)
    p, sigma = table.counts, table.sigma
    assert sigma[0] == 0
    for v in range(201):
        assert sum(sigma[j] * p[v - j] for j in range(1, v + 1)) == v * p[v]


def scan_blocks(table, v):
    """(starts, keys): the blocks of integers the step at v scans, built
    from the census.  The (weight, k) terms are ordered by the dimension
    j = k d they remove, then by d, then by row; the block of keys[i] is
    [starts[i], starts[i + 1]), d p(v - j) integers long."""
    census, p = table.census, table.counts
    terms = sorted((k * d, d, row)
                   for d, rho, end in zip(census.dims.tolist(), census.counts.tolist(),
                                          census.cumulative.tolist()) if d <= v
                   for k in range(1, v // d + 1) for row in range(end - rho, end))
    starts = list(accumulate((d * p[v - j] for j, d, _ in terms), initial=0))
    assert starts[-1] == v * p[v]  # the Euler identity
    return starts, [(row, j // d) for j, d, row in terms]


@pytest.mark.parametrize("r, n", [(1, 40), (2, 60), (3, 60)])
def test_step_at_every_block_boundary(r, n):
    # the first and the last u of every block, where an off-by-one
    # comparison in the scan or the class walk would pick a neighbour
    table = count_representations(r, n)
    for v in range(1, n + 1):
        starts, keys = scan_blocks(table, v)
        for i, key in enumerate(keys):
            assert step_key(table, v, starts[i]) == key, (v, i)
            assert step_key(table, v, starts[i + 1] - 1) == key, (v, i)


def test_step_near_boundaries_of_large_counts():
    # at (2, 2000) blocks hold up to about 10^34 integers: both sides of
    # sampled boundaries, and random draws, land in the block that holds them
    table = count_representations(2, 2000)
    rng = random.Random(2024)
    for _ in range(40):
        v = rng.randrange(1000, 2001)
        starts, keys = scan_blocks(table, v)
        for i in rng.sample(range(1, len(keys)), 10):
            assert step_key(table, v, starts[i] - 1) == keys[i - 1]
            assert step_key(table, v, starts[i]) == keys[i]
            assert step_key(table, v, starts[i + 1] - 1) == keys[i]
        for u in (rng.randrange(v * table.counts[v]) for _ in range(75)):
            assert step_key(table, v, u) == keys[bisect_right(starts, u) - 1]


def test_one_table_serves_every_total():
    # sigma and the class list are built with the counts; sampling reads
    # them and changes nothing, at every total up to the table's maximum
    table = count_representations(2, 40)
    sigma, classes = list(table.sigma), list(table.classes)
    uniform_sample(table, 40, random.Random(1))
    rep = uniform_sample(table, 30, random.Random(2))
    assert table.sigma == sigma and table.classes == classes
    assert rep.total_dim() == 30


class _FixedDraw:
    """Stands in for random.Random: randrange(x) returns pick(x)."""

    def __init__(self, pick):
        self.randrange = pick


def test_a_table_that_breaks_the_identity_raises():
    # one count too many: the last u lies beyond every block of the scan
    table = count_representations(2, 20)
    table.counts[20] += 1
    with pytest.raises(ArithmeticError):
        uniform_sample(table, 20, _FixedDraw(lambda x: x - 1))
    # sigma(1) one too large: w = 1 in the block of j = 1 finds no class
    table = count_representations(2, 20)
    table.sigma[1] += 1
    with pytest.raises(ArithmeticError):
        uniform_sample(table, 20, _FixedDraw(lambda x: table.counts[19]))

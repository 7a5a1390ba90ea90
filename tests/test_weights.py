"""Dimension formula, degree, and height functional."""

import math
import random

import pytest

from slrep.weights import (
    degree,
    dim_irrep,
    superfactorial,
    twice_height,
    weyl_numerator,
)

from oracles import dim_poly


def brute_dim(r, k):
    """Dimension by the raw double product, kept independent of the library
    implementation: prod over 1 <= i <= j <= r of (k_i + ... + k_j) divided
    by (j - i + 1), accumulated as exact integers."""
    num = 1
    den = 1
    for i in range(r):
        for j in range(i, r):
            num *= sum(k[i:j + 1])
            den *= j - i + 1
    q, rem = divmod(num, den)
    assert rem == 0
    return q


def test_superfactorial_values():
    assert [superfactorial(r) for r in (1, 2, 3, 4)] == [1, 2, 12, 288]


def test_degree_is_triangular():
    assert [degree(r) for r in (1, 2, 3, 4)] == [1, 3, 6, 10]


def test_dim_small_rank_examples():
    assert dim_irrep(1, (1,)) == 1
    assert dim_irrep(1, (5,)) == 5
    assert dim_irrep(2, (1, 1)) == 1
    assert dim_irrep(2, (2, 1)) == 3
    assert dim_irrep(2, (2, 2)) == 8
    assert dim_irrep(3, (2, 1, 1)) == 4
    assert dim_irrep(3, (2, 1, 2)) == 15


def test_dim_rank_two_closed_form():
    for k1 in range(1, 12):
        for k2 in range(1, 12):
            assert dim_irrep(2, (k1, k2)) == k1 * k2 * (k1 + k2) // 2


def test_dim_matches_brute_product():
    rng = random.Random(3)
    for _ in range(200):
        r = rng.randrange(1, 6)
        k = tuple(rng.randrange(1, 9) for _ in range(r))
        assert dim_irrep(r, k) == brute_dim(r, k)


def test_dim_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        dim_irrep(2, (1, 0))
    with pytest.raises(ValueError):
        dim_irrep(3, (1, -2, 1))


def test_weyl_numerator_division_is_exact():
    rng = random.Random(4)
    for _ in range(100):
        r = rng.randrange(1, 6)
        k = tuple(rng.randrange(1, 7) for _ in range(r))
        assert weyl_numerator(r, k) == dim_irrep(r, k) * superfactorial(r)


def test_dim_poly_is_homogeneous_of_known_degree():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randrange(1, 6)
        y = [rng.uniform(0.1, 4.0) for _ in range(r)]
        s = rng.uniform(0.5, 3.0)
        scaled = dim_poly(r, [s * v for v in y])
        assert scaled == pytest.approx(s ** degree(r) * dim_poly(r, y), rel=1e-12)


def test_dim_poly_agrees_with_dim_on_integers():
    rng = random.Random(6)
    for _ in range(100):
        r = rng.randrange(1, 5)
        k = tuple(rng.randrange(1, 10) for _ in range(r))
        assert dim_poly(r, k) == pytest.approx(float(dim_irrep(r, k)), rel=1e-12)


def test_twice_height_examples():
    assert twice_height(2, (0, 0)) == 0
    assert twice_height(2, (1, 0)) == 2
    assert twice_height(2, (1, 1)) == 4
    assert twice_height(2, (2, 1)) == 6
    assert twice_height(1, (3,)) == 3
    # an (m, r) array of weights gives one value per row
    assert twice_height(2, [[0, 0], [1, 0], [2, 1]]).tolist() == [0, 2, 6]


def test_twice_height_matches_coefficient_sum():
    rng = random.Random(7)
    for _ in range(200):
        r = rng.randrange(1, 6)
        y = tuple(rng.randrange(0, 9) for _ in range(r))
        expected = sum(j * (r + 1 - j) * y[j - 1] for j in range(1, r + 1))
        assert twice_height(r, y) == expected


def test_height_sandwiches_largest_entry():
    rng = random.Random(8)
    for _ in range(300):
        r = rng.randrange(1, 6)
        k = tuple(rng.randrange(1, 12) for _ in range(r))
        ell = twice_height(r, [x - 1 for x in k]) / 2.0
        big = max(k) - 1
        assert 12.0 * ell / (r * (r + 1) * (r + 2)) <= big + 1e-12
        assert big <= 2.0 * ell / r + 1e-12

"""Dimension formula, degree, and height functional."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from slrep.census import enumerate_irreps
from slrep.weights import (
    degree,
    dim_irrep,
    dimension_words,
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
    with pytest.raises(ValueError):
        superfactorial(-1)


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
    # and a rank below 1 or a weight of the wrong length
    for r, k in ((2, (1, 0)), (3, (1, -2, 1)), (0, ()), (2, (1,))):
        with pytest.raises(ValueError):
            dim_irrep(r, k)


def test_weyl_numerator_division_is_exact():
    rng = random.Random(4)
    for _ in range(100):
        r = rng.randrange(1, 6)
        k = tuple(rng.randrange(1, 7) for _ in range(r))
        assert weyl_numerator(r, k) == dim_irrep(r, k) * superfactorial(r)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_dim_is_invariant_under_reversing_the_weight(r):
    # reversal maps each consecutive sum k_l + ... + k_j to another one, so
    # the limit shape's diagonal corner sees face j and face r + 1 - j alike
    for k in enumerate_irreps(r, 10_000).weights.tolist():
        assert dim_irrep(r, k) == dim_irrep(r, k[::-1]), k


def test_weyl_numerator_is_invariant_under_reversal_at_real_points():
    rng = random.Random(9)
    for _ in range(200):
        y = [rng.uniform(0.01, 10.0) for _ in range(3)]
        assert weyl_numerator(3, y) == pytest.approx(weyl_numerator(3, y[::-1]), rel=1e-13)


def test_dim_on_the_diagonal_is_a_power_of_the_level():
    # homogeneous of degree nu with dim(1, ..., 1) = 1, the trivial module
    for r in range(1, 7):
        for K in range(1, 21):
            assert dim_irrep(r, (K,) * r) == K ** degree(r), (r, K)


def test_dimension_words_are_exact_dimensions_mod_two_to_64():
    # 1,200 seeded weights per rank 1-13, coordinates scaled by powers of two
    # so that many dimensions pass 2^64 and some are multiples of it (a
    # shift of 64 or more); 1!...r! holds 2^66 at rank 13
    rng = np.random.default_rng(64)
    beyond = multiples = 0
    for r in range(1, 14):
        k = rng.integers(1, 60, size=(1200, r)) << rng.integers(0, 3, size=(1200, r))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words, estimate = dimension_words(r, list(k.T))
        assert words.dtype == np.int64 and words.shape == estimate.shape == (1200,)
        g = Fraction(4 * degree(r), 2**53)
        g /= 1 - g
        for row, word, est in zip(k.tolist(), words.tolist(), estimate.tolist()):
            d = dim_irrep(r, row)
            assert word % 2**64 == d % 2**64, (r, row)
            assert abs(Fraction(est) - d) <= g * d, (r, row)
            beyond += d >= 2**64
            multiples += d % 2**64 == 0
    assert beyond > 10_000 and multiples > 1_000


def test_dimension_words_broadcast_and_rule_out_far_weights():
    # scalar columns broadcast against arrays, as in the census scan
    words, estimate = dimension_words(3, [np.arange(1, 6), 2, 1])
    assert words.tolist() == [dim_irrep(3, (k, 2, 1)) for k in range(1, 6)]
    assert estimate.tolist() == [float(w) for w in words.tolist()]
    # far weights at high rank overflow the estimate to inf, silently, so
    # a cutoff test rules them out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words, estimate = dimension_words(13, [np.full(2, 2**40)] * 13)
        assert np.isinf(estimate).all() and not (estimate < 1.5 * 2**62).any()


def test_dimension_words_refuse_a_zero_factor():
    # (2, 0) is no weight: its factor k_2 = 0 has no power of two to read,
    # and the fault check refuses it instead of returning a word
    with pytest.raises(ArithmeticError):
        dimension_words(2, [np.array([2, 1]), np.array([0, 1])])


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

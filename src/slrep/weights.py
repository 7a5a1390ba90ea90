"""Exact Weyl-dimension arithmetic for sl_{r+1}(C) highest weights.

A weight is a tuple k = (k_1, ..., k_r) of positive integers (Dynkin labels
shifted by one).  The irreducible module attached to k has dimension

    dim V_k = (1/c_r) * prod_{1 <= l <= j <= r} (k_l + k_{l+1} + ... + k_j),

where c_r = 1! 2! ... r! and the numerator product runs over all consecutive
coordinate sums.  The numerator is homogeneous of degree nu_r = r(r+1)/2 and
the division is always exact.

The height of a weight is L(k) = (1/2) sum_{1 <= l <= j <= r} (k_l + ... + k_j)
= (1/2) sum_j j (r+1-j) k_j, a half-integer; `twice_height` keeps it exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np


@lru_cache(maxsize=None)
def superfactorial(r: int) -> int:
    """c_r = 1! * 2! * ... * r!, the Weyl denominator for sl_{r+1}."""
    if r < 0:
        raise ValueError(f"rank must be nonnegative, got {r}")
    out, fact = 1, 1
    for i in range(1, r + 1):
        fact *= i
        out *= fact
    return out


def degree(r: int) -> int:
    """Homogeneity degree nu_r = r(r+1)/2 of the dimension form."""
    return r * (r + 1) // 2


def _check_weight(r, k):
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    if len(k) != r:
        raise ValueError(f"weight has {len(k)} coordinates, expected {r}")
    for x in k:
        if x < 1:
            raise ValueError(f"weight coordinates must be >= 1, got {tuple(k)}")


def weyl_numerator(r: int, k: Sequence):
    """prod over 1 <= l <= j <= r of (k_l + ... + k_j).

    Works for exact integers, for floats and for broadcasting numpy arrays
    (one per coordinate); no positivity check so it can be evaluated at real
    points for quadrature.
    """
    # prefix[j] = k_1 + ... + k_j, so each factor is prefix[j] - prefix[l-1]
    prefix = [0]
    for x in k:
        prefix.append(prefix[-1] + x)
    out = 1
    for j in range(1, r + 1):
        for l in range(1, j + 1):
            out = out * (prefix[j] - prefix[l - 1])
    return out


def dim_irrep(r: int, k: Sequence[int]) -> int:
    """Exact dimension of the irreducible sl_{r+1} module with weight k."""
    _check_weight(r, k)
    h = weyl_numerator(r, k)
    c = superfactorial(r)
    q, rem = divmod(h, c)
    if rem:
        raise ArithmeticError(f"Weyl numerator {h} not divisible by {c} at {tuple(k)}")
    return q


def dimension_words(r: int, columns):
    """(words, estimate) for r int64 coordinate columns (positive entries)
    that broadcast together: each dimension mod 2^64 as an int64 word (its
    own value below 2^63), and as a float within g dim, g = 4 nu u / (1 -
    4 nu u) for its 4 nu roundings (u = 2^-53); far weights may read inf.

    Exact at every rank: for factors f = 2^t o (o odd), T = sum t, O = prod
    o (odd), 1! 2! ... r! = 2^e o_c (o_c odd) divides 2^T O, so o_c | O,
    e <= T, dim = 2^(T-e) O / o_c and O / o_c = O o_c^-1 mod 2^64.  So the
    word is the wrapping product of the o times that inverse, shifted left
    by T - e (numpy gives 0 from 64 on); T < e is a fault (ArithmeticError).
    """
    sums = [0, *accumulate(np.asarray(x, dtype=np.int64) for x in columns)]
    words, twos = np.ones_like(sums[-1]), np.zeros_like(sums[-1])  # broadcast shape
    estimate = np.ones(words.shape)
    with np.errstate(over="ignore"):
        for j in range(1, r + 1):
            for l in range(j):
                f = sums[j] - sums[l]  # k_{l+1} + ... + k_j
                np.multiply(estimate, f, out=estimate)
                # f & -f = 2^t is an exact double, whose exponent field holds t + 1023
                t = ((f & -f).astype(np.float64).view(np.int64) >> 52) - 1023
                twos += t
                words *= f >> t
            estimate /= math.factorial(j)
    c = superfactorial(r)
    e = (c & -c).bit_length() - 1
    if (twos < e).any():
        raise ArithmeticError(f"Weyl numerator not divisible by {c} at rank {r}")
    words *= (pow(c >> e, -1, 2**64) ^ 2**63) - 2**63  # the inverse as a signed word
    words <<= twos - e
    return words, estimate


def twice_height(r: int, k):
    """2 L(k) = sum_j j (r+1-j) k_j, exact in int64, for one weight k or for
    each row of an (m, r) int array of weights."""
    j = np.arange(1, r + 1)
    return np.asarray(k, dtype=np.int64) @ (j * (r + 1 - j))


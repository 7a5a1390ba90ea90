"""Executable checks tying the limit theory to certified numbers.

Three families: window lower bounds for fractional parts of the dimension
polynomial on lattice boxes (the count form, which implies the sin^2 form,
plus the rank-2 ladder of box steps behind them), exact total-variation
distances between the uniform and Boltzmann ensembles, and exact-vs-limit
gap reports for the five observables.

Window tests need the fractional part of theta * a for dimension values a
of any size, where a plain double product carries no exact digit at all.
They are exact integer comparisons instead.  Every frequency lies on the
grid of multiples of 2^-64 (theta_grid rounds up to it; the kernel refuses
any other), so M = 2^64 theta, exact for every double in [0, 1], is an
integer, and F = a M mod 2^64, one wrapping 64-bit product of a's word
(`weights.dimension_words`), is exactly 2^64 frac(theta a).

D = min(F, 2^64 - F) is |F| read as a signed word: F > 2^63 reads as
F - 2^64, whose absolute value is 2^64 - F, and F = 2^63 reads as -2^63,
whose absolute value wraps to itself, 2^63 as an unsigned word.  So one
pass gives D, exactly 2^64 times the distance of theta * a to the nearest
integer, and a window w is passed when D > T = floor(2^64 w), an integer
comparison.  Every window count is exact and no point is set aside.

The kernel evaluates a block of frequencies at once, one row of a
(frequencies x dimensions) word array per frequency, with as many rows as
keep the block within _BLOCK_ELEMENTS words; a box with more distinct
dimensions than that runs one row per block.  The points inside a window
are marked in a boolean mask of the block, so a count is the box size
minus a weighted bincount of the mask's flat nonzero indices.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .boltzmann import (
    exact_count_mgf,
    exact_expected_shape,
    exact_prob_height_le,
    exact_prob_max_dim_le,
    solve_saddle,
)
from .census import enumerate_irreps
from .exact_count import CountTable, counts_excluding_one_weight
from .limits import (
    compute_constants,
    count_mgf,
    exp_cdf,
    gumbel_cdf,
    limit_shape,
)
from .stats import STATISTICS, default_shape_grid
from .weights import degree, dim_irrep, dimension_words

# adversarial frequencies of theta_grid: reduced fractions p/q with q up to this
_MAX_DENOMINATOR = 50
# words (frequencies x distinct dimensions) that one block of the window
# kernel may hold: a block's work arrays then stay in a core's cache
_BLOCK_ELEMENTS = 2**16


def _window_blocks(thetas, dims, window):
    """Exact window tests of theta * dims against the integers, a block of
    frequencies at a time.

    dims are int64 words (dimensions mod 2^64); every theta must be a
    multiple of 2^-64 in [0, 1], which is checked before the first block.
    Yields (block, inside): block is an index array into thetas, with at
    most max(1, _BLOCK_ELEMENTS // len(dims)) entries, and the blocks
    together take every index once, in order.  inside is the boolean
    (block.size, len(dims)) mask of the block's points whose distance to
    the nearest integer is at most window, exactly.
    """
    dims = np.asarray(dims, dtype=np.int64)
    thetas = np.asarray(thetas, dtype=float)
    # per frequency: the word M = 2^64 theta mod 2^64 that a is multiplied by
    scaled = thetas * 2.0**64
    in_range = (thetas >= 0.0) & (thetas <= 1.0)
    bad = np.flatnonzero(~in_range | (scaled != np.floor(scaled)))
    if bad.size:
        theta = float(thetas[bad[0]])
        if not in_range[bad[0]]:
            raise ValueError(f"frequency must lie in [0, 1], got {theta}")
        raise ValueError(f"frequency {theta!r} is not a multiple of 2^-64")
    words = np.fmod(scaled, 2.0**64).astype(np.uint64)
    wp, wq = float(window).as_integer_ratio()
    threshold = np.uint64((wp << 64) // wq)
    n = dims.size
    rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    unsigned = dims.view(np.uint64)
    frac = np.empty((min(rows, len(thetas)), n), dtype=np.uint64)
    for start in range(0, len(thetas), rows):
        block = np.arange(start, min(start + rows, len(thetas)))
        F = frac[:block.size]
        np.multiply(unsigned, words[block, None], out=F)
        signed = F.view(np.int64)
        np.abs(signed, out=signed)  # F now holds D
        yield block, F <= threshold


def _lambda_dims(r: int, box_size: int) -> np.ndarray:
    """Dimension words (`dimension_words`), all a window count reads, over
    the box box_size <= k_j <= (j + 2) * box_size: one flat int64 array of
    its prod_j ((j + 1) * box_size + 1) points."""
    axes = [np.arange(box_size, (j + 2) * box_size + 1) for j in range(1, r + 1)]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    return dimension_words(r, grids)[0].ravel()


class WeylWindowReport(NamedTuple):
    """Exact window counts over a lattice box; the sin^2 bound is their
    corollary (see weyl_lower_bound_check)."""

    rank: int
    box_size: int
    epsilon: float
    window: float
    count_bound: float
    sin2_bound: float
    thetas: np.ndarray
    counts: np.ndarray

    @property
    def violations(self) -> int:
        return int(np.sum(self.counts < self.count_bound))

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _window_arrays(thetas, dims, window):
    """Exact window counts per theta.

    Equal dimension values are collapsed to multiplicity weights first (box
    sizes of practical interest repeat roughly a quarter of them), and
    `_window_blocks` evaluates the frequencies a block at a time.  A count
    is the box size minus the weighted bincount, by row, of the block's
    inside mask.
    """
    unique, mult = np.unique(np.asarray(dims), return_counts=True)
    total = int(mult.sum())
    counts = np.empty(len(thetas), dtype=np.int64)
    for block, inside in _window_blocks(thetas, unique, window):
        row, column = np.divmod(np.flatnonzero(inside), unique.size)
        counts[block] = total - np.bincount(row, weights=mult[column],
                                            minlength=block.size)
    return counts


def _lowest_frequency(box_size: int, epsilon: float, nu: int) -> float:
    """epsilon N^-nu, the window's lowest frequency, for a valid window: one
    at or above 2^-64, the window kernel's grid, below which every
    frequency would round up to 2^-64 and the range below it go unchecked."""
    if not 0.0 < epsilon <= 1.0 / 32.0:
        raise ValueError(f"window parameter must lie in (0, 1/32], got {epsilon}")
    if box_size < 4:
        raise ValueError(f"box parameter must be at least 4, got {box_size}")
    if epsilon * 2.0**64 < box_size ** nu:  # an exact comparison at any N
        raise ValueError(f"lowest frequency epsilon N^-{nu} lies below 2^-64, "
                         "the window kernel's grid")
    return epsilon * float(box_size) ** -nu


def _window_frequencies(thetas, box_size: int, epsilon: float, nu: int) -> np.ndarray:
    """thetas as a float array, for a valid window, refused unless it is
    nonempty and lies in [epsilon N^-nu, 1/2]."""
    lo = _lowest_frequency(box_size, epsilon, nu)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("no frequencies supplied")
    if float(thetas.min()) < lo or float(thetas.max()) > 0.5:
        raise ValueError(f"frequencies must lie in [epsilon N^-{nu}, 1/2]")
    return thetas


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of a 1-D float array, ascending: what np.unique
    returns, without the numpy.ma import its first call makes."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def theta_grid(r: int, box_size: int, epsilon: float, num_random: int = 10_000,
               seed: int = 99):
    """(random, adversarial) frequency grids on [epsilon N^-nu, 1/2], every
    frequency rounded up to the next multiple of 2^-64 (the window kernel's
    grid; a no-op from 2^-12 up, where every double already lies on it).

    The random part is log-uniform.  The adversarial part holds every
    reduced fraction p/q with q <= _MAX_DENOMINATOR, rescaled by powers
    1/N^j until it lands in range (rational frequencies concentrate the
    fractional parts on few residues), plus both interval endpoints.  It
    holds each rounded point once: doubles that round up to the same
    multiple of 2^-64 count once.
    """
    nu = degree(r)
    lo, hi = _lowest_frequency(box_size, epsilon, nu), 0.5
    rng = np.random.default_rng(seed)
    random_part = np.exp(rng.uniform(math.log(lo), math.log(hi), size=num_random))
    np.clip(random_part, lo, hi, out=random_part)
    adversarial = {lo, hi}
    for q in range(2, _MAX_DENOMINATOR + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            for j in range(nu + 1):
                y = (p / q) * float(box_size) ** -j
                if lo <= y <= hi:
                    adversarial.add(y)
    # theta 2^64 and its ceiling are exact doubles, and so is the quotient
    random_part = np.ceil(np.sort(random_part) * 2.0**64) / 2.0**64
    adversarial = np.ceil(np.array(list(adversarial)) * 2.0**64) / 2.0**64
    return random_part, sorted_distinct(adversarial)


def weyl_lower_bound_check(r: int, box_size: int, epsilon: float,
                           thetas) -> WeylWindowReport:
    """Check the window-count lower bound over the lattice box.

    For every theta in [epsilon N^-nu, 1/2], at least N^r / 32 box points
    must keep theta * a(k) at distance > w = 2^-nu epsilon from the
    integers.  Every theta must be a multiple of 2^-64, as theta_grid's
    are.  Counts are exact, so a reported pass proves the bound at the
    frequencies given, not between them; a reported violation is a bug.
    The sin^2 bound follows from the count: every counted point has
    ||theta a|| > w, and sin^2(pi x) increases on [0, 1/2], so the sum of
    sin^2(pi theta a) over the box is at least count * sin^2(pi w), which
    is at least sin2_bound = sin^2(pi w) N^r / 32 once count >= N^r / 32.
    """
    if r < 2:
        raise ValueError("window bounds need rank >= 2")
    nu = degree(r)
    thetas = _window_frequencies(thetas, box_size, epsilon, nu)
    dims = _lambda_dims(r, box_size)
    window = epsilon * 2.0**-nu
    count_bound = box_size**r / 32.0
    return WeylWindowReport(
        rank=r, box_size=box_size, epsilon=epsilon, window=window,
        count_bound=count_bound,
        sin2_bound=math.sin(math.pi * window) ** 2 * count_bound,
        thetas=thetas, counts=_window_arrays(thetas, dims, window))


class AppendixReport(NamedTuple):
    """Exact results for the rank-2 ladder: the sliding odd-multiplier
    window count and the run structure of the odd-multiplier sequence."""

    box_size: int
    epsilon: float
    thetas: np.ndarray
    ladder_thetas: np.ndarray
    ladder_min_counts: np.ndarray
    ladder_bound: float
    run_thetas: np.ndarray
    run_max_lengths: np.ndarray
    run_length_bound: float
    run_follow_violations: np.ndarray

    @property
    def passed(self) -> bool:
        return (not np.any(self.ladder_min_counts < self.ladder_bound)
                and not np.any(self.run_max_lengths > self.run_length_bound)
                and not np.any(self.run_follow_violations))


def appendix_window_check(box_size: int, epsilon: float, thetas) -> AppendixReport:
    """Check the two ladder steps of the rank-2 box-window count.

    The box count itself (at least N^2 / 32 points of the box N <= k <= 3N,
    N <= j <= 4N keep theta * a(k, j) at distance > epsilon / 8 from the
    integers, for theta in [epsilon N^-3, 1/2]) is
    weyl_lower_bound_check(2, N, epsilon, thetas).  The ladder checks run
    on the sub-ranges where their hypotheses hold, over the odd multipliers
    2k + 1 with 3N <= k < 6N: the window count (distance > epsilon / 2)
    >= N / 8 on every length-N slice of them (theta >= epsilon / N), and
    the run structure of their edge set (distance <= epsilon / 2: runs no
    longer than N / 2 + 1, with matching follow runs) for theta in
    [epsilon / N, 1/2 - epsilon / N].  Every theta must be a multiple of
    2^-64, as theta_grid's are.
    """
    thetas = _window_frequencies(thetas, box_size, epsilon, 3)
    ladder_mask = thetas >= epsilon / box_size
    ladder_thetas = thetas[ladder_mask]
    run_mask = ladder_thetas <= 0.5 - epsilon / box_size
    odd = 2 * np.arange(3 * box_size, 6 * box_size) + 1
    length = odd.size
    min_counts = np.empty(ladder_thetas.size, dtype=np.int64)
    max_lengths = np.empty(ladder_thetas.size, dtype=np.int64)
    follows = np.empty(ladder_thetas.size, dtype=bool)
    for block, edge in _window_blocks(ladder_thetas, odd, epsilon / 2.0):
        rows = block.size
        # prefix[i, j]: edge points among the first j of row i
        prefix = np.zeros((rows, length + 1), dtype=np.int64)
        np.cumsum(edge, axis=1, out=prefix[:, 1:])
        slices = prefix[:, box_size:] - prefix[:, :-box_size]
        min_counts[block] = box_size - slices.max(axis=1)
        # an edge run [first, end) of length ell is followed by the outside
        # point end; it violates when one of the points end + 1 .. end +
        # ell - 1 falls back in the edge set (none exist past the row, so
        # a run that ends the row cannot violate)
        steps = np.diff(edge, axis=1, prepend=0, append=0)
        row, first = np.nonzero(steps == 1)
        end = np.nonzero(steps == -1)[1]
        ell = end - first
        longest = np.zeros(rows, dtype=np.int64)
        np.maximum.at(longest, row, ell)
        max_lengths[block] = longest
        after = np.minimum(end + 1, length)
        reach = np.minimum(end + ell, length)
        violation = prefix[row, reach] > prefix[row, after]
        follows[block] = np.bincount(row[violation], minlength=rows) > 0
    return AppendixReport(
        box_size=box_size, epsilon=epsilon, thetas=thetas,
        ladder_thetas=ladder_thetas, ladder_min_counts=min_counts,
        ladder_bound=box_size / 8.0,
        run_thetas=ladder_thetas[run_mask],
        run_max_lengths=max_lengths[run_mask],
        run_length_bound=box_size / 2.0 + 1.0,
        run_follow_violations=follows[run_mask])


def default_weight(r: int) -> tuple:
    """(1, ..., 1), the trivial irreducible: the default weight of a mult report."""
    return (1,) * r


def ensembles_tv(table: CountTable, n: int, k) -> tuple[float, float]:
    """(tv, err): the total variation between the uniform-model and
    Boltzmann-model laws of the multiplicity of weight k at total dimension
    n, and a bound on its rounding error.

    The uniform side is exact big-integer counting (the count table with
    the weight's factor removed, shifted by multiples of its dimension);
    the Boltzmann side is the geometric law at the float saddle beta solved
    for (table.rank, n).  With u = 2^-53, and exp and expm1 within one ulp,
    to first order: the rounded quotients add u to S = 2 tv; each Boltzmann
    mass (1 - q) q^ell, q = exp(-beta a), is off by (6 + 2 beta a ell) u of
    itself and the tail q^m, m = n // a + 1, by (2 + 2 beta a m) u, at most
    9 u in all as beta a q / (1 - q) <= 1 and beta a m q^m <= 1/e; rounding
    the N = n // a + 2 terms and their sum adds N u S.  The TV is off by
    half of this (10 + N S) u; err is all of it, for higher orders and underflow.
    """
    k = tuple(k)
    a = dim_irrep(table.rank, k)
    if table.max_total < n:
        raise ValueError(f"count table stops at {table.max_total} < {n}")
    params = solve_saddle(table.rank, n)
    removed = counts_excluding_one_weight(table, a)
    total = table.counts[n]
    log_qa = -params.beta * a
    tv = 0.0
    for ell in range(n // a + 1):
        uniform_mass = removed[n - ell * a] / total  # correctly rounded
        boltzmann_mass = -math.expm1(log_qa) * math.exp(log_qa * ell)
        tv += abs(uniform_mass - boltzmann_mass)
    tv += math.exp(log_qa * (n // a + 1))  # Boltzmann mass above n // a
    return 0.5 * tv, (10 + (n // a + 2) * tv) * 2.0**-53


def shrinking(values, allow_single_step_fraction: float | None = None) -> bool:
    """Whether the sequence decreases, optionally forgiving one upward step
    no larger than the stated fraction of the larger neighbor."""
    values = list(values)
    ups = [i for i in range(len(values) - 1) if values[i + 1] >= values[i]]
    if not ups:
        return True
    if allow_single_step_fraction is None or len(ups) > 1:
        return False
    i = ups[0]
    larger = max(values[i], values[i + 1])
    return values[i + 1] - values[i] <= allow_single_step_fraction * larger


class LimitGapReport(NamedTuple):
    """Exact-vs-limit gap for one observable at one size, with the grid,
    both curves, and error bounds for both routes (certified, except the
    rank-3 limit shape's, which the note marks as an estimate).  The gap
    column `gaps` is |exact - limit|, over limit where the gap is relative
    (the shape), and `gap` is its largest value.  The error bounds are
    absolute, except where the gap is relative, where each is the largest
    relative error of its column.  Any finite tolerance judged against the
    gap is an engineering choice; the theory fixes only that gaps shrink as
    n grows."""

    statistic: str
    rank: int
    n: int
    grid: np.ndarray
    exact: np.ndarray
    limit: np.ndarray
    gap_is_relative: bool
    exact_err: float
    limit_err: float
    note: str

    @property
    def gaps(self) -> np.ndarray:
        gaps = np.abs(self.exact - self.limit)
        return gaps / self.limit if self.gap_is_relative else gaps

    @property
    def gap(self) -> float:
        return float(np.max(self.gaps))


_MGF_GRID = (-0.5, -0.25, 0.25, 0.5)
_MGF_LIMIT_MAX_DIM = 2_000_000  # census cutoff of the limit product's exact factors
# certified truncation error of the shape report, relative to each corner value
SHAPE_REL_ERR = 1e-6


@cache
def _limit_column(r, which):
    """Read-only (limit, limit_err) of the mgf or shape report: it depends on r alone."""
    if which == "mgf":
        limit, limit_err = count_mgf(np.array(_MGF_GRID),
                                     enumerate_irreps(r, _MGF_LIMIT_MAX_DIM))
    else:
        limit, limit_err = limit_shape(r, default_shape_grid(r))
    limit.flags.writeable = limit_err.flags.writeable = False
    return limit, limit_err


def compare_exact_to_limit(r: int, n: int, which: str, *, k=None) -> LimitGapReport:
    """Gap between an exact Boltzmann-model distribution at size n and its
    limit law, computed without any sampling, at the saddle solved for
    (r, n).

    which selects the observable: "D" and "H" compare the exact extremal
    CDFs against the doubly exponential law on an x-grid; "mult" compares
    the exact geometric law of weight k's multiplicity (default_weight(r)
    when k is None) against the exponential law at its jump points; "shape"
    compares the rescaled expected shape functional against the limit
    shape at the diagonal levels of `default_shape_grid`, relatively;
    "mgf" compares the exact transformed-count mgf against the limit
    product on a u-grid.

    D and H raise ValueError when n is too small for their normalizer (NaN
    center or scale).  D, H and mgf read the saddle's census.  The shape
    report reads one census, at twice the dimension K^nu of the farthest
    lattice corner (K, ..., K) or at the saddle's cutoff if that is wider,
    and raises RuntimeError when its certified error exceeds SHAPE_REL_ERR
    of the exact value at any corner, BudgetError when that census passes
    the census cap.  Before the saddle is solved, shape raises
    NotImplementedError above rank 3, where W_t is unknown, and mgf raises
    ValueError at rank 1, where the limit product diverges.
    """
    if which not in STATISTICS:
        raise ValueError(f"unknown observable {which!r}; "
                         f"expected one of {', '.join(STATISTICS)}")
    if which == "shape" and r > 3:
        raise NotImplementedError(f"the shape limit is known for rank <= 3, got {r}")
    if which == "mgf" and r < 2:
        raise ValueError("the mgf limit diverges at rank 1 (harmonic series); "
                         "need rank >= 2")
    params = solve_saddle(r, n)
    constants = compute_constants(r, params.s)
    exact_err = limit_err = 0.0

    if which in ("D", "H"):
        grid = np.linspace(-3.0, 6.0, 181)
        if which == "D":
            center, scale = constants.max_dim_center, constants.max_dim_scale
            prob = exact_prob_max_dim_le
        else:
            center, scale = constants.height_center, constants.height_scale
            prob = exact_prob_height_le
        if not (math.isfinite(center) and math.isfinite(scale)):
            raise ValueError(f"n = {n} is too small for the {which} normalizer "
                             f"at rank {r} (center {center}, scale {scale})")
        exact, exact_err = prob(params, center + scale * grid)
        limit = gumbel_cdf(grid)
        note = "sup over the x-grid; limit CDF is closed form"
    elif which == "mult":
        k = default_weight(r) if k is None else tuple(k)
        beta_a = params.beta * dim_irrep(r, k)
        jumps = np.arange(0, min(512, max(2, int(math.ceil(30.0 / beta_a)) + 1)))
        grid = beta_a * jumps
        exact = -np.expm1(-beta_a * (jumps + 1.0))  # CDF right of each jump
        limit = exp_cdf(grid)
        # exact - limit is q^j (1 - q), q = exp(-beta a): largest at j = 0
        note = f"weight {k}: exact geometric law; sup-gap 1 - q^a is closed form"
    elif which == "shape":
        grid = default_shape_grid(r)
        levels = grid / params.s  # the corners (t / s, ..., t / s)
        # the farthest corner starts at dim(K, ..., K) = K^nu; twice that
        # cutoff leaves a tail far below the corner's own value
        far = math.ceil(float(levels.max()))
        wide = params.with_cutoff(max(params.cutoff, 2 * far ** degree(r)))
        values, err = exact_expected_shape(wide, levels)
        if not np.all(err <= SHAPE_REL_ERR * values):
            raise RuntimeError(f"the shape census at cutoff {wide.cutoff} cannot certify "
                               f"every corner within {SHAPE_REL_ERR} at n = {n}")
        exact = params.s**r * values
        limit, limit_err = _limit_column(r, "shape")
        exact_err = float(np.max(err / values))
        limit_err = float(np.max(limit_err / limit))
        kind = "an estimate" if r == 3 else "certified"
        # integer weights dominate the corner t / s exactly when they
        # dominate its lattice corner ceil(t / s), which nearby rows can share
        lattice = np.ceil(levels)
        repeats = np.flatnonzero(lattice[1:] == lattice[:-1]) + 1
        note = ("relative gap of the mean shape functional on the diagonal grid; "
                "rows (from 0) that share the lattice corner ceil(t/s) of the row "
                f"before: {', '.join(map(str, repeats)) or 'none'}; "
                "exact_err is the largest relative error of the exact column, "
                f"truncation and rounding, at most {SHAPE_REL_ERR} at every corner; "
                f"limit_err is the largest relative error of the limit column, {kind}")
    else:  # which == "mgf"
        grid = np.array(_MGF_GRID)
        exact, exact_err = exact_count_mgf(params, grid)
        limit, limit_err = _limit_column(r, "mgf")
        exact_err, limit_err = float(exact_err.max()), float(limit_err.max())
        note = "transformed-count mgf on the standard u-grid"
    return LimitGapReport(which, r, n, grid, exact, limit,
                          gap_is_relative=which == "shape", exact_err=exact_err,
                          limit_err=limit_err, note=note)

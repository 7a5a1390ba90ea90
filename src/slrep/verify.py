"""Executable checks tying the limit theory to certified numbers.

Three families: window lower bounds for fractional parts of the dimension
polynomial on lattice boxes (count and sin^2 forms, plus the rank-2 ladder
of box steps behind them), exact total-variation distances between the
uniform and Boltzmann ensembles, and exact-vs-limit gap reports for the
five observables.

Window tests need the fractional part of theta * a for dimension values a
up to 2^53, where a plain double product carries an absolute error of
order 1e-3.  They are exact integer comparisons instead.  A double theta
in [0, 1] is m 2^-sh exactly (float.as_integer_ratio), so the fractional
part of theta * a is ((m a) mod 2^sh) / 2^sh, and the window kernel
computes F = floor(2^64 frac(theta a)) in 64-bit words:

* sh <= 64: F is the wrapping product a * (m 2^(64 - sh)), with no
  remainder;
* 64 < sh <= 127: m a = H 2^64 + L with L the wrapping product a * m and
  H <= 2^42 (m and a lie below 2^53).  The double a m 2^-64 is within
  2^-11 of m a 2^-64, so rounding it minus L 2^-64 returns H exactly, and
  F = floor(m a / 2^(sh - 64)) mod 2^64 follows by shifts.

D = min(F, 2^64 - F) is then 2^64 times the distance of theta * a to the
nearest integer when sh <= 64, and within one unit of it otherwise.  A
window w is passed when D > floor(2^64 w), an integer comparison.  With
sh > 64, only D = floor(2^64 w) and the unit above it can disagree with
the truth; those points are settled with Python integers.  So every
window count is exact and no point is ever set aside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boltzmann import (
    BoltzmannParams,
    exact_count_mgf,
    exact_expected_shape,
    exact_prob_height_le,
    exact_prob_max_dim_le,
    solve_saddle,
)
from .census import enumerate_irreps
from .exact_count import CountTable, count_representations, counts_excluding_one_weight
from .limits import (
    compute_constants,
    count_mgf,
    exp_cdf,
    gumbel_cdf,
    limit_shape,
)
from .stats import default_shape_grid
from .weights import degree, dim_irrep, superfactorial, weyl_numerator

_MAX_DIM = 2**53
_MAX_SHIFT = 127


def _window_kernel(dims):
    """Exact window tests of theta * dims against the integers.

    dims must be nonnegative integers below 2^53.  Returns a callable
    (theta, window) -> (outside, D) for theta in [0, 1] with at most 127
    binary places (every double from 2^-75 up): outside marks the points
    whose distance to the nearest integer exceeds window, exactly; D
    (uint64) is less than one unit from 2^64 times that distance, and
    equal to it when theta has at most 64 binary places.  D is a reused
    buffer: consume it before the next call.
    """
    dims = np.asarray(dims, dtype=np.int64)
    if dims.size and int(dims.max()) >= _MAX_DIM:
        raise NotImplementedError("dimension values at or above 2^53 exceed the "
                                  "exact window kernel")
    as_float = dims.astype(np.float64)
    high = np.empty(dims.shape, dtype=np.uint64)
    estimate = np.empty(dims.shape, dtype=np.float64)
    low = np.empty(dims.shape, dtype=np.float64)
    unsigned = dims.view(np.uint64)
    frac = np.empty(dims.shape, dtype=np.uint64)
    signed = frac.view(np.int64)
    flip = np.empty(dims.shape, dtype=np.uint64)

    def evaluate(theta: float, window: float):
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"frequency must lie in [0, 1], got {theta}")
        m, denominator = float(theta).as_integer_ratio()
        sh = denominator.bit_length() - 1
        if sh > _MAX_SHIFT:
            raise NotImplementedError(
                f"frequency {theta!r} has {sh} binary places, above the "
                f"{_MAX_SHIFT} of the exact window kernel")
        if sh <= 64:
            np.multiply(unsigned, np.uint64((m << (64 - sh)) % 2**64), out=frac)
        else:
            # m a = H 2^64 + L.  With L read as a signed word L - b 2^64
            # (b = 1 when L >= 2^63), the double a m 2^-64 - L 2^-64 lies
            # within 2^-10 of H + b <= 2^42 and rounds to it exactly; the
            # arithmetic shift of the signed L takes b 2^(128 - sh) back
            # off, so the wrapping sum is floor(m a / 2^(sh - 64)) mod 2^64.
            np.multiply(unsigned, np.uint64(m), out=frac)
            np.multiply(as_float, m * 2.0**-64, out=estimate)
            np.multiply(signed, 2.0**-64, out=low)
            np.subtract(estimate, low, out=estimate)
            np.rint(estimate, out=estimate)
            np.copyto(high, estimate, casting="unsafe")
            np.left_shift(high, 128 - sh, out=high)
            np.right_shift(signed, sh - 64, out=signed)
            np.add(frac, high, out=frac)
        np.negative(frac, out=flip)
        np.minimum(frac, flip, out=frac)  # frac now holds D
        wp, wq = float(window).as_integer_ratio()
        threshold = np.uint64((wp << 64) // wq)
        outside = frac > threshold
        if sh > 64:
            # D is off by less than one unit, so only D = T and D = T + 1
            # against T = floor(2^64 window) can disagree with the truth
            np.subtract(frac, threshold, out=flip)
            for i in np.flatnonzero(flip <= 1):
                residue = (m * int(dims[i])) % denominator
                nearest = min(residue, denominator - residue)
                outside[i] = nearest * wq > wp * denominator
        return outside, frac

    return evaluate


def _lambda_dims(r: int, box_size: int) -> np.ndarray:
    """Dimensions over the lattice box box_size <= k_j <= (j + 2) * box_size,
    which holds prod_j ((j + 1) * box_size + 1) points, as a flat int64 array."""
    corner = [(j + 2) * box_size for j in range(1, r + 1)]
    c = superfactorial(r)
    if dim_irrep(r, corner) * c >= 2**62:
        raise NotImplementedError("box corner dimension exceeds the int64 range")
    axes = [np.arange(box_size, (j + 2) * box_size + 1, dtype=np.int64)
            for j in range(1, r + 1)]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    flat = weyl_numerator(r, grids).reshape(-1)
    if flat.size != math.prod((j + 1) * box_size + 1 for j in range(1, r + 1)):
        raise AssertionError("box enumeration lost points")
    quotient, remainder = np.divmod(flat, c)
    if remainder.any():
        raise ArithmeticError("dimension polynomial not divisible by the rank factor")
    return quotient


@dataclass(frozen=True)
class WeylWindowReport:
    """Exact window counts and certified sin^2 lower bounds over a lattice box."""

    rank: int
    box_size: int
    epsilon: float
    window: float
    count_bound: float
    sin2_bound: float
    thetas: np.ndarray
    counts: np.ndarray
    sin2_lower: np.ndarray
    grid_note: str

    @property
    def violations(self) -> int:
        return int(np.sum((self.counts < self.count_bound)
                          | (self.sin2_lower < self.sin2_bound)))

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _window_arrays(thetas, dims, window):
    """Exact window counts and certified sin^2 lower bounds per theta.

    sin^2(pi d) >= 4 d^2 on 0 <= d <= 1/2, and D - 1 (floored at zero)
    lies below 2^64 d, so 4 * 2^-128 sum (D - 1)^2 bounds the sin^2 sum
    without transcendentals.  Its float evaluation is scaled down by
    1 - (n + 3) 2^-53 for n distinct dimensions: all terms are
    nonnegative and each passes through at most n + 3 roundings (the
    conversion, the square, the weight, n - 1 additions and the final
    scaling).  Equal dimension values are collapsed to multiplicity
    weights first; box sizes of practical interest repeat roughly a
    quarter of them.
    """
    unique, mult = np.unique(np.asarray(dims), return_counts=True)
    multf = mult.astype(np.float64)
    kernel = _window_kernel(unique)
    shrink = (1.0 - (unique.size + 3) * 2.0**-53) * 2.0**-126
    lower = np.empty(unique.shape, dtype=np.uint64)
    counts = np.empty(len(thetas), dtype=np.int64)
    sin2_lower = np.empty(len(thetas))
    for i, theta in enumerate(thetas):
        outside, distances = kernel(float(theta), window)
        counts[i] = int(np.dot(multf, outside))
        np.maximum(distances, 1, out=lower)
        lower -= 1
        d = lower.view(np.int64).astype(np.float64)
        d *= d
        sin2_lower[i] = float(np.dot(d, multf)) * shrink
    return counts, sin2_lower


def theta_grid(r: int, box_size: int, epsilon: float, num_random: int = 10_000,
               seed: int = 99, max_denominator: int = 50):
    """(random, adversarial) frequency grids on [epsilon N^-nu, 1/2].

    The random part is log-uniform.  The adversarial part holds every
    reduced fraction p/q with q <= max_denominator, rescaled by powers
    1/N^j until it lands in range (rational frequencies concentrate the
    fractional parts on few residues), plus both interval endpoints.
    """
    nu = degree(r)
    lo = epsilon * float(box_size) ** -nu
    hi = 0.5
    rng = np.random.default_rng(seed)
    random_part = np.exp(rng.uniform(math.log(lo), math.log(hi), size=num_random))
    np.clip(random_part, lo, hi, out=random_part)
    adversarial = {lo, hi}
    for q in range(2, max_denominator + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            for j in range(nu + 1):
                y = (p / q) * float(box_size) ** -j
                if lo <= y <= hi:
                    adversarial.add(y)
    return np.sort(random_part), np.array(sorted(adversarial))


def weyl_lower_bound_check(r: int, box_size: int, epsilon: float,
                           thetas, grid_note: str = "caller-supplied"
                           ) -> WeylWindowReport:
    """Check the window-count and sin^2 lower bounds over the lattice box.

    For every theta in [epsilon N^-nu, 1/2], at least N^r / 32 box points
    must keep theta * a(k) at distance > 2^-nu epsilon from the integers,
    and the sin^2 sum must reach sin^2(2^-nu pi epsilon) / 32 * N^r.
    Counts are exact and the sin^2 sums certified lower bounds, so a
    reported pass is a proof and a reported violation is a bug.
    """
    if r < 2:
        raise ValueError("window bounds need rank >= 2")
    if not 0.0 < epsilon <= 1.0 / 32.0:
        raise ValueError(f"window parameter must lie in (0, 1/32], got {epsilon}")
    if box_size < 4:
        raise ValueError(f"box parameter must be at least 4, got {box_size}")
    nu = degree(r)
    lo = epsilon * float(box_size) ** -nu
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("no frequencies supplied")
    if float(thetas.min()) < lo or float(thetas.max()) > 0.5:
        raise ValueError("frequencies must lie in [epsilon N^-nu, 1/2]")
    dims = _lambda_dims(r, box_size)
    window = epsilon * 2.0**-nu
    counts, sin2_lower = _window_arrays(thetas, dims, window)
    return WeylWindowReport(
        rank=r, box_size=box_size, epsilon=epsilon, window=window,
        count_bound=box_size**r / 32.0,
        sin2_bound=math.sin(math.pi * epsilon * 2.0**-nu) ** 2 / 32.0 * box_size**r,
        thetas=thetas, counts=counts, sin2_lower=sin2_lower,
        grid_note=grid_note)


@dataclass(frozen=True)
class AppendixReport:
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


def _odd_run_structure(flags: list[bool]) -> tuple[int, bool]:
    """(max run length, follow violation) of an edge-set membership list.

    A follow violation is an edge run of length ell whose successor lies
    outside the edge set while one of the next ell - 1 terms falls back in.
    """
    npts = len(flags)
    follow_violation = False
    lengths = []
    pos = 0
    while pos < npts:
        if not flags[pos]:
            pos += 1
            continue
        start = pos
        while pos < npts and flags[pos]:
            pos += 1
        ell = pos - start
        lengths.append(ell)
        if pos < npts and any(flags[pos + 1:pos + ell]):
            follow_violation = True
    return max(lengths, default=0), follow_violation


def appendix_window_check(box_size: int, epsilon: float, thetas,
                          grid_note: str = "caller-supplied") -> AppendixReport:
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
    [epsilon / N, 1/2 - epsilon / N].
    """
    if not 0.0 < epsilon <= 1.0 / 32.0:
        raise ValueError(f"window parameter must lie in (0, 1/32], got {epsilon}")
    if box_size < 4:
        raise ValueError(f"box parameter must be at least 4, got {box_size}")
    lo = epsilon * float(box_size) ** -3
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("no frequencies supplied")
    if float(thetas.min()) < lo or float(thetas.max()) > 0.5:
        raise ValueError("frequencies must lie in [epsilon N^-3, 1/2]")
    ladder_mask = thetas >= epsilon / box_size
    ladder_thetas = thetas[ladder_mask]
    run_mask = ladder_thetas <= 0.5 - epsilon / box_size
    kernel = _window_kernel(2 * np.arange(3 * box_size, 6 * box_size) + 1)
    starts = np.arange(0, 2 * box_size + 1)
    min_counts = np.empty(ladder_thetas.size, dtype=np.int64)
    runs = []
    for i, theta in enumerate(ladder_thetas):
        outside, _ = kernel(float(theta), epsilon / 2.0)
        sliding = np.concatenate(([0], np.cumsum(outside)))
        min_counts[i] = int((sliding[starts + box_size] - sliding[starts]).min())
        if run_mask[i]:
            runs.append(_odd_run_structure((~outside).tolist()))
    return AppendixReport(
        box_size=box_size, epsilon=epsilon, thetas=thetas,
        ladder_thetas=ladder_thetas, ladder_min_counts=min_counts,
        ladder_bound=box_size / 8.0,
        run_thetas=ladder_thetas[run_mask],
        run_max_lengths=np.array([r for r, _ in runs], dtype=np.int64),
        run_length_bound=box_size / 2.0 + 1.0,
        run_follow_violations=np.array([f for _, f in runs], dtype=bool))


def ensembles_tv(r: int, n: int, k, table: CountTable | None = None,
                 params: BoltzmannParams | None = None) -> float:
    """Exact total variation between the uniform-model and Boltzmann-model
    laws of the multiplicity of weight k at total dimension n.

    The uniform side is exact big-integer counting (the count table with
    the weight's factor removed, shifted by multiples of its dimension);
    the Boltzmann side is the geometric law at the solved saddle.  The
    only inexactness is the final float conversion, below 1e-12 here.
    """
    k = tuple(k)
    a = dim_irrep(r, k)
    if table is None:
        table = count_representations(r, n)
    if table.rank != r:
        raise ValueError(f"count table has rank {table.rank}, expected {r}")
    if table.max_total < n:
        raise ValueError(f"count table stops at {table.max_total} < {n}")
    if params is None:
        params = solve_saddle(r, n)
    removed = counts_excluding_one_weight(table, a)
    total = table.counts[n]
    log_qa = -params.beta * a
    qa = math.exp(log_qa)
    tv = 0.0
    for ell in range(n // a + 1):
        uniform_mass = Fraction(removed[n - ell * a], total)
        boltzmann_mass = -math.expm1(log_qa) * math.exp(log_qa * ell)
        tv += abs(float(uniform_mass) - boltzmann_mass)
    tv += math.exp(log_qa * (n // a + 1))  # Boltzmann mass above n // a
    return 0.5 * tv


def ks_distance(sample, cdf) -> float:
    """Sup distance between the empirical law of the sample and a CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise ValueError("empty sample has no empirical law")
    values = np.asarray(cdf(xs), dtype=float)
    steps = np.arange(1, xs.size + 1, dtype=float) / xs.size
    return float(max(np.max(steps - values), np.max(values - steps + 1.0 / xs.size)))


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


@dataclass(frozen=True)
class LimitGapReport:
    """Exact-vs-limit gap for one observable at one size, with the grid,
    both curves, and error bounds for both routes (certified, except the
    rank-3 limit shape's, which the note marks as an estimate).  Any
    finite tolerance judged against the gap is an engineering choice; the
    theory fixes only that gaps shrink as the size grows."""

    statistic: str
    rank: int
    n: int
    grid: np.ndarray
    exact: np.ndarray
    limit: np.ndarray
    gap: float
    gap_is_relative: bool
    exact_err: float
    limit_err: float
    note: str


_MGF_GRID = (-0.5, -0.25, 0.25, 0.5)
_MGF_LIMIT_MAX_DIM = 2_000_000  # census cutoff of the limit product's exact factors
_STATISTICS = ("D", "H", "mult", "shape", "mgf")
# certified truncation error of the shape report, relative to each corner value
SHAPE_REL_ERR = 1e-6


def compare_exact_to_limit(r: int, n: int, which: str, *,
                           params: BoltzmannParams | None = None,
                           t_grid=None, u_grid=None, k=None) -> LimitGapReport:
    """Gap between an exact Boltzmann-model distribution at size n and its
    limit law, computed without any sampling.

    which selects the observable: "D" and "H" compare the exact extremal
    CDFs against the doubly exponential law on an x-grid; "mult" compares
    the exact geometric law of a fixed weight's multiplicity against the
    exponential law (the sup over the jump points is closed-form); "shape"
    compares the rescaled expected shape functional against the limit
    shape on a corner grid, relatively; "mgf" compares the exact
    transformed-count mgf against the limit product on a u-grid.

    D and H raise ValueError when n is too small for their normalizer (NaN
    center or scale).  D, H and mgf read the census the saddle was certified
    on.  The shape report needs a census that reaches every corner: it
    doubles its cutoff until the certified truncation error is at most
    SHAPE_REL_ERR of the exact value at every corner, as `solve_saddle`
    does, so only the census cap (BudgetError) ends the loop.  Above rank 3, shape
    and mgf raise NotImplementedError first: they need W_t and K_r.
    """
    if which not in _STATISTICS:
        raise ValueError(f"unknown observable {which!r}; "
                         f"expected one of {', '.join(_STATISTICS)}")
    if which in ("shape", "mgf") and r > 3:
        raise NotImplementedError(f"the {which} limit is known for rank <= 3, "
                                  f"got {r}")
    if params is None:
        params = solve_saddle(r, n)
    census = params.census
    constants = compute_constants(r, n, s=params.s)
    s = params.s

    if which in ("D", "H"):
        xs = np.linspace(-3.0, 6.0, 181)
        if which == "D":
            center, scale = constants.max_dim_center, constants.max_dim_scale
            prob = exact_prob_max_dim_le
        else:
            center, scale = constants.height_center, constants.height_scale
            prob = exact_prob_height_le
        if not (math.isfinite(center) and math.isfinite(scale)):
            raise ValueError(f"n = {n} is too small for the {which} normalizer "
                             f"at rank {r} (center {center}, scale {scale})")
        exact, err = prob(params, census, center + scale * xs)
        limit = gumbel_cdf(xs)
        gap = float(np.max(np.abs(exact - limit)))
        return LimitGapReport(which, r, n, xs, exact, limit, gap, False, err,
                              0.0, "sup over the x-grid; limit CDF is closed form")

    if which == "mult":
        k = (1,) * r if k is None else tuple(k)
        a = dim_irrep(r, k)
        beta_a = params.beta * a
        jumps = np.arange(0, min(512, max(2, int(math.ceil(30.0 / beta_a)) + 1)))
        grid = beta_a * jumps
        exact = -np.expm1(-beta_a * (jumps + 1.0))  # CDF right of each jump
        limit = exp_cdf(grid)
        gap = -math.expm1(-beta_a)  # sup over jumps, attained at zero
        return LimitGapReport(
            which, r, n, grid, exact, limit, gap, False, 0.0, 0.0,
            f"weight {k}: exact geometric law; sup-gap 1 - q^a is closed form")

    if which == "shape":
        ts = default_shape_grid(r) if t_grid is None else np.asarray(t_grid)
        corners = np.repeat(ts[:, None] / s, r, axis=1)
        # the farthest corner starts at dim(K, ..., K); twice that cutoff
        # leaves a tail far below the corner's own value
        far = math.ceil(float(corners.max()))
        cutoff = max(params.cutoff, 2 * dim_irrep(r, (far,) * r))
        while True:
            census = enumerate_irreps(r, cutoff)
            values, err = exact_expected_shape(params, census, corners)
            if err <= SHAPE_REL_ERR * float(values.min()):
                break
            cutoff *= 2
        exact = s**r * values
        limit, limit_err = limit_shape(r, np.repeat(ts[:, None], r, axis=1))
        gap = float(np.max(np.abs(exact - limit) / limit))
        kind = "an estimate" if r == 3 else "certified"
        return LimitGapReport(
            which, r, n, ts, exact, limit, gap, True, s**r * err,
            float(np.max(limit_err / limit)),
            "relative gap of the mean shape functional on the diagonal grid; "
            f"census truncation certified below {SHAPE_REL_ERR} of every corner; "
            f"limit_err is the largest relative error of the limit column, {kind}")

    # which == "mgf"
    us = np.asarray(_MGF_GRID if u_grid is None else u_grid, dtype=float)
    product_census = enumerate_irreps(r, _MGF_LIMIT_MAX_DIM)
    exact = np.empty(us.size)
    limit = np.empty(us.size)
    exact_err = 0.0
    limit_err = 0.0
    for i, u in enumerate(us):
        value, e = exact_count_mgf(params, census, float(u))
        exact[i] = value
        exact_err = max(exact_err, e)
        lvalue, le = count_mgf(r, float(u), product_census)
        limit[i] = lvalue
        limit_err = max(limit_err, le)
    gap = float(np.max(np.abs(exact - limit)))
    return LimitGapReport(
        which, r, n, us, exact, limit, gap, False, exact_err, limit_err,
        "transformed-count mgf on the standard u-grid")

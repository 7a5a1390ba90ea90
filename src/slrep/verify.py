"""Executable checks tying the limit theory to certified numbers.

Three families: window lower bounds for fractional parts of the dimension
polynomial on lattice boxes (count and sin^2 forms, plus the rank-2 ladder
of box steps behind them), exact total-variation distances between the
uniform and Boltzmann ensembles, and exact-vs-limit gap reports for the
five observables.

Fractional parts theta * a must be resolved far below the window width
even when a ~ 10^13, where a plain double product carries an absolute
error of order 1e-3.  The splitting route keeps everything certified:
theta splits into two 26-bit halves (Veltkamp), a splits into high and
low 26-bit integer halves, the four cross products are then exact in
double precision, and each reduces modulo 1 exactly, so the final sum
carries only three rounding errors.  Every window comparison uses the
resulting margin; points landing within the margin of a window edge are
counted as ambiguous and never claimed for a bound.
"""

from __future__ import annotations

import itertools
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
from .census import IrrepCensus, enumerate_irreps
from .exact_count import CountTable, count_representations, counts_excluding_one_weight
from .limits import (
    compute_constants,
    count_mgf,
    exp_cdf,
    gumbel_cdf,
    limit_shape,
)
from .stats import default_shape_grid
from .weights import degree, dim_irrep, superfactorial

_SPLIT_FACTOR = float(2**27 + 1)
_LOW_BITS = 26
_LOW_MASK = (1 << _LOW_BITS) - 1
# Three roundings on sums in [0, 4) plus the 1 - f flip: 2^-48 dominates.
FRAC_MARGIN = 2.0**-48
_MAX_EXACT_DIM = 2**52


def _veltkamp_split(x: float):
    """x as an exact sum hi + lo of two doubles with 26-bit significands."""
    t = _SPLIT_FACTOR * x
    hi = t - (t - x)
    return hi, x - hi


def exact_frac_parts(theta: float, dims: np.ndarray) -> np.ndarray:
    """Fractional parts of theta * dims with absolute error <= FRAC_MARGIN.

    dims must be a nonnegative integer array below 2^52.  The result lives
    in [0, 1); errors are understood modulo 1 (a true value just under 1
    may be reported just above 0 and vice versa, shifted by the margin).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"frequency must lie in [0, 1], got {theta}")
    dims = np.asarray(dims)
    if dims.size and int(dims.max()) >= _MAX_EXACT_DIM:
        raise NotImplementedError(
            "dimension values at or above 2^52 exceed the exact-splitting range")
    a_hi = (dims >> _LOW_BITS).astype(np.float64)
    a_lo = (dims & _LOW_MASK).astype(np.float64)
    t_hi, t_lo = _veltkamp_split(theta)
    total = np.zeros(dims.shape, dtype=np.float64)
    work = np.empty(dims.shape, dtype=np.float64)
    flo = np.empty(dims.shape, dtype=np.float64)
    for t_part in (t_hi, t_lo):
        for a_part, shift in ((a_hi, float(1 << _LOW_BITS)), (a_lo, 1.0)):
            np.multiply(a_part, t_part, out=work)  # exact: 26 + 26 bits
            if shift != 1.0:
                work *= shift  # exact: power-of-two scaling
            np.floor(work, out=flo)
            work -= flo  # exact: Sterbenz subtraction
            total += work
    np.floor(total, out=flo)
    total -= flo
    return total


def _window_distances(theta: float, dims: np.ndarray) -> np.ndarray:
    """Distances of theta * dims to the nearest integer, error <= FRAC_MARGIN."""
    f = exact_frac_parts(theta, dims)
    return np.minimum(f, 1.0 - f)


def lambda_window(r: int, box_size: int):
    """Iterate over the lattice box box_size <= k_j <= (j + 2) * box_size.

    The box has exactly prod_j ((j + 1) * box_size + 1) points.
    """
    if box_size < 4:
        raise ValueError(f"box parameter must be at least 4, got {box_size}")
    ranges = [range(box_size, (j + 2) * box_size + 1) for j in range(1, r + 1)]
    return itertools.product(*ranges)


def _lambda_dims(r: int, box_size: int) -> np.ndarray:
    """Dimensions over the lambda_window box as a flat int64 array."""
    corner = [(j + 2) * box_size for j in range(1, r + 1)]
    c = superfactorial(r)
    if dim_irrep(r, corner) * c >= 2**62:
        raise NotImplementedError("box corner dimension exceeds the int64 range")
    axes = [np.arange(box_size, (j + 2) * box_size + 1, dtype=np.int64)
            for j in range(1, r + 1)]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    prefix = [np.int64(0)]
    for g in grids:
        prefix.append(prefix[-1] + g)
    numerator = np.ones((1,) * r, dtype=np.int64)
    for j in range(1, r + 1):
        for ell in range(1, j + 1):
            numerator = numerator * (prefix[j] - prefix[ell - 1])
    flat = numerator.reshape(-1)
    if flat.size != math.prod((j + 1) * box_size + 1 for j in range(1, r + 1)):
        raise AssertionError("box enumeration lost points")
    quotient, remainder = np.divmod(flat, c)
    if remainder.any():
        raise ArithmeticError("dimension polynomial not divisible by the rank factor")
    return quotient


@dataclass(frozen=True)
class WeylWindowReport:
    """Certified window counts and sin^2 lower bounds over a lattice box."""

    rank: int
    box_size: int
    epsilon: float
    window: float
    count_bound: float
    sin2_bound: float
    thetas: np.ndarray
    counts: np.ndarray
    sin2_lower: np.ndarray
    ambiguous: np.ndarray
    grid_note: str

    @property
    def violations(self) -> int:
        return int(np.sum((self.counts < self.count_bound)
                          | (self.sin2_lower < self.sin2_bound)))

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _frac_distance_engine(dims: np.ndarray):
    """Per-frequency distance evaluator over a fixed dimension array.

    Returns a callable theta -> nearest-integer distances of theta * dims,
    writing into a reused buffer.  The splitting of dims is hoisted out of
    the per-frequency loop; the remaining operations replay the rounding
    sequence of `exact_frac_parts` step for step (a_hi * t then the exact
    power-of-two scale equals the precomputed (a_hi << 26) * t, and the
    first accumulation into zero equals an assignment), so results agree
    bit for bit and carry the same FRAC_MARGIN certificate.
    """
    dims = np.asarray(dims)
    if dims.size and int(dims.max()) >= _MAX_EXACT_DIM:
        raise NotImplementedError(
            "dimension values at or above 2^52 exceed the exact-splitting range")
    high = ((dims >> _LOW_BITS) << _LOW_BITS).astype(np.float64)
    low = (dims & _LOW_MASK).astype(np.float64)
    total = np.empty(dims.shape, dtype=np.float64)
    work = np.empty(dims.shape, dtype=np.float64)
    flo = np.empty(dims.shape, dtype=np.float64)

    def distances(theta: float) -> np.ndarray:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"frequency must lie in [0, 1], got {theta}")
        t_hi, t_lo = _veltkamp_split(theta)
        first = True
        for t_part in (t_hi, t_lo):
            for a_part in (high, low):
                np.multiply(a_part, t_part, out=work)  # exact: 26 + 26 bits
                np.floor(work, out=flo)
                np.subtract(work, flo, out=work)  # exact: Sterbenz subtraction
                if first:
                    total[:] = work
                    first = False
                else:
                    np.add(total, work, out=total)
        np.floor(total, out=flo)
        np.subtract(total, flo, out=total)
        np.subtract(1.0, total, out=work)
        np.minimum(total, work, out=work)
        return work

    return distances


def _window_arrays(thetas, dims, window):
    """Certified (counts, sin2 lower bounds, ambiguous counts) per theta.

    sin^2(pi d) >= 4 d^2 on 0 <= d <= 1/2 turns the margin-reduced
    distances into a transcendental-free lower bound for the sin^2 sum.
    Equal dimension values are collapsed to multiplicity weights first;
    box sizes of practical interest repeat roughly a quarter of them.
    """
    unique, mult = np.unique(np.asarray(dims), return_counts=True)
    multf = mult.astype(np.float64)
    distance_at = _frac_distance_engine(unique)
    counts = np.empty(len(thetas), dtype=np.int64)
    sin2_lower = np.empty(len(thetas))
    ambiguous = np.empty(len(thetas), dtype=np.int64)
    for i, theta in enumerate(thetas):
        d = distance_at(float(theta))
        outside = int(np.sum(mult * (d > window + FRAC_MARGIN)))
        near_or_out = int(np.sum(mult * (d >= window - FRAC_MARGIN)))
        counts[i] = outside
        ambiguous[i] = near_or_out - outside
        d -= FRAC_MARGIN
        np.clip(d, 0.0, None, out=d)
        d *= d
        sin2_lower[i] = 4.0 * float(np.dot(d, multf))
    return counts, sin2_lower, ambiguous


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
    Counts are certified (margin-ambiguous points are excluded), so a
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
    counts, sin2_lower, ambiguous = _window_arrays(thetas, dims, window)
    return WeylWindowReport(
        rank=r, box_size=box_size, epsilon=epsilon, window=window,
        count_bound=box_size**r / 32.0,
        sin2_bound=math.sin(math.pi * epsilon * 2.0**-nu) ** 2 / 32.0 * box_size**r,
        thetas=thetas, counts=counts, sin2_lower=sin2_lower,
        ambiguous=ambiguous, grid_note=grid_note)


@dataclass(frozen=True)
class AppendixReport:
    """Certified results for the rank-2 ladder: the main box-window count,
    the sliding odd-multiplier window count, and the run structure of the
    odd-multiplier sequence."""

    box_size: int
    epsilon: float
    thetas: np.ndarray
    box_counts: np.ndarray
    box_bound: float
    ladder_thetas: np.ndarray
    ladder_min_counts: np.ndarray
    ladder_bound: float
    run_thetas: np.ndarray
    run_max_lengths: np.ndarray
    run_length_bound: float
    run_follow_violations: np.ndarray
    ambiguous: np.ndarray

    @property
    def passed(self) -> bool:
        return (not np.any(self.box_counts < self.box_bound)
                and not np.any(self.ladder_min_counts < self.ladder_bound)
                and not np.any(self.run_max_lengths > self.run_length_bound)
                and not np.any(self.run_follow_violations))


def _odd_run_structure(theta: float, epsilon: float, box_size: int):
    """(max run length in the edge set, follow violations, ambiguous) for
    the sequence of fractional parts of (2k+1) theta, 3N <= k < 6N.

    Edge set: distance to the integers <= epsilon / 2.  A follow violation
    is an edge run of length ell whose successor lies outside the edge set
    while one of the next ell - 1 terms falls back in.  Run lengths use
    over-inclusive membership (so a reported maximum certifiably bounds
    the true one); the follow check needs exact membership and is only
    certified when no point lands within the margin of the edge.
    """
    k = np.arange(3 * box_size, 6 * box_size, dtype=np.int64)
    d = _window_distances(theta, 2 * k + 1)
    half = epsilon / 2.0
    ambiguous = int(np.sum(np.abs(d - half) <= FRAC_MARGIN))
    flags = (d <= half + FRAC_MARGIN).tolist()
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
    return max(lengths, default=0), follow_violation and ambiguous == 0, ambiguous


def appendix_window_check(box_size: int, epsilon: float, thetas,
                          grid_note: str = "caller-supplied") -> AppendixReport:
    """Check the rank-2 box-window count with its two ladder steps.

    Main check, for theta in [epsilon N^-3, 1/2]: at least N^2 / 32 points
    of the box N <= k <= 3N, N <= j <= 4N keep theta * a(k, j) at distance
    > epsilon / 8 from the integers.  Ladder checks run on the sub-ranges
    where their hypotheses hold: the odd-multiplier window count >= N / 8
    on every length-N slice of 3N <= k <= 5N (theta >= epsilon / N), and
    the run structure of the odd-multiplier sequence (edge runs no longer
    than N / 2 + 1, with matching follow runs) for theta in
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
    k = np.arange(box_size, 3 * box_size + 1, dtype=np.int64)[:, None]
    j = np.arange(box_size, 4 * box_size + 1, dtype=np.int64)[None, :]
    numerator = k * j * (k + j)
    if numerator.max() % 2:
        raise ArithmeticError("rank-2 dimension polynomial must be even")
    box_dims = (numerator // 2).reshape(-1)
    box_counts, _, box_amb = _window_arrays(thetas, box_dims, epsilon / 8.0)

    ladder_mask = thetas >= epsilon / box_size
    ladder_thetas = thetas[ladder_mask]
    odd = 2 * np.arange(3 * box_size, 6 * box_size, dtype=np.int64) + 1
    min_counts = np.empty(ladder_thetas.size, dtype=np.int64)
    ladder_amb = np.zeros(ladder_thetas.size, dtype=np.int64)
    for i, theta in enumerate(ladder_thetas):
        d = _window_distances(float(theta), odd)
        ladder_amb[i] = int(np.sum(np.abs(d - epsilon / 2.0) <= FRAC_MARGIN))
        inside = (d > epsilon / 2.0 + FRAC_MARGIN).astype(np.int64)
        sliding = np.cumsum(np.concatenate(([0], inside)))
        starts = np.arange(0, 2 * box_size + 1)
        min_counts[i] = int((sliding[starts + box_size] - sliding[starts]).min())

    run_mask = (thetas >= epsilon / box_size) & (thetas <= 0.5 - epsilon / box_size)
    run_thetas = thetas[run_mask]
    run_max = np.empty(run_thetas.size, dtype=np.int64)
    run_follow = np.empty(run_thetas.size, dtype=bool)
    run_amb = np.zeros(run_thetas.size, dtype=np.int64)
    for i, theta in enumerate(run_thetas):
        max_run, follow, amb = _odd_run_structure(float(theta), epsilon, box_size)
        run_max[i] = max_run
        run_follow[i] = follow
        run_amb[i] = amb
    ambiguous = np.array([int(box_amb.sum()), int(ladder_amb.sum()),
                          int(run_amb.sum())])
    return AppendixReport(
        box_size=box_size, epsilon=epsilon, thetas=thetas,
        box_counts=box_counts, box_bound=box_size**2 / 32.0,
        ladder_thetas=ladder_thetas, ladder_min_counts=min_counts,
        ladder_bound=box_size / 8.0,
        run_thetas=run_thetas, run_max_lengths=run_max,
        run_length_bound=box_size / 2.0 + 1.0,
        run_follow_violations=run_follow, ambiguous=ambiguous)


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
# certified truncation error of the shape report, relative to each corner value
SHAPE_REL_ERR = 1e-6


def compare_exact_to_limit(r: int, n: int, which: str, *,
                           params: BoltzmannParams | None = None,
                           census: IrrepCensus | None = None,
                           x_grid=None, t_grid=None, u_grid=None,
                           k=None, limit_census: IrrepCensus | None = None,
                           limit_max_dim: int = 2_000_000) -> LimitGapReport:
    """Gap between an exact Boltzmann-model distribution at size n and its
    limit law, computed without any sampling.

    which selects the observable: "D" and "H" compare the exact extremal
    CDFs against the doubly exponential law on an x-grid; "mult" compares
    the exact geometric law of a fixed weight's multiplicity against the
    exponential law (the sup over the jump points is closed-form); "shape"
    compares the rescaled expected shape functional against the limit
    shape on a corner grid, relatively; "mgf" compares the exact
    transformed-count mgf against the limit product on a u-grid.

    The shape report needs a census that reaches every corner: its own
    census doubles its cutoff until the certified truncation error is at
    most SHAPE_REL_ERR of the exact value at every corner, and a census
    passed in that cannot meet this is refused with a ValueError.
    """
    if params is None:
        params = solve_saddle(r, n)
    own_census = census is None
    if own_census and which in ("D", "H", "mgf"):
        census = enumerate_irreps(r, params.cutoff, keep_weights=which == "H")
    constants = compute_constants(r, n, s=params.s)
    s = params.s

    if which in ("D", "H"):
        xs = np.linspace(-3.0, 6.0, 181) if x_grid is None else np.asarray(x_grid)
        if which == "D":
            center, scale = constants.max_dim_center, constants.max_dim_scale
            prob = exact_prob_max_dim_le
        else:
            center, scale = constants.height_center, constants.height_scale
            prob = exact_prob_height_le
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
        if own_census:
            # the farthest corner starts at dim(K, ..., K); twice that cutoff
            # leaves a tail far below the corner's own value
            far = math.ceil(float(corners.max()))
            cutoff = max(params.cutoff, 2 * dim_irrep(r, (far,) * r))
        for _ in range(8):
            if own_census:
                census = enumerate_irreps(r, cutoff, keep_weights=True)
            values, err = exact_expected_shape(params, census, corners)
            if err <= SHAPE_REL_ERR * float(values.min()):
                break
            if not own_census:
                raise ValueError(
                    f"census cutoff {census.max_dim} leaves a shape truncation "
                    f"error {err:.3g} above {SHAPE_REL_ERR} of the smallest "
                    f"corner value {float(values.min()):.3g}; enlarge the census")
            cutoff *= 2
        else:
            raise RuntimeError(f"no census up to cutoff {cutoff} certifies "
                               "every shape corner")
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

    if which == "mgf":
        us = np.asarray(_MGF_GRID if u_grid is None else u_grid, dtype=float)
        if limit_census is None:
            limit_census = enumerate_irreps(r, limit_max_dim)
        exact = np.empty(us.size)
        limit = np.empty(us.size)
        exact_err = 0.0
        limit_err = 0.0
        for i, u in enumerate(us):
            value, e = exact_count_mgf(params, census, float(u))
            exact[i] = value
            exact_err = max(exact_err, e)
            lvalue, le = count_mgf(r, float(u), limit_census)
            limit[i] = lvalue
            limit_err = max(limit_err, le)
        gap = float(np.max(np.abs(exact - limit)))
        return LimitGapReport(
            which, r, n, us, exact, limit, gap, False, exact_err, limit_err,
            "transformed-count mgf on the standard u-grid")

    raise ValueError(f"unknown observable {which!r}; "
                     "expected one of D, H, mult, shape, mgf")

"""Limit laws and normalizing constants for large random representations.

The scaling limits are all driven by the region volume C_r of
{y > 0 : dim form <= 1}.  Because the dimension form is homogeneous of
degree nu = r(r+1)/2, the volume of {dim form <= x} is exactly
C_r x^{2/(r+1)} for every x > 0, so by the layer-cake formula any integral
of a radial function of the form collapses to one dimension:

    int g(a(y)) dy = C_r * beta * int_0^inf g(t) t^{beta-1} dt,
    beta = 2/(r+1).

With g(t) = t^p e^{-t}/(1-e^{-t})^p (p = 1, 2) the right side evaluates in
closed form through Gamma and zeta, which is how `dim_moment_integral`
avoids slowly converging r-dimensional quadrature (the integrands tend to
a positive constant along the coordinate axes, so box truncation at radius
T leaves a 1/T error).

The same homogeneity reduces the limit shape.  Every point y >= t lies on
the ray through exactly one point z of a face {z_j = t_j, z >= t}, and
integrating along the ray in closed form gives

    f_r(t) = int_{P(t)}^inf x^{-c} G_c(x) W_t(x) dx,   c = 2/(r+1),

with G_c(x) = int_x^inf w^{c-1}/(e^w - 1) dw (`bose_tail`) and W_t(x) =
(1/nu) sum_j t_j d/dx area{z on face j : P(z) <= x}.  `limit_shape`
evaluates f_r on the diagonal t = (t, ..., t) only.  At rank 2 W_t is
closed form and the integrand is completely monotone, which is what lets
`limit_shape` certify its error there.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .census import _U, IrrepCensus, inverse_moment_tail, region_volume
from .weights import degree

_FLOAT_MAX = float(np.finfo(np.float64).max)


@lru_cache(maxsize=None)
def _bernoulli_ratios(count: int) -> tuple:
    """B_2j / (2j)! for j = 1..count, rounded once from exact rationals.

    a_m = B_m / m! solves sum_{k=0}^m a_k / (m + 1 - k)! = 0 for m >= 1,
    and a_k = 0 for odd k >= 3."""
    from fractions import Fraction

    a = {0: Fraction(1), 1: Fraction(-1, 2)}
    for m in range(2, 2 * count + 1, 2):
        a[m] = -sum(a_k / math.factorial(m + 1 - k) for k, a_k in a.items())
    return tuple(float(a[2 * j]) for j in range(1, count + 1))


def zeta(s: float) -> float:
    """Riemann zeta at real s > 0, s != 1, by Euler-Maclaurin summation.

    The first nine terms are summed directly; the tail from k = 10 is
    N^(1-s)/(s-1) + N^(-s)/2 plus eight Bernoulli corrections.  For every
    s > 0, k^(-s) is completely monotone, so the remainder is below the
    first omitted correction, B_18/18! s(s+1)...(s+16) 10^(-s-17), which is
    < 1e-17 relative to zeta(s) (|zeta| >= 1/2 on (0, 1)).  What is left
    is float rounding: a few ulps for s > 1, and for 0 < s < 1, where terms
    near 10 in size cancel, a few ulps of those (within 5e-15 relative).
    """
    if not (s > 0.0 and s != 1.0):
        raise ValueError(f"real zeta needs s > 0 and s != 1, got {s}")
    N = 10
    terms = [k ** -s for k in range(1, N)]
    terms += [N ** (1.0 - s) / (s - 1.0), 0.5 * N ** -s]
    rising = s                      # s (s+1) ... (s+2j-2)
    power = N ** (-s - 1.0)         # N^(-s-2j+1)
    for j, coeff in enumerate(_bernoulli_ratios(8)):
        terms.append(coeff * rising * power)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        power /= N * N
    return math.fsum(terms)


@lru_cache(maxsize=None)
def dim_moment_integral(r: int, p: int):
    """(value, err): int over [0,inf)^r of a^p e^{-a}/(1-e^{-a})^p dy
    for p = 1 or 2, by the exact layer-cake reduction.

    Expanding the geometric factor termwise gives
    C_r beta Gamma(p+beta) zeta(1+beta) for both p = 1 and p = 2.
    """
    if p not in (1, 2):
        raise ValueError(f"moment integral implemented for p in {{1, 2}}, got {p}")
    vol, vol_err = region_volume(r)
    beta = 2.0 / (r + 1)
    factor = beta * math.gamma(p + beta) * zeta(1.0 + beta)
    return vol * factor, vol_err * factor


@lru_cache(maxsize=None)
def saddle_scale_constant(r: int) -> float:
    """Constant in s_n ~ const * n^{-2/(r(r+3))}: the p = 1 moment integral
    raised to 2/(r(r+3))."""
    j1, _ = dim_moment_integral(r, 1)
    return j1 ** (2.0 / (r * (r + 3)))


def variance_scale_constant(r: int) -> float:
    """Constant in sigma_n^2 ~ const * s_n^{-r(r+2)}: the p = 2 moment."""
    j2, _ = dim_moment_integral(r, 2)
    return j2


def dispersion_constant(r: int) -> float:
    """Variance constant in the n-scale: sigma_n^2 ~ const * n^{2(r+2)/(r+3)}."""
    return variance_scale_constant(r) / saddle_scale_constant(r) ** (r * (r + 2))


def asymptotic_saddle(r: int, n) -> float:
    """Leading-order saddle scale s_n (seed and cross-check for the solver)."""
    if n < 1:
        raise ValueError(f"target dimension must be >= 1, got {n}")
    if not n < _FLOAT_MAX:  # also refuses inf and nan
        raise ValueError(f"target dimension must be below the largest float, "
                         f"{_FLOAT_MAX:.4g}: the saddle scale is computed from float(n)")
    return saddle_scale_constant(r) * float(n) ** (-2.0 / (r * (r + 3)))


# ---- normalizing constants for the statistics ----

class LimitConstants(NamedTuple):
    """Centering/scaling constants of the limit laws at the saddle s; every
    field but `rank` depends on s.

    max_dim_* normalize the largest dimension (Gumbel limit), height_*
    the largest height (Gumbel), count_scale multiplies the number of
    irreducible components (mgf-characterized limit), mult of weight k is
    scaled by count_scale * dim(k) (exponential limit), and the shape
    functional at level t is s^r * shape(t / s).
    """

    rank: int
    s: float
    max_dim_center: float
    max_dim_scale: float
    height_center: float
    height_scale: float

    @property
    def count_scale(self) -> float:
        return self.s ** degree(self.rank)


def compute_constants(r: int, s: float) -> LimitConstants:
    """Evaluate every normalizer at the saddle s, the solved value from
    `boltzmann.solve_saddle` that the gap reports use.  A normalizer whose
    log-scale parameter is not positive (s too coarse) is left NaN.  At
    rank 1 the H normalizers are D's, rescaled: a_H = (a_D - 1) / 2 and
    b_H = b_D / 2, NaN where D's are."""
    vol, _ = region_volume(r)
    nu = degree(r)
    omega = -r * math.log(s)
    alpha = math.factorial(r) * math.log(2.0 * math.factorial(r - 1)
                                         * s ** (-(r + 1) / 2.0))

    b_d = s ** (-nu)
    if omega > 0.0:
        a_d = b_d * (omega - (r - 1) / (r + 1) * math.log(omega)
                     + math.log(2.0 * vol / (r + 1)))
    else:
        a_d = math.nan

    if r == 1:
        # a rank-1 weight k has dimension k and height (k - 1) / 2, so
        # H = (D - 1) / 2 and the H law is the D law under x -> (x - 1) / 2
        a_h, b_h = (a_d - 1.0) / 2.0, b_d / 2.0
    elif alpha > 0.0:
        b_h = (math.factorial(r) / 2.0 * s ** (-(r + 1) / 2.0)
               * alpha ** (-(r - 1) / r))
        a_h = b_h * (alpha / math.factorial(r - 1)
                     - (r - 1) / r * math.log(alpha))
    else:
        a_h, b_h = math.nan, math.nan

    return LimitConstants(rank=r, s=s, max_dim_center=a_d, max_dim_scale=b_d,
                          height_center=a_h, height_scale=b_h)


# ---- reference distributions ----

def gumbel_cdf(x):
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def exp_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, -np.expm1(-x), 0.0)


# ---- the limit shape ----

_SERIES_BELOW = 3.0   # bose_tail: Bernoulli series below, Gamma sum above
_SERIES_TERMS = 30    # Bernoulli terms; the next is < 1e-19 relative at x < 3
_GAMMA_SPAN = 40.0    # Gamma sum: keep k while (k - 1) x <= this


def _gamma_fraction(c: float, y: np.ndarray):
    """(h, err) with Gamma(c, y) = y^c e^(-y) h(y), 0 < c < 1, y > 0.

    h is the Stieltjes continued fraction 1/(y+ (1-c)/(1+ 1/(y+ (2-c)/(1+
    2/(y+ ...))))) evaluated by the forward recurrence, rescaled every step.
    Its elements are positive, so successive convergents bracket h and the
    numerators and denominators are sums of positive terms: each step adds
    at most 4 roundings, so a convergent after n steps is within 8nu
    relative of its exact value (u the unit roundoff).  err is the last
    convergent step plus three times that rounding bound."""
    a2, a1 = np.ones_like(y), np.zeros_like(y)
    b2 = np.zeros_like(y)
    prev = np.full_like(y, np.inf)
    for n in range(1, 1000):
        j, odd = divmod(n, 2)
        num, den = (max(j, 1), y) if odd else (j - c, 1.0)
        a = den * a1 + num * a2
        b = den + num * b2      # the previous denominator is rescaled to 1
        a2, a1, b2 = a1 / b, a / b, 1.0 / b
        step = np.abs(a1 - prev)
        if np.all(step <= 8.0 * _U * a1):
            return a1, step + 3.0 * (8 * n + 32) * _U * a1
        prev = a1
    raise RuntimeError("incomplete-gamma continued fraction did not settle")


def bose_tail(c: float, x):
    """(value, err): G_c(x) = int_x^inf w^(c-1) / (e^w - 1) dw for
    0 < c < 1 and x > 0, elementwise over an array; err bounds each value.

    Below x = 3, G_c(x) = Gamma(c) zeta(c) - sum_n B_n/n! x^(n+c-1)/(n+c-1)
    (the continued Mellin transform of 1/(e^w - 1)).  The even terms
    alternate in sign and shrink for x < 2 pi, so the truncation error is
    below the first omitted term; rounding is charged (terms + 16) u times
    the sum of the magnitudes, and Gamma(c) zeta(c) 256 u of itself.

    From x = 3 on, G_c(x) = sum_k k^(-c) Gamma(c, k x) = x^c sum_k e^(-kx)
    h(kx) by the continued fraction of `_gamma_fraction`.  k runs while
    (k - 1) x <= 40; the rest is below e^(-(K+1)x) / ((K+1) x (1 - e^(-x)))
    because h(y) <= 1/y.  Each term also carries (kx + 8) u for the
    rounding of kx inside the exponential.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"bose_tail needs 0 < c < 1, got {c}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("bose_tail needs x > 0")
    value = np.empty_like(x)
    err = np.empty_like(x)

    low = x < _SERIES_BELOW
    xl = x[low]
    const = math.gamma(c) * zeta(c)
    terms = [np.full_like(xl, const), xl ** (c - 1.0) / (1.0 - c),
             xl**c / (2.0 * c)]
    coeffs = _bernoulli_ratios(_SERIES_TERMS + 1)
    for j, coeff in enumerate(coeffs[:-1], start=1):
        terms.append(-coeff * xl ** (2 * j + c - 1.0) / (2 * j + c - 1.0))
    j = _SERIES_TERMS + 1
    omitted = abs(coeffs[-1]) * xl ** (2 * j + c - 1.0) / (2 * j + c - 1.0)
    value[low] = sum(terms)
    err[low] = (omitted + (len(terms) + 16) * _U * sum(np.abs(t) for t in terms)
                + 256.0 * _U * abs(const))

    xh = x[~low]
    ks = np.arange(1.0, math.floor(_GAMMA_SPAN / _SERIES_BELOW) + 2.0)
    used = (ks - 1.0) * xh[:, None] <= _GAMMA_SPAN
    y = (xh[:, None] * ks)[used]
    h, h_err = _gamma_fraction(c, y)
    decay = np.exp(-y)
    term = np.zeros(used.shape)
    term_err = np.zeros(used.shape)
    term[used] = decay * h
    term_err[used] = decay * (h_err + (y + 8.0) * _U * h)
    last = used.sum(axis=1) + 1.0
    tail = np.exp(-last * xh) / (last * xh * -np.expm1(-xh))
    total = term.sum(axis=1)
    scale = xh**c
    value[~low] = scale * total
    err[~low] = scale * (term_err.sum(axis=1) + tail
                         + (ks.size + 8) * _U * total)
    return value, err


@lru_cache(maxsize=None)
def _gauss_lobatto(n: int):
    """n-point Gauss-Legendre and (n+1)-point Gauss-Lobatto rules on
    [0, 1], as (nodes, weights) pairs, by Golub-Welsch.  The Lobatto
    interior nodes are the Gauss-Jacobi(1, 1) nodes."""
    def jacobi_rule(offdiag, mass):
        nodes, vectors = np.linalg.eigh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
        return nodes, mass * vectors[0] ** 2

    k = np.arange(1.0, n)
    g_nodes, g_weights = jacobi_rule(k / np.sqrt(4.0 * k * k - 1.0), 2.0)
    k = np.arange(1.0, n - 1)
    inner, w = jacobi_rule(np.sqrt(k * (k + 2.0) / ((2 * k + 1) * (2 * k + 3))),
                           4.0 / 3.0)
    end = 2.0 / (n * (n + 1))
    l_nodes = np.concatenate([[-1.0], inner, [1.0]])
    l_weights = np.concatenate([[end], w / (1.0 - inner**2), [end]])
    return ((g_nodes + 1.0) / 2.0, g_weights / 2.0), ((l_nodes + 1.0) / 2.0, l_weights / 2.0)


_SHAPE_SPAN = 45.0    # integrate x over [P(t), P(t) + 45]; the rest is bounded
_SHAPE_RATIO = 0.7    # cells grow by this fraction of x ...
_SHAPE_STEP = 3.0     # ... but by no more than this
_SHAPE_NODES = 8      # Gauss points per cell (the Lobatto rule has one more)
_FACE_NODES = 16      # rank 3: Gauss points along each level curve


def _shape_cells(x0: float, refine: int = 1) -> np.ndarray:
    """Cell boundaries from x0 to x0 + span: geometric where x is small
    (the integrand behaves like 1/x there), of bounded width beyond
    (it decays like e^(-x)); each cell split into `refine` equal parts."""
    bounds = [x0]
    while bounds[-1] < x0 + _SHAPE_SPAN:
        bounds.append(bounds[-1] + min(_SHAPE_RATIO * bounds[-1], _SHAPE_STEP))
    b = np.array(bounds)
    parts = np.arange(refine) / refine
    return np.append((b[:-1, None] + np.diff(b)[:, None] * parts).ravel(), b[-1])


def _rank_two_weight(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W_t(x) at rank 2 on the diagonal corner (t, t): on either face,
    x = P(z) gives t dz = 2 dx / sqrt(t^2 + 8x/t)."""
    return (4.0 / 3.0) * (t**2 + 8.0 * x / t) ** -0.5


def _solve_log(log_form, log_x, u):
    """Newton steps for log_form(u) = log_x, where log_form returns a convex
    increasing function and its slope: from a start at or below the root,
    the first step lands above it and the rest descend to it."""
    tol = 1e-14 * (1.0 + np.abs(log_x))
    for _ in range(100):
        value, slope = log_form(u)
        step = (value - log_x) / slope
        u = u - step
        if np.all(np.abs(step) <= tol * np.maximum(1.0, np.abs(u))):
            return u
    raise RuntimeError("level-curve Newton iteration did not settle")


def _rank_three_weight(t: np.ndarray, x: np.ndarray, nodes: int) -> np.ndarray:
    """W_t(x) at rank 3 on the diagonal corner (t, t, t), by Gauss-Legendre
    along each level curve.

    On face j the dimension form is (t/12) prod (a + b p + c z) over five
    linear factors in the free coordinates (p, z), so log P is convex and
    increasing in log p and in log z.  Reversing the coordinates keeps the
    dimension form and swaps faces 1 and 3, so face 1 counts twice.  The
    level curve P = x runs in log p from p = t to the edge where z = t;
    `_solve_log` finds the edge and z(p).  The curve's co-area density is
    dp / (dP/dz), with dP/dz = x sum c / (a + b p + c z)."""
    t = t[:, None]
    faces = (  # how often the face counts, factors (a, b, c)
        (2, ((0, 1, 0), (0, 0, 1), (t, 1, 0), (0, 1, 1), (t, 1, 1))),
        (1, ((0, 1, 0), (0, 0, 1), (t, 1, 0), (t, 0, 1), (t, 1, 1))),
    )
    (s, w), _ = _gauss_lobatto(nodes)
    log_x = np.log(x)[:, None]
    total = np.zeros_like(x)
    for count, factors in faces:
        def log_form(p, z, wrt_p):
            value, slope = np.log(t / 12.0), 0.0
            for a, b, c in factors:
                lin = a + b * p + c * z
                value = value + np.log(lin)
                slope = slope + (b * p if wrt_p else c * z) / lin
            return value, slope

        span = np.maximum(_solve_log(
            lambda u: log_form(t * np.exp(u), t, True), log_x, np.zeros_like(t)), 0.0)
        p = t * np.exp(span * s)
        z = t * np.exp(_solve_log(
            lambda v: log_form(p, t * np.exp(v), False), log_x, np.zeros_like(p)))
        slope = sum(c / (a + b * p + c * z) for a, b, c in factors)
        total += count * (t * span)[:, 0] * ((p / slope) @ w)
    return total / (6.0 * x)


def _shape_rules(r: int, t: np.ndarray, x0: np.ndarray, refine: int = 1,
                 face_nodes: int = _FACE_NODES):
    """Per level t: the Gauss and Lobatto sums of f = x^(-c) G_c(x) W_t(x)
    over the cells from x0 = P(t, ..., t), the error those sums carry from
    the node values, and a bound for the integral beyond the last cell."""
    c = 2.0 / (r + 1)
    m = x0.size
    bounds = [_shape_cells(float(x), refine) for x in x0]
    level = np.repeat(np.arange(m), [b.size - 1 for b in bounds])
    lo = np.concatenate([b[:-1] for b in bounds])
    width = np.concatenate([np.diff(b) for b in bounds])
    x_end = np.array([b[-1] for b in bounds])
    rules = _gauss_lobatto(_SHAPE_NODES)
    # every rule's nodes in every cell, then each level's x0 and last bound
    x = np.concatenate([(lo[:, None] + width[:, None] * nodes).ravel()
                        for nodes, _ in rules] + [x0, x_end])
    owner = np.concatenate([np.repeat(level, nodes.size) for nodes, _ in rules]
                           + [np.arange(m), np.arange(m)])
    if r == 2:
        weight = _rank_two_weight(t[owner], x)
    else:
        weight = _rank_three_weight(t[owner], x, face_nodes)
    g, g_err = bose_tail(c, x)
    f = x**-c * g * weight
    # the node's own rounding adds (8x + 16)u: at rank 2 |f'/f| <= 4 + 4/x
    f_err = x**-c * g_err * weight + (8.0 * x + 16.0) * _U * f
    sums = []
    start = 0
    for nodes, weights in rules:
        stop = start + width.size * nodes.size
        for values in (f, f_err):
            cell = width * (values[start:stop].reshape(width.size, -1) @ weights)
            sums.append(np.bincount(level, weights=cell, minlength=m))
        start = stop
    gauss, gauss_err, lobatto, lobatto_err = sums
    # x0 carries at most 8 roundings, and f is largest there at rank 2
    node_err = np.maximum(gauss_err, lobatto_err) + 8.0 * _U * x0 * f[-2 * m:-m]
    tail = weight[-m:] * np.exp(-x_end) / (x_end * -np.expm1(-x_end))
    return gauss, lobatto, node_err, tail


def limit_shape(r: int, levels):
    """(values, errs): the limit shape f_r(t) = int over [t, inf)^r of
    e^(-P(y)) / (1 - e^(-P(y))) dy, P the dimension form, on the diagonal
    corner (t, ..., t) for each level t > 0 of the 1-D array levels, one
    value and error per level.  P is homogeneous of degree nu and
    P(1, ..., 1) = 1, the dimension of the trivial module, so P(t, ..., t)
    = t^nu.  Rank 1 is closed form.  Ranks 2 and 3 integrate x^(-c) G_c(x)
    W_t(x) over x from t^nu (see the module docstring) on cells that grow
    geometrically and then linearly, with an 8-point Gauss and a 9-point
    Lobatto rule.

    At rank 2 the integrand is completely monotone: x^(-c), G_c (whose
    -G_c' = x^(c-1)/(e^x - 1) is) and (t^2 + 8x/t)^(-1/2) are, and so is
    their product.  Its eighth derivative is therefore positive, so the
    Gauss sum lies below the integral and the Lobatto sum above it.  err
    is half that bracket widened by the node error bounds of `bose_tail`,
    the rounding of the nodes and of t^nu, the integral beyond the last
    cell (W_t(X) e^(-X) / (X (1 - e^(-X))), because x^(-c) G_c(x) <=
    e^(-x) / (x (1 - e^(-x)))) and 64u of the value: a proven bound, below
    1e-11 relative on the default grid.

    At rank 3 W_t(x) vanishes at t^nu and is not monotone, so the bracket
    does not hold.  err is then an estimate: the change of the midpoint
    value when every cell is halved and the level-curve rule doubled, plus
    the half-bracket and the bounds above on the refined mesh.
    """
    if r not in (1, 2, 3):
        raise NotImplementedError(f"limit shape implemented for rank <= 3, got {r}")
    t = np.asarray(levels, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"levels must be a 1-D array, got shape {t.shape}")
    if not np.all(t > 0.0):
        raise ValueError(f"shape level must be strictly positive, got {levels}")
    with np.errstate(over="ignore"):  # refused below
        x0 = t ** degree(r)
    if r == 1:
        values = np.where(x0 < math.log(2.0), -np.log(-np.expm1(-x0)),
                          -np.log1p(-np.exp(-x0)))
        return values, 8.0 * _U * values
    if not np.all((x0 > 0.0) & (x0 < math.inf)):
        raise ValueError(f"shape level {levels} puts P(t, ..., t) outside the floats")
    gauss, lobatto, node_err, tail = _shape_rules(r, t, x0)
    values = 0.5 * (gauss + lobatto + tail)
    err = 0.5 * (np.abs(lobatto - gauss) + tail) + node_err
    if r == 3:
        coarse = values
        gauss, lobatto, node_err, tail = _shape_rules(
            r, t, x0, refine=2, face_nodes=2 * _FACE_NODES)
        values = 0.5 * (gauss + lobatto + tail)
        err = (np.abs(values - coarse) + 0.5 * (np.abs(lobatto - gauss) + tail)
               + node_err)
    return values, err + 64.0 * _U * values


# ---- moment generating function of the limiting component count ----

def _mgf_points(u):
    """u as an array, which must be a real 1-D array in (-1, 1)."""
    us = np.asarray(u)
    if us.ndim != 1 or not np.isrealobj(us) or not np.all((-1.0 < us) & (us < 1.0)):
        raise ValueError(f"mgf points must be a real 1-D array in (-1, 1), got {u}")
    return us


def count_mgf(u, census: IrrepCensus):
    """(values, errs): M(u) = prod over weights (1 - u/a)^{-1}, the mgf of
    the limiting scaled component count at the census's rank, at each point
    of the real 1-D array u in (-1, 1), all from one set of census tails.
    Converges only for rank >= 2 (the rank-1 product diverges like the
    harmonic series).  The census part is summed in floats: every factor
    1 - u/m is positive, and its log1p(-u/m) moves by at most |log1p| u /
    (1 - |u|) through the rounding of u/m and by 2u of itself, the product
    by rho adds u, and the K class terms, which share one sign, (K - 1)u of
    their sum.  The tail uses a three-term log expansion whose sums come
    from `inverse_moment_tail` with their certified errors, rounded within
    a few u of their magnitudes, and needs |u| <= max_dim / 2; exp adds 2u
    of the value.
    """
    if census.rank < 2:
        raise ValueError("count mgf diverges at rank 1 (harmonic series); need rank >= 2")
    us = _mgf_points(u)
    size = np.abs(us)
    X = census.max_dim
    if np.any(size > X / 2.0):
        raise ValueError(f"|u| = {size.max():.3g} too large for census cutoff {X}")
    log_main = -np.sum(census.counts * np.log1p(-us[:, None] / census.dims.astype(float)),
                       axis=1)

    tails = {j: inverse_moment_tail(census, j) for j in (1, 2, 3, 4)}
    log_tail = sum(us**j / j * tails[j][0] for j in (1, 2, 3))
    err_log = sum(size**j / j * tails[j][1] for j in (1, 2, 3))
    s4 = tails[4][0] + tails[4][1]
    err_log += size**4 / (4.0 * (1.0 - size / X)) * s4
    magnitude = np.abs(log_main) + sum(size**j / j * tails[j][0] for j in (1, 2, 3))
    err_log += (census.dims.size + 8.0 + 1.0 / (1.0 - size)) * _U * magnitude

    value = np.exp(log_main + log_tail)
    with np.errstate(over="ignore"):
        return value, value * (np.expm1(err_log) + 3.0 * _U)

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
T leaves a 1/T error).  A direct truncated-box quadrature stays available
as `moment_box_quadrature` for cross-checking at rank 2.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .census import IrrepCensus, inverse_moment_tail, region_volume
from .weights import degree, dim_poly


# B_{2j} / (2j)! for j = 1..8, the Euler-Maclaurin coefficients
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
              1.0 / 47900160.0, -691.0 / 1307674368000.0,
              1.0 / 74724249600.0, -3617.0 / 10670622842880000.0)


def zeta(s: float) -> float:
    """Riemann zeta at real s > 1 by Euler-Maclaurin summation.

    The first nine terms are summed directly; the tail from k = 10 is
    N^(1-s)/(s-1) + N^(-s)/2 plus eight Bernoulli corrections.  k^(-s) is
    completely monotone, so the remainder is below the first omitted
    correction, B_18/18! s(s+1)...(s+16) 10^(-s-17) < 6e-18 relative to
    zeta(s) for every s > 1; what is left is float rounding, a few ulps.
    """
    if not s > 1.0:
        raise ValueError(f"real zeta needs s > 1, got {s}")
    N = 10
    terms = [k ** -s for k in range(1, N)]
    terms += [N ** (1.0 - s) / (s - 1.0), 0.5 * N ** -s]
    rising = s                      # s (s+1) ... (s+2j-2)
    power = N ** (-s - 1.0)         # N^(-s-2j+1)
    for j, coeff in enumerate(_EM_COEFFS):
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


def moment_box_quadrature(p: int, box: float = 200.0):
    """Rank-2 cross-check of `dim_moment_integral`: adaptive quadrature on
    [0, box]^2 plus the analytic strip-tail correction 4 K_p / box, where
    K_p = int_0^inf t^p e^{-t}/(1-e^{-t})^p dt (pi^2/6 for p = 1, pi^2/3
    for p = 2; each of the two strips beyond the box contributes
    2 K_p / box).  Two quadrature traps are defused explicitly.  The inner
    integrand concentrates in a spike of width ~ 1/y1^2 near the axis, so
    the level-set roots at heights 1e-3 and 60 are passed as breakpoints;
    without them the adaptive rule sees only zeros once y1 is moderately
    large.  The outer profile behaves like c/sqrt(y1) near zero with a
    narrow clipping dip the adaptive rule cannot resolve against the
    singularity (it silently returns a value biased by 2 K_p / box with a
    misleadingly small error estimate), so the stretch [0, 1] is computed
    under the substitution y1 = w^2, which makes the profile bounded and
    smooth.  Accuracy is O(box^{-2}) from the strip approximation; this is
    the slowly converging route the closed form replaces."""
    if p not in (1, 2):
        raise ValueError(f"box quadrature implemented for p in {{1, 2}}, got {p}")
    from scipy.integrate import IntegrationWarning, quad

    def g(a):
        if a < 1e-12:
            return 1.0
        if a > 700.0:
            return 0.0
        e = math.exp(-a)
        return a**p * e / (1.0 - e) ** p

    def level_root(y1, t):
        # largest y2 with y1 y2 (y1 + y2) / 2 <= t, rationalized
        return 4.0 * t / (y1 * (math.sqrt(y1 * y1 + 8.0 * t / y1) + y1))

    def inner(y1):
        if y1 <= 0.0:
            return box
        cuts = sorted({min(level_root(y1, t), box) for t in (1e-3, 60.0)})
        with warnings.catch_warnings():
            # the claimed error is dominated by the strip term, not the
            # inner refinement, so subdivision-limit chatter is noise here
            warnings.simplefilter("ignore", IntegrationWarning)
            v, _ = quad(lambda y2: g(dim_poly(2, (y1, y2))), 0.0, box,
                        points=cuts, epsabs=1e-11, epsrel=1e-9, limit=300)
        return v

    val_lo, err_lo = quad(lambda w: 2.0 * w * inner(w * w), 0.0, 1.0,
                          epsabs=1e-10, epsrel=1e-9, limit=300)
    val_hi, err_hi = quad(inner, 1.0, box, epsabs=1e-10, epsrel=1e-9, limit=300)
    k_p = math.pi**2 / 6.0 if p == 1 else math.pi**2 / 3.0
    return val_lo + val_hi + 4.0 * k_p / box, err_lo + err_hi + 16.0 * k_p / box**2


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
    return saddle_scale_constant(r) * float(n) ** (-2.0 / (r * (r + 3)))


# ---- normalizing constants for the statistics ----

@dataclass(frozen=True)
class LimitConstants:
    """Centering/scaling constants of the limit laws, at a given saddle s.

    max_dim_* normalize the largest dimension (Gumbel limit), height_*
    the largest height (Gumbel), count_scale multiplies the number of
    irreducible components (mgf-characterized limit), mult of weight k is
    scaled by count_scale * dim(k) (exponential limit), and the shape
    functional at corner t is s^r * shape(t / s).
    """

    rank: int
    n: float
    s: float
    volume: float
    saddle_scale: float
    variance_scale: float
    dispersion: float
    alpha: float
    max_dim_center: float
    max_dim_scale: float
    height_center: float
    height_scale: float

    @property
    def count_scale(self) -> float:
        return self.s ** degree(self.rank)


def compute_constants(r: int, n, s: float | None = None) -> LimitConstants:
    """Evaluate every normalizer at the saddle s (pass the solved value from
    `boltzmann.solve_saddle` for finite-n curves; defaults to the asymptotic
    saddle).  Warns when n is too small for the height normalizer (its
    log-scale parameter must be positive)."""
    if s is None:
        s = asymptotic_saddle(r, n)
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
        warnings.warn(f"saddle {s} too coarse for the max-dimension normalizer "
                      f"(log scale {omega} <= 0)")
        a_d = math.nan

    if alpha > 0.0:
        b_h = (math.factorial(r) / 2.0 * s ** (-(r + 1) / 2.0)
               * alpha ** (-(r - 1) / r))
        a_h = b_h * (alpha / math.factorial(r - 1)
                     - (r - 1) / r * math.log(alpha))
    else:
        warnings.warn(f"saddle {s} too coarse for the height normalizer "
                      f"(log scale {alpha} <= 0)")
        a_h, b_h = math.nan, math.nan

    return LimitConstants(rank=r, n=float(n), s=s, volume=vol,
                          saddle_scale=saddle_scale_constant(r),
                          variance_scale=variance_scale_constant(r),
                          dispersion=dispersion_constant(r),
                          alpha=alpha,
                          max_dim_center=a_d, max_dim_scale=b_d,
                          height_center=a_h, height_scale=b_h)


# ---- reference distributions ----

def gumbel_cdf(x):
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def exp_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, -np.expm1(-x), 0.0)


def limit_shape(r: int, t, tol: float = 1e-9) -> float:
    """f_r(t) = int over prod [t_j, inf) of e^{-a}/(1-e^{-a}) dy, t_j > 0.

    Rank 1 is closed form; ranks 2 and 3 use adaptive quadrature after the
    substitution y_j = t_j - log u_j, which maps to the unit cube and decays
    double-exponentially toward the far corners (no truncation needed)."""
    t = [float(v) for v in (t if hasattr(t, "__len__") else (t,))]
    if len(t) != r:
        raise ValueError(f"corner point must have {r} coordinates")
    if min(t) <= 0.0:
        raise ValueError(f"shape corner must be strictly positive, got {t}")

    def g(a):
        if a > 700.0:
            return 0.0
        e = math.exp(-a)
        return e / (1.0 - e)

    if r == 1:
        return -math.log(-math.expm1(-t[0]))
    from scipy.integrate import dblquad, tplquad

    if r == 2:
        def f(u2, u1):
            y1 = t[0] - math.log(u1)
            y2 = t[1] - math.log(u2)
            return g(dim_poly(2, (y1, y2))) / (u1 * u2)

        val, _ = dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=tol, epsrel=1e-8)
        return val
    if r == 3:
        def f(u3, u2, u1):
            y = (t[0] - math.log(u1), t[1] - math.log(u2), t[2] - math.log(u3))
            return g(dim_poly(3, y)) / (u1 * u2 * u3)

        val, _ = tplquad(f, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0,
                         epsabs=max(tol, 1e-8), epsrel=1e-7)
        return val
    raise NotImplementedError(f"limit shape implemented for rank <= 3, got {r}")


# ---- moment generating function of the limiting component count ----

def _tail_moments(census, volume):
    return {j: inverse_moment_tail(census, j, volume) for j in (1, 2, 3, 4)}


def count_mgf(r: int, u, census: IrrepCensus):
    """(value, err): M(u) = prod over weights (1 - u/a)^{-1}, the mgf of the
    limiting scaled component count.  Meromorphic with poles at the module
    dimensions; converges only for r >= 2 (the rank-1 product diverges like
    the harmonic series).  Accepts complex u.  Census factors are exact;
    the tail uses a three-term log expansion with certified remainders, and
    needs |u| <= max_dim / 2.
    """
    if r < 2:
        raise ValueError("count mgf diverges at rank 1 (harmonic series); need r >= 2")
    if census.rank != r:
        raise ValueError(f"census has rank {census.rank}, expected {r}")
    uc = complex(u)
    X = census.max_dim
    if abs(uc) > X / 2.0:
        raise ValueError(f"|u| = {abs(uc):.3g} too large for census cutoff {X}")
    m = census.dims.astype(float)
    rho = census.counts.astype(float)
    rel = 1.0 - uc / m
    if np.min(np.abs(rel)) < 1e-9:
        raise ValueError(f"u = {u} is within 1e-9 of a pole of the product")
    log_main = -complex(np.sum(rho * np.log(rel)))

    vol, _ = region_volume(r)
    tails = _tail_moments(census, vol)
    log_tail = sum(uc**j / j * tails[j][0] for j in (1, 2, 3))
    err_log = sum(abs(uc) ** j / j * tails[j][1] for j in (1, 2, 3))
    s4 = tails[4][0] + tails[4][1]
    err_log += abs(uc) ** 4 / (4.0 * (1.0 - abs(uc) / X)) * s4

    value = cmath.exp(log_main + log_tail)
    err = abs(value) * math.expm1(err_log) if err_log < 700 else math.inf
    if isinstance(u, complex):
        return value, err
    return value.real, err


def count_mgf_log_modulus(r: int, t: float, census: IrrepCensus):
    """(value, err) for log |M(it)| = -1/2 sum rho(m) log(1 + t^2/m^2).

    The certified decay diagnostic: only even powers of t/m enter, so the
    tail expansion is t^2/2 * S_2 - t^4/4 * S_4 with S_j the inverse-moment
    tails, plus a sixth-order remainder."""
    if r < 2:
        raise ValueError("count mgf diverges at rank 1 (harmonic series); need r >= 2")
    m = census.dims.astype(float)
    rho = census.counts.astype(float)
    value = -0.5 * float(np.sum(rho * np.log1p((t / m) ** 2)))
    vol, _ = region_volume(r)
    t2, t4 = inverse_moment_tail(census, 2, vol), inverse_moment_tail(census, 4, vol)
    X = float(census.max_dim)
    if abs(t) > X / 2.0:
        raise ValueError(f"|t| = {abs(t):.3g} too large for census cutoff {X}")
    tail = -(t * t / 2.0 * t2[0] - t**4 / 4.0 * t4[0])
    sixth = abs(t) ** 6 / 6.0 * (vol * (2 / (r + 1)) / (6 - 2 / (r + 1))
                                 * X ** (2 / (r + 1) - 6) * 4.0)
    err = t * t / 2.0 * t2[1] + t**4 / 4.0 * t4[1] + sixth
    return value + tail, err

"""Observables of a representation and their limit-law normalizations.

The five statistics: largest irreducible dimension D (Gumbel limit),
largest weight height H (Gumbel), number of irreducible components N
(limit characterized by its mgf), multiplicity of a fixed small weight
(exponential limit), and the shape functional counting components above a
corner (law of large numbers to the limit shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boltzmann import BoltzmannParams
from .exact_count import Representation
from .limits import LimitConstants
from .weights import degree, dim_irrep, twice_height

STAT_NAMES = ("D", "H", "N", "mult", "shape")


def stat_max_dim(rep: Representation) -> int:
    """D: largest dimension among the irreducible components."""
    if not rep.rows.size:
        raise ValueError("the zero representation has no largest dimension")
    return int(rep.dims().max())


def stat_height(rep: Representation) -> float:
    """H: largest height L(k - 1) among the components (a half-integer)."""
    if not rep.rows.size:
        raise ValueError("the zero representation has no height")
    return int(twice_height(rep.rank, rep.weights() - 1).max()) / 2.0


def stat_num_irreps(rep: Representation) -> int:
    """N: number of irreducible components with multiplicity (0 if empty)."""
    return rep.num_irreps()


def stat_multiplicity(rep: Representation, k) -> int:
    """X_k: multiplicity of the weight k."""
    return int(rep.mult[np.all(rep.weights() == np.asarray(k), axis=1)].sum())


def stat_shape(rep: Representation, t) -> int:
    """shape(t): number of components (with multiplicity) whose weight
    dominates the corner t coordinatewise."""
    t = np.asarray(t)
    if t.shape != (rep.rank,):
        raise ValueError(f"corner must have {rep.rank} coordinates")
    return int(rep.mult[np.all(rep.weights() >= t, axis=1)].sum())


def default_shape_grid(r: int, lo: float = 0.1, num: int = 16):
    """Diagonal corner grid: geometric from lo to hi = 5^(3/nu), nu the
    degree of the dimension form, so that P(hi, ..., hi) = 125 at every
    rank and the far corners' shape values stay well above underflow."""
    return np.geomspace(lo, 5.0 ** (3.0 / degree(r)), num)


@dataclass
class StatSample:
    """Raw and limit-normalized values of one statistic over a sample."""

    stat: str
    rank: int
    n: int
    raw: np.ndarray
    normalized: np.ndarray
    meta: dict = field(default_factory=dict)


def normalize(stat: str, raw, params: BoltzmannParams,
              constants: LimitConstants, k=None, t=None) -> StatSample:
    """Center/scale raw statistic values by the limit normalizers.

    D and H are affinely mapped to their Gumbel coordinates; N is scaled by
    s^nu; mult (of weight k, required) is scaled by s^nu dim(k) toward
    Exp(1); shape raw values must have been evaluated at the corner t / s
    (t required) and are scaled by s^r toward the limit shape at t.
    """
    raw = np.asarray(raw, dtype=float)
    meta = {}
    if stat == "D":
        normalized = (raw - constants.max_dim_center) / constants.max_dim_scale
    elif stat == "H":
        normalized = (raw - constants.height_center) / constants.height_scale
    elif stat == "N":
        normalized = raw * params.beta
    elif stat == "mult":
        if k is None:
            raise ValueError("mult normalization needs the weight k")
        a = dim_irrep(params.rank, k)
        normalized = raw * params.beta * a
        meta["k"] = tuple(int(x) for x in k)
    elif stat == "shape":
        if t is None:
            raise ValueError("shape normalization needs the corner t")
        normalized = raw * params.s**params.rank
        meta["t"] = [float(x) for x in np.atleast_1d(t)]
    else:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {STAT_NAMES}")
    return StatSample(stat=stat, rank=params.rank, n=params.n,
                      raw=raw, normalized=normalized, meta=meta)

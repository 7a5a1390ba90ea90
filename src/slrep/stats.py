"""Observables of a representation, and the corner grid of the shape report.

The five statistics: largest irreducible dimension D (Gumbel limit),
largest weight height H (Gumbel), number of irreducible components N
(limit characterized by its mgf), multiplicity of a fixed small weight
(exponential limit), and the shape functional counting components above a
corner (law of large numbers to the limit shape).
"""

from __future__ import annotations

import numpy as np

from .exact_count import Representation
from .weights import degree, twice_height

# the shape report's diagonal corner grid: its first corner and its size
_SHAPE_GRID_LO = 0.1
_SHAPE_GRID_POINTS = 16


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


def default_shape_grid(r: int):
    """Diagonal corner grid: geometric from _SHAPE_GRID_LO to
    hi = 5^(3/nu), nu the degree of the dimension form, so that
    P(hi, ..., hi) = 125 at every rank and the far corners' shape values
    stay well above underflow."""
    return np.geomspace(_SHAPE_GRID_LO, 5.0 ** (3.0 / degree(r)), _SHAPE_GRID_POINTS)

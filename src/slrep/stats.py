"""The extremal statistics of a representation, the diagonal levels of
the shape report, and the names of the five reported observables.

D is the largest irreducible dimension and H the largest weight height;
both have Gumbel limits.  The number of components N is
`Representation.num_irreps`.
"""

from __future__ import annotations

import numpy as np

from .exact_count import Representation
from .weights import degree, twice_height

# the observables of the gap reports (`verify.compare_exact_to_limit`)
STATISTICS = ("D", "H", "mult", "shape", "mgf")
# the shape report's diagonal levels: the first level and how many
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


def default_shape_grid(r: int):
    """Levels t of the diagonal corners (t, ..., t): geometric from
    _SHAPE_GRID_LO to hi = 5^(3/nu), nu the degree of the dimension form,
    so that P(hi, ..., hi) = hi^nu = 125 at every rank and the far
    corners' shape values stay well above underflow."""
    return np.geomspace(_SHAPE_GRID_LO, 5.0 ** (3.0 / degree(r)), _SHAPE_GRID_POINTS)

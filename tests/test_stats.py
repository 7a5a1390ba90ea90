"""Statistics of a representation and the shape report's corner grid."""

import numpy as np
import pytest

from slrep.stats import default_shape_grid, stat_height, stat_max_dim
from slrep.weights import degree

from oracles import representation, stat_multiplicity, stat_shape


def rep(mult):
    return representation(2, mult)


def test_max_dim_examples():
    assert stat_max_dim(rep({(1, 1): 5})) == 1
    assert stat_max_dim(rep({(2, 1): 1, (1, 1): 2})) == 3
    assert stat_max_dim(rep({(2, 2): 1, (3, 1): 2})) == 8
    with pytest.raises(ValueError):
        stat_max_dim(rep({}))


def test_height_examples():
    assert stat_height(rep({(1, 1): 3})) == 0.0
    assert stat_height(rep({(2, 1): 1})) == 1.0
    assert stat_height(rep({(2, 2): 1})) == 2.0
    assert stat_height(rep({(2, 2): 1, (4, 1): 1})) == 3.0
    with pytest.raises(ValueError):
        stat_height(rep({}))


def test_num_irreps_counts_multiplicity():
    assert rep({}).num_irreps() == 0
    assert rep({(1, 1): 4, (2, 1): 2}).num_irreps() == 6


def test_multiplicity_lookup():
    r = rep({(2, 1): 3})
    assert stat_multiplicity(r, (2, 1)) == 3
    assert stat_multiplicity(r, [2, 1]) == 3
    assert stat_multiplicity(r, (1, 2)) == 0


def test_shape_counts_dominating_corners():
    r = rep({(1, 1): 2, (2, 3): 1, (3, 3): 4})
    assert stat_shape(r, (1, 1)) == 7
    assert stat_shape(r, (2, 2)) == 5
    assert stat_shape(r, (3, 3)) == 4
    assert stat_shape(r, (4, 1)) == 0
    with pytest.raises(ValueError):
        stat_shape(r, (1, 1, 1))


def test_default_shape_grid_is_geometric():
    grid = default_shape_grid(2)
    assert len(grid) == 16
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(5.0)
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0])
    # the rank-2 grid is the one the shape report always used, bit for bit
    assert np.array_equal(grid, np.geomspace(0.1, 5.0, 16))
    # every rank ends where the dimension form is 5^3 on the diagonal
    for r in (1, 2, 3, 4):
        hi = default_shape_grid(r)[-1]
        assert hi ** degree(r) == pytest.approx(125.0, rel=1e-12)

"""Statistics of a representation and their limit normalizations."""

import numpy as np
import pytest

from slrep.boltzmann import solve_saddle
from slrep.limits import compute_constants
from slrep.stats import (
    STAT_NAMES,
    default_shape_grid,
    normalize,
    stat_height,
    stat_max_dim,
    stat_multiplicity,
    stat_num_irreps,
    stat_shape,
)
from slrep.weights import degree

from oracles import representation


def rep(mult):
    return representation(2, mult)


def test_stat_names_enumeration():
    assert STAT_NAMES == ("D", "H", "N", "mult", "shape")


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
    assert stat_num_irreps(rep({})) == 0
    assert stat_num_irreps(rep({(1, 1): 4, (2, 1): 2})) == 6


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


@pytest.fixture(scope="module")
def calibration():
    params = solve_saddle(2, 1000)
    return params, compute_constants(2, 1000, s=params.s)


def test_normalize_gumbel_statistics(calibration):
    params, constants = calibration
    raw = np.array([50.0, 120.0])
    out = normalize("D", raw, params, constants)
    np.testing.assert_allclose(
        out.normalized, (raw - constants.max_dim_center) / constants.max_dim_scale)
    assert out.stat == "D" and out.rank == 2 and out.n == 1000
    np.testing.assert_array_equal(out.raw, raw)

    out = normalize("H", raw, params, constants)
    np.testing.assert_allclose(
        out.normalized, (raw - constants.height_center) / constants.height_scale)


def test_normalize_count_and_multiplicity(calibration):
    params, constants = calibration
    out = normalize("N", [10.0, 30.0], params, constants)
    np.testing.assert_allclose(out.normalized, np.array([10.0, 30.0]) * params.beta)
    assert params.beta == pytest.approx(params.s ** degree(2), rel=1e-12)

    out = normalize("mult", [2.0], params, constants, k=(2, 1))
    np.testing.assert_allclose(out.normalized, np.array([2.0]) * params.beta * 3.0)
    assert out.meta["k"] == (2, 1)
    with pytest.raises(ValueError):
        normalize("mult", [2.0], params, constants)


def test_normalize_shape(calibration):
    params, constants = calibration
    out = normalize("shape", [7.0], params, constants, t=1.5)
    np.testing.assert_allclose(out.normalized, np.array([7.0]) * params.s**2)
    assert out.meta["t"] == [1.5]
    with pytest.raises(ValueError):
        normalize("shape", [7.0], params, constants)


def test_normalize_rejects_unknown_statistic(calibration):
    params, constants = calibration
    with pytest.raises(ValueError):
        normalize("Z", [1.0], params, constants)

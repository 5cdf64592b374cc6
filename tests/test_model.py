"""Potentials, parameter validation, grids, and trajectory containers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlab.model import (
    InitialLaw,
    ModelParams,
    PathEnsemble,
    double_well,
    grid_times,
    log_barrier,
    max_negative_curvature,
)


def test_double_well_critical_points():
    p = double_well(2.0)
    assert p.du1(1.0) == pytest.approx(0.0, abs=1e-15)
    assert p.du1(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert p.du1(0.0) == 0.0


def test_double_well_value_at_zero():
    # -log(s^2) with s = 2
    assert double_well(2.0).u1(0.0) == pytest.approx(-math.log(4), rel=1e-12)


def test_double_well_even():
    p = double_well(2.0)
    for x in np.linspace(0.0, 1.9, 40):
        assert p.u1(x) == pytest.approx(p.u1(-x), rel=1e-14)


def test_derivatives_match_finite_differences():
    p = double_well(2.0)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.8, 1.8, 100)
    h = 1e-6
    for x in xs:
        fd1 = (p.u1(x + h) - p.u1(x - h)) / (2 * h)
        assert p.du1(x) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        fd2 = (p.du1(x + h) - p.du1(x - h)) / (2 * h)
        assert p.d2u1(x) == pytest.approx(fd2, rel=1e-6, abs=1e-5)


def test_max_negative_curvature_double_well():
    # sup of -U1'' on (-2, 2) is attained at 0: 2 - 2 s^2/(s^2)^2 = 1.5 for s=2
    assert max_negative_curvature(double_well(2.0)) == pytest.approx(1.5, abs=1e-6)


def test_grid_times_examples():
    np.testing.assert_allclose(
        grid_times(ModelParams(1, 1.0, 2.0, 1.0, 2, 2, 0)),
        [0, 0.25, 0.5, 0.75, 1.0],
    )
    np.testing.assert_allclose(
        grid_times(ModelParams(1, 1.0, 2.0, 0.2, 2, 1, 0)), [0, 0.1, 0.2]
    )
    np.testing.assert_allclose(
        grid_times(ModelParams(1, 1.0, 2.0, 1.0, 1, 4, 0)),
        [0, 0.25, 0.5, 0.75, 1.0],
    )


@settings(deadline=None, max_examples=50)
@given(
    kappa=st.integers(min_value=1, max_value=20),
    m=st.integers(min_value=1, max_value=20),
    horizon=st.floats(min_value=0.1, max_value=50, allow_nan=False),
)
def test_freeze_points_on_grid_bit_exactly(kappa, m, horizon):
    params = ModelParams(1, 1.0, 2.0, horizon, kappa, m, 0)
    grid = grid_times(params)
    h = params.grid_step
    for k in range(kappa + 1):
        assert grid[k * m] == k * m * h
    assert grid[0] == 0.0


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 1.0, 2.0, 1.0, 1, 1, 0)
    with pytest.raises(ValueError):
        ModelParams(1, -0.5, 2.0, 1.0, 1, 1, 0)
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 2.0, 0.0, 1, 1, 0)
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 2.0, 1.0, 0, 1, 0)
    with pytest.raises(ValueError):
        ModelParams(1, 1.0, 2.0, 1.0, 1, 1, -1)


def test_initial_law_rejects_boundary_support():
    with pytest.raises(ValueError):
        InitialLaw("point", 2.0, 2.0)
    with pytest.raises(ValueError):
        InitialLaw("point", -2.3, 2.0)
    with pytest.raises(ValueError):
        InitialLaw("uniform", 2.0, 2.0)
    with pytest.raises(ValueError):
        InitialLaw("uniform", 0.0, 2.0)
    assert isinstance(InitialLaw("point", 1.9, 2.0), InitialLaw)


@pytest.mark.parametrize("kind, value", [("point", 1.9999999), ("point", -1.9999999),
                                         ("uniform", 1.9999999)])
def test_initial_law_refuses_a_start_in_the_guard_band(kind, value):
    # s = 2: the guard band starts at 2 * (1 - GUARD_FRACTION) = 1.999998
    with pytest.raises(ValueError, match="guard band"):
        InitialLaw(kind, value, 2.0)
    inside = math.copysign(1.999997, value)
    assert InitialLaw(kind, inside, 2.0).value == inside


def test_path_ensemble_rejects_boundary_values():
    params = ModelParams(2, 1.0, 2.0, 1.0, 1, 2, 0)
    vals = np.zeros((2, 3))
    vals[1, 2] = 2.0
    with pytest.raises(ValueError):
        PathEnsemble(vals, params)


def test_path_ensemble_shape_check_and_readonly():
    params = ModelParams(2, 1.0, 2.0, 1.0, 1, 2, 0)
    ens = PathEnsemble(np.zeros((2, 3)), params)
    # the grid is read from the params, so it cannot disagree with them
    np.testing.assert_array_equal(ens.grid, grid_times(params))
    with pytest.raises(ValueError):
        PathEnsemble(np.zeros((3, 3)), params)
    with pytest.raises(ValueError):
        ens.values[0, 0] = 1.0

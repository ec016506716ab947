"""Property tests of the spectral operators and the cached dissipation symbol
on random 2D/3D grids and fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmhd import spectral as sp
from lmhd.multiplier import DissipationSpec, make_g, symbol, symbol_on_grid
from lmhd.spectral import VectorField

grids = st.builds(sp.make_grid, st.sampled_from([2, 3]), st.sampled_from([8, 16]))
seeds = st.integers(0, 2**32 - 1)
g_functions = st.sampled_from(["constant_one", "power_log", "iterated_log", "power", "spiky"]).map(make_g)
specs = st.builds(DissipationSpec, st.floats(0.0, 10.0), st.floats(0.5, 4.0), g_functions)

property_settings = settings(max_examples=25, deadline=None)


def random_vector(grid, seed, scale):
    rng = np.random.default_rng(seed)
    return VectorField(tuple(sp.forward_transform(scale * rng.standard_normal(grid.shape), grid)
                             for _ in range(grid.dim)))


@property_settings
@given(grids, seeds, st.floats(1e-3, 1e3))
def test_leray_projection_idempotent_and_solenoidal(grid, seed, scale):
    once = sp.leray_project(random_vector(grid, seed, scale))
    twice = sp.leray_project(once)
    assert sp.solenoidal_residual(once) <= 1e-12
    norm = max(1.0, sp.vector_l2_norm(once))
    assert sp.vector_l2_norm(twice - once) <= 1e-12 * norm


@property_settings
@given(grids, seeds)
def test_divergence_of_gradient_is_negative_laplacian(grid, seed):
    f = random_vector(grid, seed, 1.0).components[0]
    lap = sp.divergence(sp.gradient(f)).coeffs
    expected = -grid.k_squared * f.coeffs
    assert np.max(np.abs(lap - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


@property_settings
@given(specs, grids)
def test_symbol_on_grid_is_cached_and_read_only(spec, grid):
    first = symbol_on_grid(spec, grid)
    assert symbol_on_grid(spec, grid) is first
    assert np.array_equal(first, symbol(spec, grid.kmag))
    with pytest.raises(ValueError):
        first[(0,) * grid.dim] = 1.0

"""Property tests of the spectral operators, the cached dissipation symbol
and the diagnostic record on random 2D/3D grids and fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmhd import spectral as sp
from lmhd.diagnostics import make_record
from lmhd.dynamics import SolutionPair, SystemParams
from lmhd.multiplier import E, DissipationSpec, make_g, symbol, symbol_on_grid
from lmhd.spectral import SpectralField, VectorField

from conftest import random_solenoidal

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


def _laplacian(f):
    out = sp.zero_field(f.grid)
    for j, d in enumerate(sp.gradient(f).components):
        out = out + sp.gradient(d).components[j]
    return out


def _derivative_fields(f, order):
    """Fields whose squared L2 norms add up to ||Lambda^order f||^2 (integer order, zero-mean f)."""
    for _ in range(order // 2):
        f = _laplacian(f)
    return list(sp.gradient(f).components) if order % 2 else [f]


def _grid_l2_sq(fields):
    """Sum of squared physical samples times the cell volume, over all fields."""
    return sum(float(np.sum(sp.to_physical(f) ** 2)) * f.grid.cell_volume for f in fields)


@property_settings
@given(grids, seeds, specs, specs, st.integers(0, 5), st.integers(0, 5))
def test_record_matches_physical_space_reference(grid, seed, diss_u, diss_b, gamma, s):
    u, b = random_solenoidal(grid, seed), random_solenoidal(grid, seed + 1)
    params = SystemParams(diss_u, diss_b, grid.dim)
    record = make_record(SolutionPair(u, b, 0.0), params, gamma=gamma, s=s)

    m1, m2 = symbol_on_grid(diss_u, grid), symbol_on_grid(diss_b, grid)
    grads = [d for c in u.components for d in sp.gradient(c).components]
    both = u.components + b.components
    expected = {
        "energy": 0.5 * _grid_l2_sq(both),
        "diss_u": _grid_l2_sq([SpectralField(grid, m1 * c.coeffs) for c in u.components]),
        "diss_b": _grid_l2_sq([SpectralField(grid, m2 * c.coeffs) for c in b.components]),
        "diss_grad_u": _grid_l2_sq([SpectralField(grid, m1 * d.coeffs) for d in grads]),
        "x_norm": _grid_l2_sq([d for c in both for d in _derivative_fields(c, 1)]),
        "y_norm": _grid_l2_sq([d for c in both for d in _derivative_fields(c, s)]),
        "gamma_norm": _grid_l2_sq([d for c in both for d in _derivative_fields(c, gamma)]),
        "grad_u_inf": max(float(np.max(np.abs(sp.to_physical(d)))) for d in grads),
    }
    threshold = E + expected["x_norm"]
    expected["split_low"] = diss_u.g(threshold) * math.sqrt(math.log(threshold) * expected["diss_u"])
    expected["split_high"] = math.sqrt(expected["diss_grad_u"] / threshold)
    for name, value in expected.items():
        assert abs(getattr(record, name) - value) <= 1e-12 * abs(value), name

"""Property tests of the spectral operators, the half-spectrum and band
layouts and the pruned transforms, the exact linear decay of the stepper, the
diagnostic record, the band tendency against a full-spectrum reference, its
cached band operator, the out-of-band guard of the stepper, the state
storage, the snapshot format and the config parser on random 2D/3D grids,
fields and inputs."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lmhd import spectral as sp
from lmhd.diagnostics import (_CONFIG_KEYS, ConfigError, DiagnosticRecord, DiagnosticTracker, RunConfig,
                              config_from_mapping, make_record, record_weights, split_terms)
from lmhd.dynamics import SolutionPair, SystemParams, band_operator, nonlinear_tendency, tendency
from lmhd.integrator import StepperConfig, run
from lmhd.multiplier import E, DissipationSpec, make_g, symbol
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
    assert sp.vector_l2_norm(VectorField.from_array(grid, twice.coeffs - once.coeffs)) <= 1e-12 * norm


@property_settings
@given(grids, seeds)
def test_divergence_of_gradient_is_negative_laplacian(grid, seed):
    f = random_vector(grid, seed, 1.0).components[0]
    lap = sp.divergence(sp.gradient(f)).coeffs
    expected = -grid.k_squared * f.coeffs
    assert np.max(np.abs(lap - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def _laplacian(f):
    out = sp.zero_field(f.grid).coeffs
    for j, d in enumerate(sp.gradient(f).components):
        out = out + sp.gradient(d).components[j].coeffs
    return SpectralField(f.grid, out)


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
    record = make_record(SolutionPair(u, b, 0.0), params, record_weights(grid, params, gamma, s))

    m1, m2 = symbol(diss_u, grid.kmag), symbol(diss_b, grid.kmag)
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
        # the record sums over the band, solenoidal_residual over the full spectrum
        "div_u": sp.solenoidal_residual(u),
        "div_b": sp.solenoidal_residual(b),
    }
    threshold = E + expected["x_norm"]
    expected["split_low"] = diss_u.g(threshold) * math.sqrt(math.log(threshold) * expected["diss_u"])
    expected["split_high"] = math.sqrt(expected["diss_grad_u"] / threshold)
    for name, value in expected.items():
        assert abs(getattr(record, name) - value) <= 1e-12 * abs(value), name


def random_pair(grid, seed):
    return SolutionPair(random_solenoidal(grid, seed), random_solenoidal(grid, seed + 1), 0.0)


@property_settings
@given(grids, seeds, specs)
def test_step_and_run_leave_input_unchanged_and_step_is_solenoidal(grid, seed, diss_u):
    state = random_pair(grid, seed)
    before = state.data.copy()
    params = SystemParams(diss_u, DissipationSpec(0.0, 1.0, make_g("constant_one")), grid.dim)
    new = run(state, params, StepperConfig(t_end=math.inf, dt=1e-3, max_steps=1))
    run(state, params, StepperConfig(t_end=2e-3, dt=1e-3))
    assert np.array_equal(state.data, before)
    assert not np.shares_memory(new.data, state.data)
    assert max(sp.solenoidal_residual(new.u), sp.solenoidal_residual(new.b)) <= 1e-12


@property_settings
@given(grids, seeds)
def test_nonlinear_tendency_is_energy_neutral(grid, seed):
    state = random_pair(grid, seed)
    du, db = nonlinear_tendency(state)
    flux = sp.l2_inner(du, state.u) + sp.l2_inner(db, state.b)
    scale = sp.vector_l2_norm(du) * sp.vector_l2_norm(state.u) + sp.vector_l2_norm(db) * sp.vector_l2_norm(state.b)
    assert abs(flux) <= 1e-12 * scale


def _reference_record(state, params, prev, sums, l2_norms):
    """The record of a state from the energy, its six other L2-type sums (diss_u,
    diss_b, diss_grad_u, x_norm, y_norm, gamma_norm) and the L2 norms of u and b."""
    grid, band = state.grid, state.band
    energy, diss_u, diss_b, diss_grad_u, x_norm, y_norm, gamma_norm = sums
    grad_u = sp.band_to_physical(sp.gradient_array(band[0], grid.band_ik), grid)
    grad_u_inf = float(np.max(np.abs(grad_u)))
    split_low, split_high = split_terms(params.diss_u, E + x_norm, diss_u, diss_grad_u)
    div_u, div_b = (float(np.max(np.abs(kv))) / max(1.0, norm)
                    for kv, norm in zip(sp.k_dot(band, grid.band_kmesh), l2_norms))
    t = state.time
    if prev is None:
        cum_diss = cum_diss_b = cum_diss_grad = 0.0
    else:
        half_dt = 0.5 * (t - prev.t)
        cum_diss = prev.cum_diss + half_dt * (prev.diss_u + diss_u)
        cum_diss_b = prev.cum_diss_b + half_dt * (prev.diss_b + diss_b)
        cum_diss_grad = prev.cum_diss_grad + half_dt * (prev.diss_grad_u + diss_grad_u)
    return DiagnosticRecord(t, energy, diss_u, diss_b, diss_grad_u, x_norm, y_norm, gamma_norm,
                            grad_u_inf, split_low, split_high, cum_diss, cum_diss_b, cum_diss_grad,
                            div_u, div_b)


def rebuilt_record(state, params, gamma, s, prev=None):
    """Reference: the record weight matrix rebuilt for this record alone, from the
    full-spectrum symbols, applied to the band power in one product; a row that
    reads nan, an inf weight at a mode without power, over the modes with power."""
    grid, band = state.grid, state.band
    with np.errstate(over="ignore", invalid="ignore"):
        parseval = np.broadcast_to(sp.BOX_LENGTH ** grid.dim * grid.band_parseval, grid.band_shape)
        m_u2, m_b2 = (sp.to_band(symbol(d, grid.kmag), grid) ** 2 for d in (params.diss_u, params.diss_b))
        k_squared, zero = grid.band_k_squared, np.zeros(grid.band_shape)
        sobolev = [sp.radial_power(k_squared, order) * parseval for order in (1.0, s, gamma)]
        matrix = np.array([(parseval, zero), (zero, parseval), (m_u2 * parseval, zero),
                           (zero, m_b2 * parseval), (m_u2 * k_squared * parseval, zero),
                           *((w, w) for w in sobolev)]).reshape(8, -1)
        power = np.sum(band.real**2 + band.imag**2, axis=1).reshape(-1)
        live = power != 0.0
        sum_u, sum_b, *sums = (float(row[live] @ power[live]) if math.isnan(value) else value
                               for value, row in zip((matrix @ power).tolist(), matrix))
        return _reference_record(state, params, prev, [0.5 * (sum_u + sum_b), *sums],
                                 [math.sqrt(sum_u), math.sqrt(sum_b)])


def _live_sum(density, power):
    """The sum of a weighted density, over the modes with nonzero power when a weight
    overflowed to inf at a mode without power and made the whole sum nan."""
    total = float(np.sum(density))
    return float(np.sum(density[power != 0.0])) if math.isnan(total) else total


def per_sum_record(state, params, gamma, s, prev=None):
    """Reference: one sum per record field over the Parseval density of u and b,
    with the symbols and Sobolev weights rebuilt per record."""
    grid, band = state.grid, state.band
    with np.errstate(over="ignore", invalid="ignore"):
        power_u, power_b = (grid.band_parseval * sp.mode_power(c) for c in band)
        power = power_u + power_b
        m_u, m_b = (sp.to_band(symbol(d, grid.kmag), grid) for d in (params.diss_u, params.diss_b))
        l_u_density = m_u**2 * power_u
        sums = [0.5 * float(np.sum(power)), _live_sum(l_u_density, power_u),
                _live_sum(m_b**2 * power_b, power_b),
                _live_sum(grid.band_k_squared * l_u_density, power_u),
                *(_live_sum(sp.radial_power(grid.band_k_squared, order) * power, power)
                  for order in (1.0, s, gamma))]
        return _reference_record(state, params, prev, sums,
                                 [float(np.sqrt(np.sum(p))) for p in (power_u, power_b)])


# every catalog kind, with a spiky g whose first jump (|k| ~ 4.8) lies inside the 16-point bands
catalog_g = st.sampled_from([
    make_g("constant_one"), make_g("power_log", c=2.0), make_g("iterated_log"), make_g("power"),
    make_g("spiky", period=0.2, height=1.5),
])
catalog_specs = st.builds(DissipationSpec, st.floats(0.0, 10.0), st.floats(0.5, 4.0), catalog_g)


@property_settings
@given(grids, seeds, catalog_specs, catalog_specs, st.sampled_from([0.0, 1.5, 2.5]),
       st.sampled_from([0.0, 2.5, 5.0, 200.0]), st.integers(1, 3))
@example(sp.make_grid(2, 16), 0, DissipationSpec(1.0, 2.0, make_g("constant_one")),
         DissipationSpec(0.0, 1.0, make_g("constant_one")), 2.5, 200.0, 2)
def test_tracker_records_equal_the_per_record_weights_reference(grid, seed, diss_u, diss_b, gamma, s,
                                                                 cadence):
    # s = 200 overflows (|k|^2)^s to inf on these grids: the weights are built
    # under the record's errstate, so the record keeps inf without warning
    params = SystemParams(diss_u, diss_b, grid.dim)
    tracker = DiagnosticTracker(params, gamma, s, cadence)
    states = [SolutionPair.from_band(grid, random_pair(grid, seed + n).band, 0.1 * n)
              for n in range(5)]
    expected, per_sum = [], []
    for n, state in enumerate(states):
        tracker(n, state)
        if n % cadence == 0:
            expected.append(rebuilt_record(state, params, gamma, s, expected[-1] if expected else None))
            per_sum.append(per_sum_record(state, params, gamma, s, per_sum[-1] if per_sum else None))
    assert np.array(tracker.records).tobytes() == np.array(expected).tobytes()
    single = make_record(states[-1], params, record_weights(grid, params, gamma, s))
    assert np.array(single).tobytes() == np.array(rebuilt_record(states[-1], params, gamma, s)).tobytes()
    # the one product sums in another order than one sum per field: a few ulps apart,
    # with the same inf cells
    np.testing.assert_allclose(np.array(tracker.records), np.array(per_sum), rtol=1e-14, atol=0.0)


# the catalog, and a spiky g that jumps at |k| ~ 2.78, 2.86 and 3.07, inside the 8-point bands too
decay_g = st.one_of(catalog_g, st.just(make_g("spiky", period=0.01, height=1.5)))
coefficients = st.floats(0.0, 2.0)


@property_settings
@given(grids, seeds, st.data(), decay_g, decay_g, st.floats(0.5, 2.5), st.floats(0.5, 2.5),
       coefficients, coefficients, st.floats(1e-4, 0.5), st.integers(1, 4))
def test_linear_step_and_run_are_exact_decay(grid, seed, data, g1, g2, alpha, beta, nu, eta, dt, steps):
    # one random mode of the band, in every component of u and b
    mode = (Ellipsis,) + tuple(data.draw(st.integers(0, n - 1)) for n in grid.band_shape)
    band = np.zeros((2, grid.dim) + grid.band_shape, dtype=np.complex128)
    band[mode] = random_complex((2, grid.dim), seed)
    params = SystemParams(DissipationSpec(nu, alpha, g1), DissipationSpec(eta, beta, g2), grid.dim)
    state = SolutionPair.from_band(grid, band, 0.0)
    k = math.sqrt(grid.band_k_squared[mode[1:]])
    # nu |k|^(2 alpha) / g(|k|)^2 written out, per field
    rates = np.array([[c * k ** (2.0 * a) / float(g(k)) ** 2]
                      for c, a, g in ((nu, alpha, g1), (eta, beta, g2))])
    for final in (run(state, params, StepperConfig(t_end=math.inf, dt=dt, max_steps=1), nonlinear=None),
                  run(state, params, StepperConfig(t_end=steps * dt, dt=dt), nonlinear=None)):
        decay = rates * final.time
        expected = band[mode] * np.exp(-decay)
        # exp of a rounded exponent: the relative error grows with the exponent and the step count
        rtol = 8.0 * np.finfo(float).eps * (1.0 + decay * (1.0 + steps) + 2.0 * steps)
        got = final.band.copy()
        assert np.all(np.abs(got[mode] - expected) <= rtol * np.abs(expected) + 1e-300)
        got[mode] = 0.0
        assert not np.any(got)


@property_settings
@given(grids, seeds, specs, specs, st.floats(0.0, 10.0))
def test_record_of_a_band_pair_equals_record_of_its_full_spectrum(grid, seed, diss_u, diss_b, time):
    params = SystemParams(diss_u, diss_b, grid.dim)
    pair = SolutionPair.from_band(grid, random_pair(grid, seed).band, time)
    weights = record_weights(grid, params, 2.5, 5.0)
    band_record = make_record(pair, params, weights)
    full_record = make_record(SolutionPair(pair.u, pair.b, time), params, weights)
    assert np.array(band_record).tobytes() == np.array(full_record).tobytes()


@property_settings
@given(grids, seeds, st.data())
def test_band_pair_builds_data_once_and_sees_writes_through_it(grid, seed, data):
    band = random_pair(grid, seed).band
    pair = SolutionPair.from_band(grid, band, 0.0)
    assert pair.band is band
    assert pair.data is pair.data
    # a band mode: inside the mask, in columns 0..kc (the mirrored columns are not stored)
    stored = np.argwhere(grid.dealias_mask[..., : grid.kc + 1])
    inside = tuple(stored[data.draw(st.integers(0, len(stored) - 1))])
    pair.u.components[0].coeffs[inside] += 1.0
    assert np.count_nonzero(pair.band != band) == 1
    outside = tuple(np.argwhere(~grid.dealias_mask)[data.draw(st.integers(0, (~grid.dealias_mask).sum() - 1))])
    pair.b.components[-1].coeffs[outside] = 1e-3
    params = SystemParams(DissipationSpec(1.0, 2.0, make_g("constant_one")),
                          DissipationSpec(0.0, 1.0, make_g("constant_one")), grid.dim)
    with pytest.raises(ValueError, match="outside the 2/3-rule band"):
        run(pair, params, StepperConfig(t_end=math.inf, dt=1e-3, max_steps=1))


def full_spectrum_tendency(y, grid):
    """Reference: the divergence-form tendency of a full-spectrum state array,
    with complex ifftn/fftn over the whole spectrum."""
    sym = list(zip(*np.triu_indices(grid.dim)))
    anti = list(zip(*np.triu_indices(grid.dim, 1)))
    axes = tuple(range(-grid.dim, 0))
    k = grid.kmesh
    u, b = np.fft.ifftn(y, axes=axes).real * grid.total_points
    products = [b[i] * b[j] - u[i] * u[j] for i, j in sym]
    products += [b[j] * u[i] - u[j] * b[i] for i, j in anti]
    spec = np.fft.fftn(np.stack(products), axes=axes) / grid.total_points
    spec *= grid.dealias_mask
    out = np.zeros_like(y)
    for (i, j), s in zip(sym, spec):
        out[0, i] += k[j] * s
        if i != j:
            out[0, j] += k[i] * s
    for (i, j), a in zip(anti, spec[len(sym):]):
        out[1, i] += k[j] * a
        out[1, j] -= k[i] * a
    out *= 1j
    out[0] = sp.leray_array(out[0], grid.kmesh)
    return out


@property_settings
@given(grids, seeds)
def test_band_tendency_matches_full_spectrum_reference(grid, seed):
    # the band tendency, expanded to the full spectrum
    y = random_pair(grid, seed).data
    expected = full_spectrum_tendency(y, grid)
    got = sp.from_band(tendency(sp.to_band(y, grid), grid), grid)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@property_settings
@given(grids)
def test_band_operator_is_solenoidal_cached_and_read_only(grid):
    # rounding in k . d_u grows with |k|, so the bound scales with |k| at each mode
    d_u, d_b = band_operator(grid)
    k_dot = np.sum(grid.band_kmesh[:, None] * d_u, axis=0)
    bound = 1e-15 * np.sqrt(grid.band_k_squared) * np.max(np.abs(d_u))
    assert np.all(np.abs(k_dot) <= bound)
    again = band_operator(grid)
    assert again[0] is d_u and again[1] is d_b
    for block in (d_u, d_b):
        with pytest.raises(ValueError):
            block[(0,) * block.ndim] = 1.0


@property_settings
@given(grids, seeds, st.integers(1, 3))
def test_to_spectral_array_matches_complex_fftn(grid, seed, count):
    samples = np.random.default_rng(seed).standard_normal((count,) + grid.shape)
    coeffs = sp.to_spectral_array(samples, grid)
    expected = np.fft.fftn(samples, axes=tuple(range(-grid.dim, 0))) / grid.total_points
    assert coeffs.shape == (count,) + grid.shape
    # columns 0..n/2 are rfftn's half spectrum, the rest its conjugate completion
    half = np.fft.rfftn(samples, axes=tuple(range(-grid.dim, 0)), norm="forward")
    assert coeffs[..., : grid.points // 2 + 1].tobytes() == half.tobytes()
    assert np.max(np.abs(coeffs - expected)) <= 1e-15 * np.max(np.abs(expected))


def roll_flip_residual(f):
    """Reference conjugate_symmetry_residual: coeff(-k) by flipping and rolling every axis."""
    flipped = f.coeffs
    for axis in range(f.grid.dim):
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    return float(np.max(np.abs(flipped - np.conj(f.coeffs))))


@property_settings
@given(grids, seeds)
def test_conjugate_symmetry_residual_equals_roll_flip_reference(grid, seed):
    rng = np.random.default_rng(seed)
    arbitrary = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    real = sp.to_spectral_array(rng.standard_normal(grid.shape), grid)
    for coeffs in (arbitrary, real):
        f = SpectralField(grid, coeffs)
        assert sp.conjugate_symmetry_residual(f) == roll_flip_residual(f)


@property_settings
@given(grids, seeds, specs)
def test_step_output_is_conjugate_symmetric(grid, seed, diss_u):
    params = SystemParams(diss_u, DissipationSpec(0.0, 1.0, make_g("constant_one")), grid.dim)
    new = run(random_pair(grid, seed), params, StepperConfig(t_end=math.inf, dt=1e-2, max_steps=1))
    scale = np.max(np.abs(new.data))
    for f in new.u.components + new.b.components:
        assert sp.conjugate_symmetry_residual(f) <= 1e-14 * scale


@property_settings
@given(grids, seeds)
def test_tendency_equals_stacked_nonlinear_tendency(grid, seed):
    state = random_pair(grid, seed)
    du, db = nonlinear_tendency(state)
    band = tendency(sp.to_band(state.data, grid), grid)
    full = np.stack([du.coeffs, db.coeffs])
    assert sp.from_band(band, grid).tobytes() == full.tobytes()
    assert sp.to_band(full, grid).tobytes() == band.tobytes()


@property_settings
@given(grids)
def test_band_is_the_dealias_mask(grid):
    ones = np.ones((2,) + grid.band_shape, dtype=np.complex128)
    assert np.array_equal(sp.from_band(ones, grid)[0] != 0, grid.dealias_mask)
    assert np.array_equal(grid.band_kmesh, sp.to_band(grid.kmesh, grid))
    # the band's i k and |k|, byte for byte
    for got, expected in ((grid.band_ik, 1j * grid.band_kmesh),
                          (grid.band_kmag, sp.to_band(grid.kmag, grid))):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert np.max(np.abs(grid.band_kmesh)) == grid.kc


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@property_settings
@given(grids, seeds)
def test_band_operators_are_the_band_of_the_full_spectrum_operators(grid, seed):
    # a random band pair, neither solenoidal nor real in column 0, and its expansion:
    # each operator given the band's table is to_band of it given the full spectrum's
    band = random_complex((2, grid.dim) + grid.band_shape, seed)
    full = SolutionPair.from_band(grid, band.copy(), 0.0).data
    for got, expected in ((sp.gradient_array(band, grid.band_ik), sp.gradient_array(full, 1j * grid.kmesh)),
                          (sp.k_dot(band, grid.band_kmesh), sp.k_dot(full, grid.kmesh)),
                          (sp.leray_array(band, grid.band_kmesh), sp.leray_array(full, grid.kmesh))):
        assert got.tobytes() == sp.to_band(expected, grid).tobytes()


@property_settings
@given(grids, seeds, st.integers(1, 3))
def test_from_band_of_to_band_is_the_masked_spectrum(grid, seed, count):
    # a real field's spectrum; the conjugate completion writes -0.0 imaginary parts at
    # mirrored masked modes, so the values are compared, not the bytes
    x = sp.to_spectral_array(np.random.default_rng(seed).standard_normal((count,) + grid.shape), grid)
    band = sp.to_band(x, grid)
    full = sp.from_band(band, grid)
    assert full.shape == (count,) + grid.shape
    assert np.array_equal(full, np.where(grid.dealias_mask, x, 0.0))
    assert sp.to_band(full, grid).tobytes() == band.tobytes()


@property_settings
@given(grids, seeds, st.sampled_from([(1,), (2,), (3,), "pair", "products"]), st.booleans())
def test_pruned_transforms_equal_the_full_spectrum_transforms(grid, seed, lead, with_out):
    """Also given `out=`, on the leading shapes the stepper uses: the pair (2, dim) and the
    dim^2 - 1 products, whose intermediates are the grid's buffers, reused across examples."""
    lead = {"pair": (2, grid.dim), "products": (grid.dim**2 - 1,)}.get(lead, lead)
    band = random_complex(lead + grid.band_shape, seed)
    expected = sp.to_physical_array(sp.from_band(band, grid), grid)
    out = np.empty(lead + grid.shape) if with_out else None
    assert sp.band_to_physical(band, grid, out=out).tobytes() == expected.tobytes()
    samples = np.random.default_rng(seed).standard_normal(lead + grid.shape)
    expected = sp.to_band(sp.to_spectral_array(samples, grid), grid)
    out = np.empty(lead + grid.band_shape, dtype=np.complex128) if with_out else None
    assert sp.physical_to_band(samples, grid, out=out).tobytes() == expected.tobytes()


@property_settings
@given(grids, seeds, st.data())
def test_step_and_run_reject_a_state_outside_the_band(grid, seed, data):
    state = random_pair(grid, seed)
    outside = np.argwhere(~grid.dealias_mask)
    index = tuple(outside[data.draw(st.integers(0, len(outside) - 1))])
    state.data[(data.draw(st.integers(0, 1)), data.draw(st.integers(0, grid.dim - 1))) + index] = 1e-3
    params = SystemParams(DissipationSpec(1.0, 2.0, make_g("constant_one")),
                          DissipationSpec(0.0, 1.0, make_g("constant_one")), grid.dim)
    for call in (lambda: run(state, params, StepperConfig(t_end=math.inf, dt=1e-3, max_steps=1)),
                 lambda: run(state, params, StepperConfig(t_end=math.inf, dt=1e-3, max_steps=1),
                             nonlinear=None),
                 lambda: run(state, params, StepperConfig(t_end=1e-3, dt=1e-3)),
                 lambda: nonlinear_tendency(state),
                 lambda: make_record(state, params, record_weights(grid, params, 2.5, 5.0))):
        with pytest.raises(ValueError, match="outside the 2/3-rule band"):
            call()


@property_settings
@given(grids, seeds)
def test_pair_views_and_copies(grid, seed):
    u, b = random_solenoidal(grid, seed), random_solenoidal(grid, seed + 1)
    pair = SolutionPair(u, b, 0.5)
    assert not np.shares_memory(pair.data, u.coeffs)
    assert not np.shares_memory(pair.data, b.coeffs)
    assert np.array_equal(pair.u.coeffs, u.coeffs) and np.array_equal(pair.b.coeffs, b.coeffs)

    data = pair.data
    for part in (pair.u.coeffs, pair.b.coeffs, pair.u.components[-1].coeffs, pair.b.components[0].coeffs):
        assert np.shares_memory(part, data)
    pair.b.components[0].coeffs[(1,) * grid.dim] = 7.0
    assert data[1, 0][(1,) * grid.dim] == 7.0


@property_settings
@given(grids, seeds, st.floats(0.0, 10.0))
def test_snapshot_round_trip_is_bit_exact(tmp_path_factory, grid, seed, time):
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) + grid.shape
    u, b = (VectorField.from_array(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2))
    state = SolutionPair(u, b, time)
    path = tmp_path_factory.mktemp("snap") / "state.lmhd"
    sp.write_snapshot(str(path), list(state.u.components) + list(state.b.components))
    fields = sp.read_snapshot(str(path))
    assert len(fields) == 2 * grid.dim
    back = SolutionPair(VectorField(fields[:grid.dim]), VectorField(fields[grid.dim:]), time)
    assert back.data.tobytes() == state.data.tobytes()


@property_settings
@given(grids, seeds, st.floats(0.0, 10.0))
def test_band_snapshot_is_the_snapshot_of_the_expanded_pair(tmp_path_factory, grid, seed, time):
    band = random_pair(grid, seed).band
    state = SolutionPair.from_band(grid, band, time)
    directory = tmp_path_factory.mktemp("snap")
    sp.write_band_snapshot(str(directory / "band.lmhd"), band, grid)
    sp.write_snapshot(str(directory / "pair.lmhd"), list(state.u.components + state.b.components))
    assert (directory / "band.lmhd").read_bytes() == (directory / "pair.lmhd").read_bytes()


headers = st.builds(lambda version, dim, points, count, payload:
                    struct.pack("<IIII", version, dim, points, count) + payload,
                    st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2, 3, 4]),
                    st.sampled_from([0, 1, 2, 3, 4, 8, 2**31]), st.integers(0, 3),
                    st.binary(max_size=64))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=80), headers))
def test_read_snapshot_rejects_bad_bytes_with_value_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("fuzz") / "bad.lmhd"
    path.write_bytes(sp.SNAPSHOT_MAGIC + body)
    try:
        fields = sp.read_snapshot(str(path))
    except ValueError:
        return
    assert fields and all(f.coeffs.shape == fields[0].grid.shape for f in fields)


# digit strings of any length up to 500, long enough to overflow a float
digit_strings = st.integers(1, 500).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))
config_values = st.one_of(st.text(max_size=40), digit_strings)
config_keys = st.one_of(st.sampled_from(sorted(_CONFIG_KEYS)), st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(config_keys, config_values, max_size=4))
@example({"grid.n": "1" + "0" * 400})
def test_config_from_mapping_returns_config_or_raises_config_error(raw):
    try:
        config = config_from_mapping(raw)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)

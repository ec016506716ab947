"""Nonlinear tendencies against a direct convolution oracle, plus the
structural identities (skew-symmetry, solenoidality, cancellations)."""

import math
import tracemalloc

import numpy as np
import pytest

from lmhd import spectral as sp
from lmhd.diagnostics import make_record
from lmhd.dynamics import (
    SolutionPair,
    SystemParams,
    band_operator,
    nonlinear_tendency,
    tendency,
)
from lmhd.integrator import StepperConfig, run
from lmhd.multiplier import DissipationSpec, make_g
from lmhd.spectral import SpectralField, VectorField

from conftest import convolution_oracle, random_solenoidal


def make_params(nu=1.0, eta=0.0, alpha=2.0, beta=1.0, g1="constant_one", g2="constant_one", dim=2):
    return SystemParams(
        diss_u=DissipationSpec(nu, alpha, make_g(g1)),
        diss_b=DissipationSpec(eta, beta, make_g(g2)),
        dim=dim,
    )


def tendency_oracle(state):
    """Dealiased advective tendencies from exact mode-by-mode convolutions."""
    grid = state.grid

    def advect(v, w):
        out = []
        for i in range(grid.dim):
            acc = np.zeros(grid.shape, dtype=np.complex128)
            for j in range(grid.dim):
                dw = 1j * grid.kmesh[j] * w.components[i].coeffs
                acc += convolution_oracle(v.components[j].coeffs, dw, grid)
            out.append(acc)
        return out

    uu = advect(state.u, state.u)
    bb = advect(state.b, state.b)
    ub = advect(state.u, state.b)
    bu = advect(state.b, state.u)

    def assemble(raw):
        comps = []
        for arr in raw:
            arr = arr * grid.dealias_mask
            arr[(0,) * grid.dim] = 0.0
            comps.append(SpectralField(grid, arr))
        return sp.leray_project(VectorField(tuple(comps)))

    du = assemble([b - a for a, b in zip(uu, bb)])
    db = assemble([b - a for a, b in zip(ub, bu)])
    return du, db


class TestNonlinearTendency:
    def test_zero_state(self, grid16):
        state = SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid16))
        du, db = nonlinear_tendency(state)
        assert all(np.max(np.abs(c.coeffs)) == 0.0 for c in du.components)
        assert all(np.max(np.abs(c.coeffs)) == 0.0 for c in db.components)

    def test_equal_fields_cancel(self, grid32):
        # (u.grad)u = (b.grad)b and (u.grad)b = (b.grad)u when u = b
        u = random_solenoidal(grid32, seed=1)
        state = SolutionPair(u, u.copy())
        du, db = nonlinear_tendency(state)
        scale = sp.vector_l2_norm(u) ** 2
        assert all(np.max(np.abs(c.coeffs)) <= 1e-13 * scale for c in du.components)
        assert all(np.max(np.abs(c.coeffs)) <= 1e-13 * scale for c in db.components)

    # 3D keeps band 1: the O(modes^2) oracle is slow at band 2
    @pytest.mark.parametrize("dim, band", [(2, 2), (3, 1)], ids=["2d-8", "3d-8"])
    def test_matches_convolution_oracle(self, dim, band):
        grid = sp.make_grid(dim, 8)
        state = SolutionPair(
            random_solenoidal(grid, seed=11, band_per_axis=band),
            random_solenoidal(grid, seed=12, band_per_axis=band),
        )
        du, db = nonlinear_tendency(state)
        du_o, db_o = tendency_oracle(state)
        for got, want in zip(du.components + db.components, du_o.components + db_o.components):
            assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10

    def test_tendencies_solenoidal_corpus(self, grid16):
        for seed in range(100):
            state = SolutionPair(
                random_solenoidal(grid16, seed=300 + 2 * seed),
                random_solenoidal(grid16, seed=301 + 2 * seed),
            )
            du, db = nonlinear_tendency(state)
            assert sp.solenoidal_residual(du) <= 1e-12
            assert sp.solenoidal_residual(db) <= 1e-12

    def test_cross_helicity_skew_symmetry(self, grid32):
        state = SolutionPair(
            random_solenoidal(grid32, seed=21),
            random_solenoidal(grid32, seed=22),
        )
        du, db = nonlinear_tendency(state)
        lhs = sp.l2_inner(du, state.b) + sp.l2_inner(db, state.u)
        scale = sp.vector_l2_norm(state.u) * sp.vector_l2_norm(state.b)
        assert abs(lhs) <= 1e-10 * max(scale, 1.0)

    def test_resolution_consistency(self):
        # band-limited data evaluated on 8^2 and on 16^2 restricted to the
        # 8^2-retained band must agree
        coarse = sp.make_grid(2, 8)
        fine = sp.make_grid(2, 16)
        u8 = random_solenoidal(coarse, seed=31, band_per_axis=2)
        b8 = random_solenoidal(coarse, seed=32, band_per_axis=2)

        def embed(v):
            comps = []
            for c in v.components:
                coeffs = np.zeros(fine.shape, dtype=np.complex128)
                for i, ki in enumerate(np.fft.fftfreq(8, 1 / 8).astype(int)):
                    for j, kj in enumerate(np.fft.fftfreq(8, 1 / 8).astype(int)):
                        coeffs[ki % 16, kj % 16] = c.coeffs[i, j]
                comps.append(SpectralField(fine, coeffs))
            return VectorField(tuple(comps))

        du8, db8 = nonlinear_tendency(SolutionPair(u8, b8))
        du16, db16 = nonlinear_tendency(SolutionPair(embed(u8), embed(b8)))
        for got, fine_field in zip(du8.components + db8.components,
                                   du16.components + db16.components):
            for i, ki in enumerate(np.fft.fftfreq(8, 1 / 8).astype(int)):
                for j, kj in enumerate(np.fft.fftfreq(8, 1 / 8).astype(int)):
                    if abs(ki) < 8 / 3 and abs(kj) < 8 / 3:
                        assert abs(got.coeffs[i, j] - fine_field.coeffs[ki % 16, kj % 16]) < 1e-10

    def test_3d_tendency_solenoidal(self):
        grid = sp.make_grid(3, 8)
        state = SolutionPair(
            random_solenoidal(grid, seed=41, band_per_axis=2),
            random_solenoidal(grid, seed=42, band_per_axis=2),
        )
        du, db = nonlinear_tendency(state)
        assert sp.solenoidal_residual(du) <= 1e-12
        assert sp.solenoidal_residual(db) <= 1e-12


@pytest.mark.parametrize("dim, points, fields", [(2, 16, 3), (3, 8, 8)])
def test_tendency_forward_transforms_dim_squared_less_one_fields(monkeypatch, dim, points, fields):
    """One tendency forward-transforms the dim^2 - 1 products the projected
    divergence needs: the isotropic part of the stress is a gradient that P
    removes, so a return to transforming the whole stress fails here."""
    grid = sp.make_grid(dim, points)
    state = SolutionPair(random_solenoidal(grid, 5), random_solenoidal(grid, 6))
    calls = []
    original = sp.physical_to_band

    def counted(samples, grid, **kwargs):
        calls.append(len(samples))
        return original(samples, grid, **kwargs)

    monkeypatch.setattr(sp, "physical_to_band", counted)
    tendency(sp.to_band(state.data, grid), grid)
    assert calls == [fields] == [dim * dim - 1]
    assert band_operator(grid)[0].shape[:2] == (dim, dim * (dim + 1) // 2 - 1)


@pytest.mark.parametrize("dim, points", [(2, 16), (2, 32), (3, 8), (3, 16)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tendency_contraction_equals_stacked_sum(monkeypatch, dim, points, seed):
    """The in-place accumulation over each operator block gives the values of
    one np.sum over the stacked products of the block with the spectra."""
    grid = sp.make_grid(dim, points)
    rng = np.random.default_rng(seed)
    state = SolutionPair(random_solenoidal(grid, seed), random_solenoidal(grid, seed + 7))
    band = sp.to_band(state.data, grid)
    band *= rng.uniform(0.5, 2.0)
    spectra = []
    original = sp.physical_to_band

    def kept(samples, grid, **kwargs):
        spectra.append(original(samples, grid, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(sp, "physical_to_band", kept)
    got = tendency(band, grid)
    d_u, d_b = band_operator(grid)
    spec, n = spectra[0], d_u.shape[1]
    expected = np.stack([np.sum(d_u * spec[None, :n], axis=1), np.sum(d_b * spec[None, n:], axis=1)])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
def test_a_tendency_result_shares_no_buffer(dim, points):
    """Each tendency is a new array: a later call, whose intermediates reuse the
    grid's buffers, leaves an earlier result as it was."""
    grid = sp.make_grid(dim, points)
    first_band, second_band = (sp.to_band(SolutionPair(random_solenoidal(grid, seed),
                                                       random_solenoidal(grid, seed + 1)).data, grid)
                               for seed in (1, 3))
    first = tendency(first_band, grid)
    kept = first.copy()
    second = tendency(second_band, grid)
    assert np.array_equal(first, kept) and not np.shares_memory(first, second)
    assert np.array_equal(tendency(first_band, grid), kept)


def test_a_warm_tendency_allocates_little_but_its_result():
    """After the grid's first tendency has built its buffers, a 64^2 tendency's
    traced allocation peak stays within two band arrays, its result and the
    transforms' own scratch; one new array per intermediate (7.9 band arrays)
    fails here."""
    grid = sp.make_grid(2, 64)
    band = sp.to_band(SolutionPair(random_solenoidal(grid, 1), random_solenoidal(grid, 2)).data, grid)
    tendency(band, grid)
    tracemalloc.start()
    try:
        tendency(band, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * band.nbytes


class TestFullTendency:
    def test_single_shear_mode_closed_form(self, grid32):
        # u = (sin x2, 0) built exactly in spectral space: the
        # self-advection vanishes, so a step is pure decay
        coeffs = np.zeros(grid32.shape, dtype=np.complex128)
        coeffs[0, 1] = -0.5j
        coeffs[0, -1] = 0.5j
        u = VectorField((
            SpectralField(grid32, coeffs),
            sp.zero_field(grid32),
        ))
        state = SolutionPair(u, sp.zero_vector(grid32))
        nu = 0.8
        params = make_params(nu=nu, alpha=2.0)
        du, db = nonlinear_tendency(state)
        assert np.max(np.abs(du.coeffs)) < 1e-13
        assert all(np.max(np.abs(c.coeffs)) == 0.0 for c in db.components)
        dt = 0.01
        new = run(state, params, StepperConfig(t_end=math.inf, dt=dt, max_steps=1))
        expected = np.exp(-nu * dt) * u.coeffs  # m(1)^2 = 1 for alpha=2, g=1
        assert np.max(np.abs(new.u.coeffs - expected)) < 1e-13
        assert np.max(np.abs(new.b.coeffs)) == 0.0

    def test_theorem_regime_flag(self):
        assert make_params(nu=1.0, eta=0.0, alpha=2.0).theorem_regime()
        assert not make_params(nu=0.0, eta=0.0, alpha=2.0).theorem_regime()
        assert not make_params(nu=1.0, eta=0.5, alpha=2.0).theorem_regime()
        assert not make_params(nu=1.0, eta=0.0, alpha=1.5).theorem_regime()


class TestEnergyFlux:
    def test_zero_state(self, grid16):
        state = SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid16))
        du, db = nonlinear_tendency(state)
        assert not np.any(du.coeffs) and not np.any(db.coeffs)

    @pytest.mark.parametrize("dim, points, seed", [(2, 32, s) for s in range(5)] + [(3, 16, 0)],
                             ids=["0", "1", "2", "3", "4", "3d-16"])
    def test_nonlinear_flux_vanishes(self, dim, points, seed):
        grid = sp.make_grid(dim, points)
        state = SolutionPair(
            random_solenoidal(grid, seed=500 + 2 * seed),
            random_solenoidal(grid, seed=501 + 2 * seed),
        )
        du, db = nonlinear_tendency(state)
        flux = sp.l2_inner(du, state.u) + sp.l2_inner(db, state.b)
        scale = sp.vector_l2_norm(state.u) ** 2 + sp.vector_l2_norm(state.b) ** 2
        assert abs(flux) <= 1e-10 * scale

    def test_dissipation_rate_alpha_one_is_gradient_norm(self, grid32):
        params = make_params(nu=1.0, alpha=1.0)
        state = SolutionPair(
            random_solenoidal(grid32, seed=71),
            random_solenoidal(grid32, seed=72),
        )
        # the record's ||L u||^2, with m(|k|) = |k|
        rate = make_record(state, params, gamma=2.5, s=5.0).diss_u
        grad_sq = sum(sp.hs_norm(c, 1.0) ** 2 for c in state.u.components)
        assert abs(rate - grad_sq) <= 1e-12 * grad_sq


class TestValidation:
    def test_mismatched_grids_rejected(self, grid16, grid32):
        with pytest.raises(ValueError):
            SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid32))

    def test_negative_time_rejected(self, grid16):
        with pytest.raises(ValueError):
            SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid16), time=-1.0)

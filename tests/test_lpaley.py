"""Dyadic decomposition, Besov norms, and the measured inequality ratios."""

import numpy as np
import pytest

from lmhd import spectral as sp
from lmhd.diagnostics import make_record
from lmhd.dynamics import SolutionPair, SystemParams
from lmhd.lpaley import (
    BesovIndex,
    annulus_mask,
    bernstein_ratio,
    besov_norm,
    commutator_ratio,
    dyadic_blocks,
    make_partition,
    split_terms,
)
from lmhd.multiplier import DissipationSpec, make_g
from lmhd.spectral import SpectralField, VectorField

from conftest import random_annulus_field, random_real_field, random_solenoidal

E = float(np.e)
HOLDER = (2, np.inf, 2, 2, np.inf)


class TestPartition:
    @pytest.mark.parametrize("points", [16, 32, 64, 128])
    def test_partition_of_unity(self, points):
        grid = sp.make_grid(2, points)
        part = make_partition(grid)
        total = part.psi_hat + sum(part.phi_hats)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_partition_of_unity_3d(self):
        grid = sp.make_grid(3, 16)
        part = make_partition(grid)
        total = part.psi_hat + sum(part.phi_hats)
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_block_supports_in_annuli(self):
        grid = sp.make_grid(2, 64)
        part = make_partition(grid)
        for j, phi in enumerate(part.phi_hats):
            assert np.all(phi[~annulus_mask(grid, j)] == 0.0)
        assert np.all(part.psi_hat[grid.kmag >= 1.0] == 0.0)

    def test_profiles_between_zero_and_one(self):
        grid = sp.make_grid(2, 32)
        part = make_partition(grid)
        for prof in [part.psi_hat] + part.phi_hats:
            assert np.all(prof >= 0.0) and np.all(prof <= 1.0)


class TestBlocks:
    def test_zero_field_blocks(self, grid32):
        part = make_partition(grid32)
        blocks = dyadic_blocks(sp.zero_field(grid32), part)
        assert all(np.max(np.abs(b.coeffs)) == 0.0 for b in blocks)

    def test_single_mode_lands_in_neighboring_blocks(self, grid32):
        part = make_partition(grid32)
        coeffs = np.zeros(grid32.shape, dtype=np.complex128)
        coeffs[4, 0] = 1.0  # |k| = 2^2
        blocks = dyadic_blocks(SpectralField(grid32, coeffs), part)
        for j, block in zip(part.j_values, blocks):
            if abs(j - 2) > 1:
                assert np.max(np.abs(block.coeffs)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        grid = sp.make_grid(2, 64)
        part = make_partition(grid)
        f = random_real_field(grid, seed=seed)
        total = sum(b.coeffs for b in dyadic_blocks(f, part))
        assert np.max(np.abs(total - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    def test_almost_orthogonality(self):
        grid = sp.make_grid(2, 64)
        part = make_partition(grid)
        f = random_real_field(grid, seed=9)
        blocks = dyadic_blocks(f, part)
        norm_sq = sp.lp_norm(f, 2) ** 2
        for i, ji in enumerate(part.j_values):
            for k, jk in enumerate(part.j_values):
                if abs(ji - jk) >= 2:
                    assert abs(sp.l2_inner(blocks[i], blocks[k])) <= 1e-12 * norm_sq

    def test_grid_mismatch_rejected(self, grid16, grid32):
        part = make_partition(grid16)
        with pytest.raises(ValueError):
            dyadic_blocks(sp.zero_field(grid32), part)


class TestBesovNorm:
    def test_zero_field(self, grid32):
        part = make_partition(grid32)
        assert besov_norm(sp.zero_field(grid32), BesovIndex(1.0, 2, 2), part) == 0.0

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            BesovIndex(1.0, 3, 2)
        with pytest.raises(ValueError):
            BesovIndex(1.0, 2, 1.5)

    @pytest.mark.parametrize("points", [16, 32, 64, 128])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_sobolev_equivalence(self, points, s):
        grid = sp.make_grid(2, points)
        part = make_partition(grid)
        for seed in range(10):
            f = random_real_field(grid, seed=seed)
            ratio = besov_norm(f, BesovIndex(s, 2, 2), part) / sp.hs_norm(f, s)
            assert 0.25 <= ratio <= 4.0

    def test_single_mode_sup_norm_weight(self, grid32):
        part = make_partition(grid32)
        coeffs = np.zeros(grid32.shape, dtype=np.complex128)
        coeffs[4, 0] = 0.5
        coeffs[-4, 0] = 0.5
        f = SpectralField(grid32, coeffs)
        s = 1.5
        got = besov_norm(f, BesovIndex(s, np.inf, np.inf), part)
        # the mode |k| = 4 sits on the plateau of block j = 2, so the sup
        # picks up 2^(j s) * ||cos(4 x)||_inf from that block
        assert got == pytest.approx(2.0 ** (2 * s) * 1.0, rel=1e-12)


class TestBernstein:
    def test_single_mode_first_derivative(self, grid32):
        coeffs = np.zeros(grid32.shape, dtype=np.complex128)
        coeffs[4, 0] = 0.5
        coeffs[-4, 0] = 0.5
        ratio = bernstein_ratio(SpectralField(grid32, coeffs), 2, 1, 2, 2)
        assert ratio == pytest.approx(1.0, rel=1e-12)
        assert 0.5 <= ratio <= 2.0

    def test_off_center_mode_takes_largest_component(self, grid32):
        coeffs = np.zeros(grid32.shape, dtype=np.complex128)
        coeffs[3, 2] = 0.5  # |k| = sqrt(13) in annulus j=2
        coeffs[-3, -2] = 0.5
        ratio = bernstein_ratio(SpectralField(grid32, coeffs), 2, 1, 2, 2)
        # the sup over first derivatives picks out max(|k_1|, |k_2|) = 3
        assert ratio == pytest.approx(3.0 / 4.0, rel=1e-12)

    def test_support_violation_rejected(self, grid32):
        f = random_real_field(grid32, seed=1)  # full-spectrum field
        with pytest.raises(ValueError):
            bernstein_ratio(f, 2, 1, 2, 2)

    def test_p_greater_than_q_rejected(self, grid32):
        f = random_annulus_field(grid32, 2, seed=2)
        with pytest.raises(ValueError):
            bernstein_ratio(f, 2, 0, np.inf, 2)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_corpus_bounded_two_sided_for_l2(self, grid32, j):
        # k_order=1, p=q=2: the largest directional derivative carries at
        # least |k|/sqrt(N) and at most |k|, with |k|/2^j inside (1/2, 2)
        lower = 0.5 / np.sqrt(2.0)
        for seed in range(20):
            f = random_annulus_field(grid32, j, seed=100 * j + seed)
            ratio = bernstein_ratio(f, j, 1, 2, 2)
            assert lower - 1e-12 <= ratio <= 2.0

    def test_fractional_variant_consistent_with_dyadic_weight(self, grid32):
        for seed in range(10):
            f = random_annulus_field(grid32, 3, seed=seed)
            ratio = bernstein_ratio(f, 3, 0, 2, 2, fractional_order=0.5)
            assert 0.25 <= ratio <= 4.0


def velocity_record(u, diss):
    """The record of the state (u, 0) under velocity dissipation `diss`."""
    params = SystemParams(diss, DissipationSpec(0.0, 1.0, make_g("constant_one")), u.grid.dim)
    return make_record(SolutionPair(u, sp.zero_vector(u.grid)), params, gamma=2.5, s=5.0)


class TestGradSupSplit:
    def test_zero_field(self, grid32):
        diss = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        record = velocity_record(sp.zero_vector(grid32), diss)
        assert (record.split_low, record.split_high, record.grad_u_inf) == (0.0, 0.0, 0.0)

    def test_threshold_below_e_rejected(self):
        diss = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        with pytest.raises(ValueError):
            split_terms(diss, 1.0, 0.0, 0.0)

    def test_single_mode_closed_form(self, grid32):
        # u = (0, cos x1), alpha = 1 + N/2 = 2, g = 1, so m(1) = 1 and the
        # threshold is e + X = e + ||grad u||^2: grad u has the single entry
        # du2/dx1 = -sin x1
        coeffs = np.zeros(grid32.shape, dtype=np.complex128)
        coeffs[1, 0] = 0.5
        coeffs[-1, 0] = 0.5
        u = VectorField((sp.zero_field(grid32), SpectralField(grid32, coeffs)))
        diss = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        record = velocity_record(u, diss)
        l2_sq = 2.0 * np.pi**2  # ||cos||_2^2 = ||sin||_2^2 on the torus
        threshold = E + l2_sq
        assert record.x_norm == pytest.approx(l2_sq, rel=1e-12)
        assert record.grad_u_inf == pytest.approx(1.0, abs=1e-12)
        assert record.split_low == pytest.approx(np.sqrt(np.log(threshold) * l2_sq), rel=1e-12)
        assert record.split_high == pytest.approx(np.sqrt(l2_sq / threshold), rel=1e-12)
        low, high = split_terms(diss, E, record.diss_u, record.diss_grad_u)
        assert low == pytest.approx(np.sqrt(l2_sq), rel=1e-12)
        assert high == pytest.approx(E**-0.5 * np.sqrt(l2_sq), rel=1e-12)

    def test_random_fields_have_finite_ratio(self, grid32):
        diss = DissipationSpec(1.0, 2.0, make_g("iterated_log"))
        for seed in range(10):
            record = velocity_record(random_solenoidal(grid32, seed=seed), diss)
            low, high = split_terms(diss, E + float(seed), record.diss_u, record.diss_grad_u)
            assert np.isfinite(record.grad_u_inf) and record.grad_u_inf > 0.0
            assert record.grad_u_inf / (low + high) < 10.0


class TestCommutator:
    def test_constant_f_gives_zero(self, grid32):
        f = sp.forward_transform(np.full(grid32.shape, 3.0), grid32)
        g = random_real_field(grid32, seed=4, band=6)
        for s in (0.5, 1.0, 2.0):
            assert commutator_ratio(f, g, s, HOLDER) == 0.0

    def test_two_single_modes_finite(self, grid32):
        cf = np.zeros(grid32.shape, dtype=np.complex128)
        cf[1, 0] = cf[-1, 0] = 0.5
        cg = np.zeros(grid32.shape, dtype=np.complex128)
        cg[0, 2] = cg[0, -2] = 0.5
        ratio = commutator_ratio(SpectralField(grid32, cf), SpectralField(grid32, cg), 1.0, HOLDER)
        assert np.isfinite(ratio) and 0.0 < ratio < 10.0

    def test_incompatible_exponents_rejected(self, grid32):
        f = random_real_field(grid32, seed=5, band=4)
        g = random_real_field(grid32, seed=6, band=4)
        with pytest.raises(ValueError):
            commutator_ratio(f, g, 1.0, (2, 2, 2, 2, np.inf))
        with pytest.raises(ValueError):
            commutator_ratio(f, g, 1.0, (2, 3, 6, 2, np.inf))
        with pytest.raises(ValueError):
            commutator_ratio(f, g, 0.0, HOLDER)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_corpus_bounded(self, grid32, s):
        worst = 0.0
        for seed in range(30):
            f = random_real_field(grid32, seed=700 + seed, band=7)
            g = random_real_field(grid32, seed=900 + seed, band=7)
            worst = max(worst, commutator_ratio(f, g, s, HOLDER))
        assert np.isfinite(worst) and worst < 5.0

"""Dissipation symbols, the g catalog, and the Osgood classifier."""

import numpy as np
import pytest

from lmhd import spectral as sp
from lmhd.multiplier import (
    CONVERGES,
    DIVERGES,
    DissipationSpec,
    GFunction,
    apply_L,
    apply_dissipation,
    make_g,
    osgood_classify,
    partial_integral,
    symbol,
)
from lmhd.spectral import SpectralField, VectorField

from conftest import random_real_field, random_solenoidal

E = float(np.e)

CATALOG = [
    make_g("constant_one"),
    make_g("power_log", c=1.0),
    make_g("power_log", c=2.0),
    make_g("iterated_log"),
    make_g("power", epsilon=0.05),
    make_g("power", epsilon=0.1),
    make_g("power", epsilon=0.5),
    make_g("spiky", period=0.6, height=2.0),
    make_g("tabulated", points=((0.0, 1.0), (4.0, 1.5), (64.0, 2.0))),
]


class TestGFunction:
    @pytest.mark.parametrize("g", CATALOG, ids=lambda g: g.kind)
    def test_at_least_one_and_nondecreasing(self, g):
        radii = np.concatenate([[0.0], np.logspace(-2, 8, 300)])
        values = g(radii)
        assert np.all(values >= 1.0 - 1e-15)
        assert np.all(np.diff(values) >= -1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_g("mystery")

    def test_non_monotone_tabulated_rejected(self):
        with pytest.raises(ValueError, match="monotonicity"):
            make_g("tabulated", points=((0.0, 2.0), (1.0, 1.5)))

    def test_tabulated_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_g("tabulated", points=((0.0, 0.5),))

    @pytest.mark.parametrize("kind, param", [("power_log", "c"), ("power", "epsilon"),
                                             ("spiky", "period"), ("spiky", "height")])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, kind, param, value):
        with pytest.raises(ValueError, match="finite"):
            make_g(kind, **{param: value})

    def test_power_log_value(self):
        g = make_g("power_log", c=1.0)
        assert abs(g(10.0) - np.sqrt(np.log(E + 10.0))) < 1e-14


class TestSymbol:
    def test_pure_power(self):
        spec = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        assert symbol(spec, 3.0) == 9.0

    def test_zero_radius_maps_to_zero(self):
        spec = DissipationSpec(1.0, 2.0, make_g("power_log"))
        assert symbol(spec, 0.0) == 0.0

    def test_power_log_value(self):
        spec = DissipationSpec(1.0, 2.0, make_g("power_log", c=1.0))
        assert abs(symbol(spec, 10.0) - 100.0 / np.sqrt(np.log(E + 10.0))) < 1e-12

    def test_negative_radius_rejected(self):
        spec = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        with pytest.raises(ValueError):
            symbol(spec, -1.0)

    def test_bounded_by_pure_power(self):
        rng = np.random.default_rng(0)
        radii = rng.uniform(0.0, 200.0, size=100)
        for g in CATALOG:
            spec = DissipationSpec(1.0, 1.7, g)
            assert np.all(symbol(spec, radii) <= radii**1.7 + 1e-12)

    def test_pointwise_larger_g_never_increases_symbol(self):
        ordered_pairs = [
            (make_g("constant_one"), make_g("power_log", c=1.0)),
            (make_g("constant_one"), make_g("iterated_log")),
            (make_g("power_log", c=1.0), make_g("power_log", c=2.0)),
            (make_g("power", epsilon=0.05), make_g("power", epsilon=0.1)),
        ]
        rng = np.random.default_rng(1)
        radii = rng.uniform(0.0, 500.0, size=100)
        for small, large in ordered_pairs:
            assert np.all(np.asarray(large(radii)) >= np.asarray(small(radii)) - 1e-12)
            s_small = symbol(DissipationSpec(1.0, 2.0, small), radii)
            s_large = symbol(DissipationSpec(1.0, 2.0, large), radii)
            assert np.all(s_large <= s_small + 1e-12)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            DissipationSpec(-1.0, 2.0, make_g("constant_one"))
        with pytest.raises(ValueError):
            DissipationSpec(1.0, 0.0, make_g("constant_one"))


class TestOperators:
    def test_zero_coefficient_gives_zero(self, grid16):
        v = random_solenoidal(grid16, seed=2)
        spec = DissipationSpec(0.0, 1.0, make_g("constant_one"))
        out = apply_dissipation(v, spec)
        assert all(np.max(np.abs(c.coeffs)) == 0.0 for c in out.components)

    def test_unit_mode_scaling(self, grid16):
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[1, 0] = 0.5
        coeffs[-1, 0] = 0.5
        v = VectorField((SpectralField(grid16, coeffs), sp.zero_field(grid16)))
        spec = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        out = apply_dissipation(v, spec)
        assert np.max(np.abs(out.components[0].coeffs - coeffs)) < 1e-14

    def test_factorization(self, grid32):
        # nu * m^2 = nu * |k|^(2 alpha) / g^2 applied in spectral space
        spec = DissipationSpec(0.7, 1.3, make_g("iterated_log"))
        v = random_solenoidal(grid32, seed=3)
        out = apply_dissipation(v, spec)
        g_sq = np.asarray(spec.g(grid32.kmag)) ** 2
        for comp, got in zip(v.components, out.components):
            expected = 0.7 * sp.fractional_derivative(comp, 2.6).coeffs / g_sq
            assert np.max(np.abs(got.coeffs - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-30)

    def test_apply_L_twice_is_dissipation_with_unit_coefficient(self, grid16):
        spec = DissipationSpec(0.3, 1.5, make_g("power_log"))
        unit = DissipationSpec(1.0, 1.5, make_g("power_log"))
        v = random_solenoidal(grid16, seed=4)
        twice = apply_L(apply_L(v, spec), spec)
        once = apply_dissipation(v, unit)
        scale = max(np.max(np.abs(c.coeffs)) for c in once.components)
        for a, b in zip(twice.components, once.components):
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * scale

    def test_apply_L_zero_field(self, grid16):
        spec = DissipationSpec(1.0, 1.0, make_g("constant_one"))
        out = apply_L(sp.zero_vector(grid16), spec)
        assert all(np.max(np.abs(c.coeffs)) == 0.0 for c in out.components)

    def test_apply_L_alpha_one_matches_gradient_norm(self, grid32):
        spec = DissipationSpec(1.0, 1.0, make_g("constant_one"))
        v = random_solenoidal(grid32, seed=5)
        lhs = sp.vector_l2_norm(apply_L(v, spec))
        rhs = np.sqrt(sum(sp.hs_norm(c, 1.0) ** 2 for c in v.components))
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("seed", range(5))
    def test_self_adjoint(self, grid16, seed):
        spec = DissipationSpec(1.0, 1.2, make_g("iterated_log"))
        f = random_real_field(grid16, seed=60 + 2 * seed)
        h = random_real_field(grid16, seed=61 + 2 * seed)
        lf = SpectralField(grid16, apply_L(VectorField((f, f)), spec).components[0].coeffs)
        lh = SpectralField(grid16, apply_L(VectorField((h, h)), spec).components[0].coeffs)
        a = sp.l2_inner(lf, h)
        b = sp.l2_inner(f, lh)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


class TestOsgood:
    def test_constant_one_diverges_with_loglog_partial_integral(self):
        v = osgood_classify(make_g("constant_one"), upper_limit=1e12)
        assert v.classification == DIVERGES
        assert abs(v.partial_integral - np.log(np.log(1e12))) < 1e-6
        assert v.upper_limit_used == 1e12

    def test_iterated_log_diverges(self):
        assert osgood_classify(make_g("iterated_log")).classification == DIVERGES

    def test_spiky_diverges(self):
        assert osgood_classify(make_g("spiky", period=0.6, height=2.0)).classification == DIVERGES

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_power_converges(self, eps):
        assert osgood_classify(make_g("power", epsilon=eps)).classification == CONVERGES

    def test_power_log_converges(self):
        # the comparison bound g^2 <= c ln(e+tau) integrates to a finite value
        assert osgood_classify(make_g("power_log", c=1.0)).classification == CONVERGES

    def test_partial_integral_nondecreasing_in_limit(self):
        g = make_g("iterated_log")
        values = [osgood_classify(g, upper_limit=lim).partial_integral
                  for lim in (1e3, 1e6, 1e12, 1e24, 1e48)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 0.0 for v in values)

    def test_preconditions(self):
        g = make_g("constant_one")
        with pytest.raises(ValueError):
            osgood_classify(g, upper_limit=5.0)
        with pytest.raises(ValueError):
            osgood_classify(g, samples=10)

    @pytest.mark.parametrize("limit", [np.inf, np.nan])
    def test_non_finite_limit_rejected(self, limit):
        # an infinite limit made the window loop run forever
        with pytest.raises(ValueError, match="finite"):
            osgood_classify(make_g("constant_one"), upper_limit=limit)

    def test_partial_integral_closed_form_power(self):
        # g(tau) = (e+tau)^0.1 gives integrand below 1/tau^1.2 for large tau;
        # the quadrature total must stay below the convergent comparison value
        g = make_g("power", epsilon=0.1)
        total = partial_integral(g, 1e12)
        assert 0.0 < total < np.inf
        more = partial_integral(g, 1e100)
        assert more - total < 0.05  # tail nearly exhausted

    def test_spiky_truth_is_divergent(self):
        # each window between consecutive jumps contributes the same mass
        g = make_g("spiky", period=0.5, height=2.0)
        sigma_jumps = [0.5 * 4.0**j for j in range(1, 4)]
        masses = []
        for lo, hi in zip(sigma_jumps[:-1], sigma_jumps[1:]):
            sigma = np.linspace(lo + 1e-9, hi - 1e-9, 1001)
            h = g.inverse_square_loglog(sigma)
            masses.append(np.trapezoid(h, sigma))
        assert masses[1] == pytest.approx(masses[0], rel=1e-6)

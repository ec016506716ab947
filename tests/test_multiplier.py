"""Dissipation symbols, the g catalog, and the Osgood classifier."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lmhd import multiplier as mp, spectral as sp
from lmhd.multiplier import (
    CONVERGES,
    DIVERGES,
    DissipationSpec,
    GFunction,
    band_symbol,
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
SMOOTH = [g for g in CATALOG if g.kind not in ("spiky", "tabulated")]


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

    @pytest.mark.parametrize("points", [((0.0, np.nan),), ((np.nan, 2.0),), ((0.0, 1.0), (np.inf, 2.0))])
    def test_tabulated_non_finite_rejected(self, points):
        with pytest.raises(ValueError, match="finite"):
            make_g("tabulated", points=points)

    @pytest.mark.parametrize("kind, param", [("power_log", "c"), ("power", "epsilon"),
                                             ("spiky", "period"), ("spiky", "height")])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, kind, param, value):
        with pytest.raises(ValueError, match="finite"):
            make_g(kind, **{param: value})

    def test_power_log_value(self):
        g = make_g("power_log", c=1.0)
        assert abs(g(10.0) - np.sqrt(np.log(E + 10.0))) < 1e-14

    @pytest.mark.parametrize("g", CATALOG, ids=lambda g: g.kind)
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3.0, 6.5), min_size=1, max_size=50))
    @example([np.nextafter(2.4, 0.0), 2.4, np.nextafter(2.4, 3.0)])  # spiky's first jump
    def test_loglog_form_matches_g(self, g, sigmas):
        """h(sigma) = 1 / g(tau)^2 at tau = exp(exp(sigma)); tau is finite up to sigma = 6.5."""
        sigma = np.array(sigmas)
        expected = 1.0 / np.asarray(g(np.exp(np.exp(sigma)))) ** 2
        np.testing.assert_allclose(g.inverse_square_loglog(sigma), expected, rtol=1e-13, atol=0.0)


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
    """L multiplies each coefficient by m(|k|), the dissipation by coefficient * m(|k|)^2."""

    def test_zero_coefficient_gives_zero(self, grid16):
        v = random_solenoidal(grid16, seed=2)
        spec = DissipationSpec(0.0, 1.0, make_g("constant_one"))
        assert not np.any(spec.coefficient * symbol(spec, grid16.kmag) ** 2 * v.coeffs)

    def test_unit_mode_scaling(self, grid16):
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[1, 0] = 0.5
        coeffs[-1, 0] = 0.5
        spec = DissipationSpec(1.0, 2.0, make_g("constant_one"))
        out = spec.coefficient * symbol(spec, grid16.kmag) ** 2 * coeffs
        assert np.max(np.abs(out - coeffs)) < 1e-14

    def test_factorization(self, grid32):
        # nu * m^2 = nu * |k|^(2 alpha) / g^2 applied in spectral space
        spec = DissipationSpec(0.7, 1.3, make_g("iterated_log"))
        v = random_solenoidal(grid32, seed=3)
        out = spec.coefficient * symbol(spec, grid32.kmag) ** 2 * v.coeffs
        g_sq = np.asarray(spec.g(grid32.kmag)) ** 2
        for comp, got in zip(v.components, out):
            expected = 0.7 * sp.fractional_derivative(comp, 2.6).coeffs / g_sq
            assert np.max(np.abs(got - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-30)

    def test_L_twice_is_dissipation_with_unit_coefficient(self, grid16):
        spec = DissipationSpec(0.3, 1.5, make_g("power_log"))
        unit = DissipationSpec(1.0, 1.5, make_g("power_log"))
        v = random_solenoidal(grid16, seed=4)
        twice = symbol(spec, grid16.kmag) * (symbol(spec, grid16.kmag) * v.coeffs)
        once = unit.coefficient * symbol(unit, grid16.kmag) ** 2 * v.coeffs
        assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))

    def test_L_zero_field(self, grid16):
        spec = DissipationSpec(1.0, 1.0, make_g("constant_one"))
        assert not np.any(symbol(spec, grid16.kmag) * sp.zero_vector(grid16).coeffs)

    def test_L_alpha_one_matches_gradient_norm(self, grid32):
        spec = DissipationSpec(1.0, 1.0, make_g("constant_one"))
        v = random_solenoidal(grid32, seed=5)
        lhs = sp.vector_l2_norm(VectorField.from_array(grid32, symbol(spec, grid32.kmag) * v.coeffs))
        rhs = np.sqrt(sum(sp.hs_norm(c, 1.0) ** 2 for c in v.components))
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("seed", range(5))
    def test_self_adjoint(self, grid16, seed):
        spec = DissipationSpec(1.0, 1.2, make_g("iterated_log"))
        f = random_real_field(grid16, seed=60 + 2 * seed)
        h = random_real_field(grid16, seed=61 + 2 * seed)
        m = symbol(spec, grid16.kmag)
        a = sp.l2_inner(SpectralField(grid16, m * f.coeffs), h)
        b = sp.l2_inner(f, SpectralField(grid16, m * h.coeffs))
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


def per_window_osgood(g, upper_limit):
    """Reference: the classifier with one linspace, g pass and Simpson rule per window."""
    bounds = [float(np.log(np.log(upper_limit)))]
    while bounds[-1] / mp._WINDOW_RATIO > mp._WINDOW_FLOOR:
        bounds.append(bounds[-1] / mp._WINDOW_RATIO)
    bounds = bounds[::-1]
    nodes = mp._OSGOOD_SAMPLES // len(bounds) | 1
    integrals = []
    for lo, hi in zip([0.0] + bounds[:-1], bounds):
        sigma = np.linspace(lo, hi, nodes)
        f = g.inverse_square_loglog(sigma)
        integrals.append((sigma[1] - sigma[0]) / 3.0 * float(
            f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-2:2].sum()))
    tail = np.array(integrals[-(mp._RATIO_WINDOWS + 1):])
    if np.any(tail <= 1e-290):
        return CONVERGES, float(np.sum(integrals)), ()
    ratios = tuple(float(b / a) for a, b in zip(tail[:-1], tail[1:]))
    med = float(np.median(ratios))
    verdict = (DIVERGES if med >= mp._DIVERGE_THRESHOLD
               else CONVERGES if med <= mp._CONVERGE_THRESHOLD else mp.INCONCLUSIVE)
    return verdict, float(np.sum(integrals)), ratios


@pytest.mark.parametrize("upper_limit", [1e3, 1e12, 1e100, 1e300])
@pytest.mark.parametrize("g", CATALOG, ids=lambda g: g.kind)
def test_osgood_windows_in_one_pass_match_per_window_rule(g, upper_limit):
    verdict = osgood_classify(g, upper_limit)
    classification, total, ratios = per_window_osgood(g, upper_limit)
    assert verdict.classification == classification
    assert verdict.partial_integral == pytest.approx(total, rel=2e-15, abs=0.0)
    assert len(verdict.window_ratios) == len(ratios)
    assert np.allclose(verdict.window_ratios, ratios, rtol=2e-15, atol=0.0)


# limits from below e up to 1e300, log-uniform in the exponent
limits = st.lists(st.floats(-1.0, 300.0).map(lambda p: 10.0**p), min_size=1, max_size=40)


class TestPartialIntegral:
    """The running Osgood integral F(x) = integral_e^x, one limit or many in one pass."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SMOOTH), limits)
    def test_array_matches_per_limit_calls(self, g, xs):
        # the shared pass steps no coarser than max sigma / 4096 on every panel
        many = partial_integral(g, np.array(xs))
        one_by_one = np.array([partial_integral(g, x) for x in xs])
        np.testing.assert_allclose(many, one_by_one, rtol=1e-12, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(CATALOG), limits, st.data())
    def test_monotone_zero_below_e_and_equal_on_duplicates(self, g, xs, data):
        xs = xs + data.draw(st.lists(st.sampled_from(xs), max_size=5))
        x = np.array(xs)
        values = partial_integral(g, x)
        order = np.argsort(x, kind="stable")
        assert np.all(np.diff(values[order]) >= 0.0)
        assert np.all(values[x <= E] == 0.0)
        for a in np.unique(x):
            assert np.unique(values[x == a]).size == 1

    def test_empty_array_gives_empty_array(self):
        out = partial_integral(make_g("iterated_log"), np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("limit", [np.inf, np.nan, [1e3, np.inf], [np.nan, 1e3]])
    def test_non_finite_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="finite"):
            partial_integral(make_g("iterated_log"), limit)

    def test_staircase_differences_are_exact(self):
        # g = 2 on [10, 1e6), so F(x) - F(x0) = (lnln x - lnln x0) / 4 there; the
        # jump at 10 lies below every limit and is cut once, for all of them
        g = make_g("tabulated", points=((0.0, 1.0), (10.0, 2.0), (1e6, 3.0)))
        x = E + np.linspace(256.0, 264.0, 17)
        f = partial_integral(g, x)
        exact = (np.log(np.log(x)) - np.log(np.log(x[0]))) / 4.0
        np.testing.assert_allclose(f - f[0], exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("g", CATALOG + [make_g("spiky", period=0.2, height=1.5)], ids=repr)
@pytest.mark.parametrize("dim, points", [(2, 16), (2, 64), (3, 16)])
def test_band_symbol_is_the_band_of_the_grid_symbol(g, dim, points):
    # the spiky g with period 0.2 and height 1.5 jumps at |k| ~ 4.8, inside every band here
    grid = sp.make_grid(dim, points)
    spec = DissipationSpec(0.7, 2.5, g)
    expected = sp.to_band(symbol(spec, grid.kmag), grid)
    got = band_symbol(spec, grid)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert band_symbol(spec, grid) is not got

"""Records, estimate checks, initial conditions, config parsing, runner."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmhd import diagnostics, integrator, multiplier, spectral as sp
from lmhd.diagnostics import (
    ConfigError,
    DiagnosticRecord,
    DiagnosticTracker,
    RECORD_FIELDS,
    RunConfig,
    STATUS_BLOWUP,
    STATUS_CHECK_FAILED,
    STATUS_OK,
    config_from_mapping,
    energy_balance_residual,
    evaluate_checks,
    gamma_log_derivative_check,
    gronwall_bound_check,
    initial_condition,
    make_record,
    parse_config,
    read_series,
    record_weights,
    run_experiment,
    write_series,
)
from lmhd.dynamics import SolutionPair, SystemParams
from lmhd.integrator import StepperConfig, run
from lmhd.multiplier import DissipationSpec, GFunction, make_g, partial_integral

E = float(np.e)

# the record table of a short adaptive 64^2 run, as hex
BLAS_THREADS_RECORDS = (
    "import numpy as np; from lmhd.diagnostics import config_from_mapping, run_experiment; "
    "result = run_experiment(config_from_mapping({'grid.points': '64', 'params.nu': '0.05', "
    "'stepper.dt': 'adaptive', 'stepper.t_end': '0.02'})); "
    "print(np.array(result.records).tobytes().hex())")


def make_params(nu=1.0, eta=0.0, alpha=2.0, g1="constant_one"):
    return SystemParams(
        diss_u=DissipationSpec(nu, alpha, make_g(g1)),
        diss_b=DissipationSpec(eta, 1.0, make_g("constant_one")),
        dim=2,
    )


def linear_mode_tracker(t_end=0.1, dt=1e-4, cadence=1, nu=1.0):
    grid = sp.make_grid(2, 16)
    params = make_params(nu=nu)
    state0 = initial_condition("single_mode", {"k": (1, 0), "amplitude": 1.0}, grid)
    tracker = DiagnosticTracker(params, 2.5, 5.0, cadence=cadence)
    run(state0, params, StepperConfig(t_end=t_end, dt=dt), observer=tracker, nonlinear=None)
    return tracker.records, params


class TestRecord:
    def test_zero_state(self, grid16):
        params = make_params()
        state = SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid16))
        r = make_record(state, params, record_weights(grid16, params, 2.5, 5.0))
        assert r.energy == 0.0 and r.x_norm == 0.0
        assert r.split_low == 0.0 and r.split_high == 0.0 and r.grad_u_inf == 0.0
        assert r.cum_diss == 0.0 and r.div_u == 0.0

    def test_shear_mode_closed_forms(self):
        # u = (sin x2, 0), b = 0: energy = pi^2, X = 2 pi^2
        grid = sp.make_grid(2, 32)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[0, 1] = -0.5j
        coeffs[0, -1] = 0.5j
        u = sp.VectorField((sp.SpectralField(grid, coeffs), sp.zero_field(grid)))
        state = SolutionPair(u, sp.zero_vector(grid))
        params = make_params()
        r = make_record(state, params, record_weights(grid, params, 2.5, 5.0))
        assert r.energy == pytest.approx(np.pi**2, rel=1e-10)
        assert r.x_norm == pytest.approx(2.0 * np.pi**2, rel=1e-10)
        assert r.grad_u_inf == pytest.approx(1.0, abs=1e-10)
        assert r.y_norm == pytest.approx(2.0 * np.pi**2, rel=1e-10)  # |k| = 1
        assert r.gamma_norm == pytest.approx(2.0 * np.pi**2, rel=1e-10)

    @pytest.mark.parametrize("s", [150.0, 200.0])
    def test_an_overflowed_sobolev_weight_never_reads_nan(self, s):
        # on 32^2 Orszag-Tang, (|k|^2)^s overflows to inf at modes where the t = 0 state
        # has no power, which made y_norm nan; at s = 200 it also overflows at |k|^2 = 100,
        # where the state has roundoff power (1e-33), so the sum is finite only at s = 150
        config = config_from_mapping({"grid.points": "32", "ic.name": "orszag_tang_2d",
                                      "diag.s": str(s), "stepper.dt": "0.001",
                                      "stepper.t_end": "0.001", "diag.cadence": "1"})
        _, state0, _ = diagnostics.prepare_experiment(config)
        grid = state0.grid
        power = np.sum(np.abs(state0.band) ** 2, axis=(0, 1))
        live = power != 0.0
        with np.errstate(over="ignore"):
            weight = sp.BOX_LENGTH**2 * grid.band_parseval * sp.radial_power(grid.band_k_squared, s)
            direct = float(np.sum(weight[live] * power[live]))
        first, later = (r.y_norm for r in run_experiment(config).records)
        assert math.isfinite(first) == (s == 150.0)
        assert first == pytest.approx(direct, rel=1e-13)
        assert later == math.inf

    def test_nonnegativity_and_monotone_cum(self):
        records, _ = linear_mode_tracker(t_end=0.02, dt=1e-3)
        for r in records:
            for name in ("energy", "x_norm", "y_norm", "gamma_norm", "cum_diss"):
                assert getattr(r, name) >= 0.0
        cums = [r.cum_diss for r in records]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_cum_quadrature_consistency_between_cadences(self):
        fine, _ = linear_mode_tracker(t_end=0.1, dt=1e-3, cadence=1)
        coarse, _ = linear_mode_tracker(t_end=0.1, dt=1e-3, cadence=5)
        assert coarse[-1].cum_diss == pytest.approx(fine[-1].cum_diss, rel=1e-4)


class TestEnergyBalance:
    def test_single_decaying_mode_closed_form(self):
        records, _ = linear_mode_tracker(t_end=0.1, dt=1e-4)
        assert energy_balance_residual(records, 1.0, 0.0) <= 1e-8

    def test_short_series_rejected(self):
        records, _ = linear_mode_tracker(t_end=0.002, dt=1e-3)
        with pytest.raises(ValueError):
            energy_balance_residual(records[:2], 1.0, 0.0)

    def test_thinned_series_satisfies_identity(self):
        # the running integrals are trapezoid sums in record time, so uneven
        # spacing is allowed; the defect stays within the trapezoid error for
        # diss = 2 E0 exp(-2t): (dt^2 / 12) * t_end * max|diss''| / E0
        dt, t_end = 1e-3, 0.01
        records, _ = linear_mode_tracker(t_end=t_end, dt=dt)
        thinned = records[:3] + records[4:]
        assert energy_balance_residual(thinned, 1.0, 0.0) <= dt**2 / 12.0 * t_end * 8.0


GRONWALL_KINDS = [make_g("constant_one"), make_g("power_log"), make_g("iterated_log"), make_g("power"),
                  make_g("spiky"), make_g("spiky", period=0.3, height=2.0)]


def synthetic_records(t, x_norm):
    """Records with the given times and X, and zero for every other field."""
    zero = dict.fromkeys(RECORD_FIELDS, 0.0)
    return [DiagnosticRecord(**{**zero, "t": float(ti), "x_norm": float(xi)}) for ti, xi in zip(t, x_norm)]


class TestGronwall:
    def test_monotone_decay_gives_zero_constant(self):
        records, params = linear_mode_tracker(t_end=0.05, dt=1e-3)
        assert gronwall_bound_check(records, params.diss_u.g) == 0.0

    def test_non_theorem_regime_warns_but_computes(self):
        records, params = linear_mode_tracker(t_end=0.05, dt=1e-3)
        assert "gronwall_warning" not in evaluate_checks(records, RunConfig(), params)[0]
        report, _ = evaluate_checks(records, RunConfig(nu=0.0), make_params(nu=0.0))
        assert report["gronwall_warning"].startswith("parameters are outside the theorem regime")
        assert np.isfinite(report["gronwall_constant"])

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            gronwall_bound_check([], make_g("constant_one"))

    def test_staircase_constant_is_exact(self):
        # g = 2 between the jumps at lnln r = 1.2 and 4.8 (|k| ~ 27.7 and exp(exp(4.8))), so
        # F(e + X) - F(e + X(0)) is (lnln(e + X) - lnln(e + X(0))) / 4 in closed form
        g = make_g("spiky", period=0.3, height=2.0)
        x_norm = np.linspace(256.0, 264.0, 17)
        t = np.linspace(0.0, 1.0, 17)
        exact = (np.log(np.log(E + x_norm[1:])) - np.log(np.log(E + x_norm[0]))) / 4.0
        constant = gronwall_bound_check(synthetic_records(t, x_norm), g)
        assert constant == pytest.approx(np.max(exact / t[1:]), rel=1e-12, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(GRONWALL_KINDS),
           st.lists(st.floats(0.0, 1e12), min_size=1, max_size=30).map(lambda xs: sorted(xs, reverse=True)))
    def test_non_increasing_x_gives_zero_constant(self, g, x_norm):
        records = synthetic_records(np.arange(len(x_norm), dtype=float), np.array(x_norm))
        assert gronwall_bound_check(records, g) == 0.0

    @pytest.mark.parametrize("g", GRONWALL_KINDS, ids=lambda g: g.kind)
    def test_one_quadrature_pass_per_check(self, g, monkeypatch):
        calls = []
        original = GFunction.inverse_square_loglog
        monkeypatch.setattr(GFunction, "inverse_square_loglog",
                            lambda self, sigma: calls.append(1) or original(self, sigma))
        records = synthetic_records(np.linspace(0.0, 1.0, 20), np.linspace(1.0, 50.0, 20))
        gronwall_bound_check(records, g)
        assert len(calls) == 1

    @pytest.mark.parametrize("index, value", [(3, np.inf), (0, np.nan), (9, -np.inf)])
    def test_non_finite_x_norm_rejected(self, index, value):
        x_norm = np.linspace(1.0, 10.0, 10)
        x_norm[index] = value
        records = synthetic_records(np.linspace(0.0, 1.0, 10), x_norm)
        with pytest.raises(ValueError, match=f"x_norm is not finite at record {index} "):
            gronwall_bound_check(records, make_g("iterated_log"))


class TestGammaLogDerivative:
    def test_stationary_zero_state_gives_zero(self, grid16):
        params = make_params()
        zero = SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid16))
        weights = record_weights(grid16, params, 2.5, 5.0)
        records = []
        for i in range(60):
            r = make_record(zero, params, weights, prev=records[-1] if records else None)
            records.append(r._replace(t=0.01 * i))
        assert gamma_log_derivative_check(records) == 0.0

    def test_decaying_mode_gives_zero(self):
        records, _ = linear_mode_tracker(t_end=0.1, dt=1e-3)
        assert gamma_log_derivative_check(records) == 0.0

    def test_repeated_record_time_rejected(self):
        records, _ = linear_mode_tracker(t_end=0.1, dt=1e-3)
        records[10] = records[10]._replace(t=records[9].t)
        with pytest.raises(ValueError):
            gamma_log_derivative_check(records)

    def test_too_few_samples_rejected(self):
        records, _ = linear_mode_tracker(t_end=0.02, dt=1e-3)
        with pytest.raises(ValueError):
            gamma_log_derivative_check(records)


# The loop forms of the checks, one record at a time in Python floats, as the
# checks were written before they became array expressions on the record table.

def loop_energy_balance_residual(records, nu, eta):
    if len(records) < 3:
        raise ValueError("need at least 3 records")
    e0 = records[0].energy
    worst = 0.0
    for r in records:
        worst = max(worst, abs(r.energy - e0 + nu * r.cum_diss + eta * r.cum_diss_b))
    return worst / max(e0, 1e-300)


def loop_gronwall_bound_check(records, g1):
    if not records:
        raise ValueError("empty series")
    x_norm = np.array([r.x_norm for r in records])
    bad = np.flatnonzero(~np.isfinite(x_norm))
    if bad.size:
        raise ValueError(f"x_norm is not finite at record {bad[0]} (t={records[bad[0]].t})")
    f0, *f = partial_integral(g1, E + x_norm).tolist()
    constant = 0.0
    for r, fr in zip(records[1:], f):
        lhs = fr - f0
        rhs = (r.t - records[0].t) + r.cum_diss
        if rhs > 0.0:
            constant = max(constant, lhs / rhs)
    return constant


def loop_gamma_log_derivative_check(records):
    if len(records) < 50:
        raise ValueError("cadence too coarse: need at least 50 records")
    t = np.array([r.t for r in records])
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("record times must be strictly increasing")
    w = np.log(E + np.array([r.gamma_norm for r in records]))
    rhs = np.array([math.sqrt(r.diss_u) + math.sqrt(r.diss_grad_u) for r in records])
    dw = (w[2:] - w[:-2]) / (t[2:] - t[:-2])
    constant = 0.0
    for deriv, denom in zip(dw, rhs[1:-1]):
        if deriv <= 0.0:
            continue
        if denom <= 1e-300:
            constant = float("inf")
        else:
            constant = max(constant, deriv / denom)
    return constant


def loop_evaluate_checks(records, config, params):
    report, failures = {}, []
    bad = [(name, r.t) for r in records for name in RECORD_FIELDS if not math.isfinite(getattr(r, name))]
    if bad:
        failures.append(f"non-finite record field {bad[0][0]} at t={bad[0][1]}")
    # the checks read the records before the first one with a non-finite field
    records = list(itertools.takewhile(lambda r: all(map(math.isfinite, r)), records))
    if not records:
        return report, failures
    report["max_x_norm"] = max(r.x_norm for r in records)
    report["sup_gamma_norm"] = max(r.gamma_norm for r in records)
    report["cum_diss_grad"] = records[-1].cum_diss_grad
    if len(records) >= 3:
        residual = loop_energy_balance_residual(records, config.nu, config.eta)
        report["energy_residual"] = residual
        if config.energy_tol is not None and residual > config.energy_tol:
            failures.append(f"energy residual {residual:.3e} > {config.energy_tol:.3e}")
    gronwall = loop_gronwall_bound_check(records, config.g1)
    report["gronwall_constant"] = gronwall
    if params is not None and not params.theorem_regime():
        report["gronwall_warning"] = (
            "parameters are outside the theorem regime (need nu>0, eta=0, alpha>=1+N/2)")
    if not math.isfinite(gronwall):
        failures.append("gronwall constant is not finite")
    if len(records) >= 50:
        gamma = loop_gamma_log_derivative_check(records)
        report["gamma_log_constant"] = gamma
        if not math.isfinite(gamma):
            failures.append("gamma log-derivative constant is not finite")
    max_div = max(max(r.div_u, r.div_b) for r in records)
    report["max_div"] = max_div
    if max_div > 1e-8:
        failures.append(f"solenoidality residual {max_div:.3e} > 1e-08")
    return report, failures


def outcome(check, *args):
    """What a check returns, or the ValueError it raises, as comparable values."""
    try:
        result = check(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return result


def same_bits(a, b):
    """Equal values bit for bit, walking tuples, lists and dicts; any NaN equals any NaN."""
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and (np.float64(a).tobytes() == np.float64(b).tobytes()
                                         or (math.isnan(a) and math.isnan(b)))
    return a == b


@st.composite
def record_tables(draw):
    """(records, 16) tables of non-negative fields: uneven increasing times (or
    free times, which give the Gronwall check rows with rhs <= 0), non-monotone
    norms over several decades, rows of zero dissipation, which send the gamma
    check to its infinite branch, and NaN/inf cells at random positions."""
    # half the series are long enough for the gamma check
    n = draw(st.one_of(st.integers(1, 49), st.integers(50, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = 10.0 ** rng.uniform(-3.0, 4.0, (n, len(RECORD_FIELDS)))
    col = {name: i for i, name in enumerate(RECORD_FIELDS)}
    if draw(st.booleans()):
        table[:, col["t"]] = rng.uniform(0.0, 1.0) + np.cumsum(rng.uniform(1e-3, 1.0, n))
    else:
        # free times, some repeating the first, which give rhs = 0 in zero-dissipation rows
        table[:, col["t"]] = rng.uniform(0.0, 2.0, n)
        table[rng.random(n) < 0.2, col["t"]] = table[0, col["t"]]
    zero = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    table[np.ix_(zero, [col["diss_u"], col["diss_grad_u"], col["cum_diss"]])] = 0.0
    table[:, [col["div_u"], col["div_b"]]] *= 10.0 ** draw(st.sampled_from([-16, -8, 0]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        table[rng.integers(n), rng.integers(len(RECORD_FIELDS))] = rng.choice([np.nan, np.inf])
    return table


class TestChecksOnTables:
    @settings(max_examples=150, deadline=None)
    @given(record_tables(), st.sampled_from(GRONWALL_KINDS), st.sampled_from([0.0, 0.05, 1.0]),
           st.sampled_from([0.0, 0.5]), st.sampled_from([None, 1e-3]), st.booleans())
    def test_table_checks_equal_their_loop_forms(self, table, g, nu, eta, energy_tol, with_params):
        records = [DiagnosticRecord(*row) for row in table.tolist()]
        config = RunConfig(nu=nu, eta=eta, g1=g, energy_tol=energy_tol)
        params = config.system_params() if with_params else None
        pairs = [(energy_balance_residual, loop_energy_balance_residual, (nu, eta)),
                 (gronwall_bound_check, loop_gronwall_bound_check, (g,)),
                 (gamma_log_derivative_check, loop_gamma_log_derivative_check, ()),
                 (evaluate_checks, loop_evaluate_checks, (config, params))]
        # non-finite cells give numpy's invalid-value warnings in both forms;
        # finite tables must give none, and warnings fail the test
        with np.errstate(all=None if np.all(np.isfinite(table)) else "ignore"):
            for check, loop, args in pairs:
                expected = outcome(loop, records, *args)
                for form in (records, table):
                    assert same_bits(outcome(check, form, *args), expected), check.__name__

    def test_zero_dissipation_where_the_log_rises_gives_inf(self):
        t = np.linspace(0.0, 1.0, 60)
        records = [DiagnosticRecord(*[0.0] * len(RECORD_FIELDS))._replace(t=ti, gamma_norm=ti) for ti in t]
        assert gamma_log_derivative_check(records) == math.inf

    def test_nan_derivative_where_the_bound_vanishes_gives_inf(self):
        # a NaN derivative is not a falling one, so in the loop form it meets
        # the zero bound of these records as a rising one does
        records = synthetic_records(np.linspace(0.0, 1.0, 60), np.ones(60))
        records[5] = records[5]._replace(gamma_norm=math.nan)
        assert gamma_log_derivative_check(records) == math.inf
        assert loop_gamma_log_derivative_check(records) == math.inf

    @pytest.mark.parametrize("n", [1, 3, 49, 50])
    def test_negative_field_rejected_at_any_length(self, n):
        for field in RECORD_FIELDS:
            records = synthetic_records(np.linspace(0.0, 1.0, n), np.ones(n))
            records[-1] = records[-1]._replace(**{field: -1.0})
            with pytest.raises(ValueError, match=f"negative record field {field} at t="):
                evaluate_checks(records, RunConfig(), None)

    def test_negative_dissipation_rejected_by_the_gamma_check(self):
        records = synthetic_records(np.linspace(0.0, 1.0, 60), np.ones(60))
        records[7] = records[7]._replace(diss_grad_u=-1e-12)
        with pytest.raises(ValueError, match="negative record field diss_grad_u at t="):
            gamma_log_derivative_check(records)


# every named initial condition, in 2D and, where it allows, in 3D: (name, ic.* parameters, dim, points)
NAMED_STATES = [("orszag_tang_2d", {}, 2, 32), ("taylor_green_2d", {}, 2, 32),
                ("single_mode", {"k": (2, 1), "amplitude": 1.5}, 2, 32),
                ("single_mode", {"k": (1, 2, 1)}, 3, 16),
                ("random_band", {"seed": 3, "band": 5.0, "amplitude": 1.5}, 2, 32),
                ("random_band", {"seed": 7, "band": 3.0}, 3, 16)]


def full_spectrum_initial_data(name, params, samples, grid):
    """The full-spectrum pipeline that once built every initial state, kept as an
    oracle: a full transform of the samples, the 2/3 mask, the mean zeroed and a
    full Leray projection; random_band then cuts at |k| <= ic.band and
    normalises with the full-spectrum Parseval sum."""
    coeffs = sp.to_spectral_array(np.array(samples, dtype=np.float64), grid)
    coeffs *= grid.dealias_mask
    coeffs[(...,) + (0,) * grid.dim] = 0.0
    data = sp.leray_array(coeffs, grid.kmesh)
    if name == "random_band":
        data = data * (grid.kmag <= params["band"])
        norm = math.sqrt(sum(float(np.sum(sp.mode_power(c))) for c in data))
        data = data * (params.get("amplitude", 1.0) / max(norm, 1e-300))
    return data


class TestBandBornStates:
    @pytest.mark.parametrize("name, params, dim, points", NAMED_STATES)
    def test_built_on_the_band_with_the_full_spectrum_values(self, name, params, dim, points,
                                                            monkeypatch):
        grid = sp.make_grid(dim, points)
        samples = []
        build = diagnostics._state_from_samples

        def recording(u, b, grid):
            samples.append((u, b))
            return build(u, b, grid)

        def full_transform(*args):
            raise AssertionError("an initial state made a full-spectrum transform")

        monkeypatch.setattr(diagnostics, "_state_from_samples", recording)
        monkeypatch.setattr(sp, "to_spectral_array", full_transform)
        pair = initial_condition(name, params, grid)
        monkeypatch.undo()
        # a pair that holds its band hands out that array, not a new gather each time
        assert pair.band is pair.band
        assert pair.band.shape == (2, dim) + grid.band_shape
        oracle = full_spectrum_initial_data(name, params, samples[0], grid)
        if name == "random_band":
            # the band's Parseval sum may round the norm apart from the full-spectrum one
            assert np.array_equal(pair.data == 0, oracle == 0)
            assert np.all(np.abs(pair.data - oracle) <= 4 * np.finfo(float).eps * np.abs(oracle))
        else:
            assert np.array_equal(pair.data, oracle)

    @pytest.mark.parametrize("name, params, dim, points", NAMED_STATES)
    def test_band_pair_runs_like_its_full_spectrum_copy(self, name, params, dim, points):
        grid = sp.make_grid(dim, points)
        system = SystemParams(DissipationSpec(0.1, 2.0, make_g("constant_one")),
                              DissipationSpec(0.0, 1.0, make_g("constant_one")), dim)
        stepper = StepperConfig(t_end=0.004, dt=1e-3)
        state = initial_condition(name, params, grid)
        runs = []
        # the band pair runs first: building the copy reads state.data, which expands it
        for start in (lambda: state, lambda: SolutionPair(state.u, state.b, 0.0)):
            tracker = DiagnosticTracker(system, 2.5 if dim == 2 else 3.0, 5.0)
            final = run(start(), system, stepper, observer=tracker)
            runs.append((np.array(tracker.records).tobytes(), final.data.tobytes()))
        assert runs[0] == runs[1]


class TestInitialConditions:
    def test_orszag_tang_solenoidal_and_zero_mean(self):
        grid = sp.make_grid(2, 64)
        state = initial_condition("orszag_tang_2d", {}, grid)
        assert sp.solenoidal_residual(state.u) <= 1e-12
        assert sp.solenoidal_residual(state.b) <= 1e-12
        for field in (state.u, state.b):
            for c in field.components:
                assert abs(c.coeffs[0, 0]) == 0.0
        # closed-form energy of the documented profile
        energy = 0.5 * (sp.vector_l2_norm(state.u) ** 2 + sp.vector_l2_norm(state.b) ** 2)
        assert energy == pytest.approx(0.5 * (16.0 + 4.0) * np.pi**2, rel=1e-12)

    def test_taylor_green_velocity_only(self):
        grid = sp.make_grid(2, 32)
        state = initial_condition("taylor_green_2d", {}, grid)
        assert sp.vector_l2_norm(state.b) == 0.0
        assert sp.solenoidal_residual(state.u) <= 1e-12

    def test_single_mode_energy_closed_form(self):
        grid = sp.make_grid(2, 32)
        state = initial_condition("single_mode", {"k": (1, 0), "amplitude": 2.0}, grid)
        assert sp.vector_l2_norm(state.u) ** 2 == pytest.approx(8.0 * np.pi**2, rel=1e-12)

    def test_random_band_reproducible(self):
        grid = sp.make_grid(2, 32)
        a = initial_condition("random_band", {"seed": 42, "band": 5, "amplitude": 1.5}, grid)
        b = initial_condition("random_band", {"seed": 42, "band": 5, "amplitude": 1.5}, grid)
        for x, y in zip(a.u.components, b.u.components):
            assert np.array_equal(x.coeffs, y.coeffs)
        norm = np.sqrt(sp.vector_l2_norm(a.u) ** 2 + sp.vector_l2_norm(a.b) ** 2)
        assert norm == pytest.approx(1.5, rel=1e-12)
        assert sp.solenoidal_residual(a.u) <= 1e-12

    @pytest.mark.parametrize("band", ["11", "20"])
    def test_random_band_stays_inside_two_thirds_band(self, band):
        # both bands reach past points/3 = 10.7; a mode kept there breaks the
        # energy identity (band 11) or solenoidality (band 20) of an inviscid run
        config = config_from_mapping({"grid.points": "32", "params.nu": "0", "ic.name": "random_band",
                                      "ic.band": band, "stepper.dt": "0.001", "stepper.t_end": "0.05",
                                      "diag.cadence": "5"})
        grid = sp.make_grid(2, 32)
        state0 = initial_condition(config.ic_name, config.ic_params, grid)
        assert not np.any(state0.data[..., ~grid.dealias_mask])
        result = run_experiment(config)
        assert result.exit_code == 0
        assert result.summary["energy_residual"] <= 1e-12
        assert result.summary["max_div"] <= 1e-12

    def test_unknown_name_rejected(self):
        grid = sp.make_grid(2, 16)
        with pytest.raises(ConfigError):
            initial_condition("mystery_vortex", {}, grid)

    def test_orszag_tang_requires_2d(self):
        grid = sp.make_grid(3, 8)
        with pytest.raises(ConfigError):
            initial_condition("orszag_tang_2d", {}, grid)

    def test_single_mode_3d_solenoidal(self):
        grid = sp.make_grid(3, 8)
        state = initial_condition("single_mode", {"k": (1, 1, 0), "amplitude": 1.0}, grid)
        assert sp.solenoidal_residual(state.u) <= 1e-12
        assert sp.vector_l2_norm(state.u) > 0.0

    def test_single_mode_3d_along_an_axis_takes_the_fallback_perpendicular(self):
        # k = (1, 0, 0) is parallel to the first trial vector, so u = (0, 0, cos x) and
        # E = (1/2) (2 pi)^3 / 2
        config = RunConfig(dim=3, points=16)
        state = initial_condition("single_mode", {"k": (1, 0, 0)}, sp.make_grid(3, 16))
        params = config.system_params()
        record = make_record(state, params, record_weights(state.grid, params, config.gamma,
                                                                 config.s_order))
        assert record.energy == (2.0 * np.pi) ** 3 / 4.0 == 62.01255336059963
        assert record.div_u == 0.0
        assert not np.any(state.u.coeffs[:2])

    def test_3d_run_end_to_end(self):
        cfg = config_from_mapping({
            "grid.n": "3",
            "grid.points": "8",
            "params.nu": "0.5",
            "params.alpha": "2.5",   # 1 + N/2
            "diag.gamma": "3.0",
            "ic.name": "random_band",
            "ic.seed": "5",
            "ic.band": "2",
            "stepper.dt": "0.001",
            "stepper.t_end": "0.05",
        })
        result = run_experiment(cfg)
        assert result.status == STATUS_OK
        assert result.summary["max_div"] <= 1e-12
        assert result.summary["energy_residual"] <= 1e-5


class TestConfig:
    def test_parse_round_trip(self, tmp_path):
        text = """
# comment line
grid.n = 2
grid.points = 16
params.nu = 0.5
params.eta = 0.0
params.alpha = 2.0
params.g1.kind = iterated_log
ic.name = random_band
ic.seed = 7
ic.band = 3
stepper.dt = 0.001
stepper.t_end = 0.01
diag.cadence = 2
diag.gamma = 2.5
diag.s = 5.0
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = parse_config(str(path))
        assert cfg.points == 16 and cfg.nu == 0.5
        assert cfg.g1.kind == "iterated_log"
        assert cfg.ic_params == {"seed": 7, "band": 3}
        assert cfg.cadence == 2

    def test_adaptive_dt(self):
        cfg = config_from_mapping({"stepper.dt": "adaptive"})
        assert cfg.dt is None

    def test_unknown_key_rejected(self):
        for key in ("grid.bogus", "ic.sed"):
            with pytest.raises(ConfigError):
                config_from_mapping({key: "1"})

    def test_gamma_outside_interval_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"diag.gamma": "3.5"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"grid.points": "many"})

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("grid.points 16\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_default_gamma_is_interval_midpoint(self):
        cfg = config_from_mapping({})
        assert cfg.gamma == pytest.approx(2.5)
        assert cfg.s_order == pytest.approx(5.0)


class TestSeriesIO:
    def test_round_trip(self, tmp_path):
        records, _ = linear_mode_tracker(t_end=0.01, dt=1e-3)
        path = str(tmp_path / "series.csv")
        write_series(path, records)
        back = read_series(path)
        assert back.dtype == np.float64 and back.shape == (len(records), len(RECORD_FIELDS))
        assert len(back) == len(records)
        for a, b in zip(records, back.tolist()):
            assert a == DiagnosticRecord._make(b)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(RECORD_FIELDS) + "\n"
        for text in ("a,b,c\n1,2,3\n", "", header, header + "1,2,3\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                read_series(str(path))

    @staticmethod
    def written_rows(tmp_path):
        records, _ = linear_mode_tracker(t_end=0.005, dt=1e-3)
        path = tmp_path / "series.csv"
        write_series(str(path), records)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:3] + [rows[3].replace(rows[3].split(",")[1], "abc")] + rows[4:],
         "could not convert string to float: 'abc'"),
        (lambda rows: rows[:3] + [""] + rows[3:], "has 1 fields"),
        (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:], "has 15 fields"),
        (lambda rows: rows[:3] + [rows[3] + ",0.0"] + rows[4:], "has 17 fields"),
    ], ids=["unparsable_cell", "interior_blank_line", "15_fields", "17_fields"])
    def test_malformed_body_rejected(self, tmp_path, edit, message):
        path, rows = self.written_rows(tmp_path)
        path.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(ValueError, match=message):
            read_series(str(path))

    def test_non_finite_cells_parse(self, tmp_path):
        path, rows = self.written_rows(tmp_path)
        cells = rows[2].split(",")
        cells[1:4] = ["nan", "inf", "-inf"]
        path.write_text("\n".join(rows[:2] + [",".join(cells)] + rows[3:]) + "\n")
        record = DiagnosticRecord._make(read_series(str(path))[1])
        assert np.isnan(record.energy) and record.diss_u == np.inf and record.diss_b == -np.inf

    def test_record_is_a_row_of_its_table(self, tmp_path):
        path, _ = self.written_rows(tmp_path)
        table = read_series(str(path))
        records = list(map(DiagnosticRecord._make, table.tolist()))
        assert np.array_equal(np.asarray(records, dtype=np.float64), table)
        assert table.shape == (len(records), len(RECORD_FIELDS))
        columns = DiagnosticRecord._make(table.T)
        for name in RECORD_FIELDS:
            assert getattr(columns, name).tolist() == [getattr(r, name) for r in records]


class TestRunExperiment:
    def test_t_end_zero_gives_one_record(self):
        cfg = config_from_mapping({
            "grid.points": "16", "stepper.t_end": "0.0", "ic.name": "taylor_green_2d",
        })
        result = run_experiment(cfg)
        assert result.status == STATUS_OK and result.exit_code == 0
        assert len(result.records) == 1

    def test_writes_series_summary_and_snapshots(self, tmp_path):
        series = tmp_path / "out.csv"
        cfg = config_from_mapping({
            "grid.points": "16",
            "stepper.t_end": "0.01",
            "stepper.dt": "0.001",
            "ic.name": "random_band",
            "ic.seed": "1",
            "out.series": str(series),
            "out.snapshots": str(tmp_path / "snap"),
            "out.snapshot_times": "0.0,0.005",
        })
        result = run_experiment(cfg)
        assert result.status == STATUS_OK
        assert series.exists()
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text())
        assert "energy_residual" in summary
        snaps = sorted(tmp_path.glob("snap_t*.lmhd"))
        assert len(snaps) == 2
        fields = sp.read_snapshot(str(snaps[0]))
        assert len(fields) == 4  # u and b components

    def test_a_rerun_rewrites_longer_outputs_to_the_bytes_of_a_fresh_run(self, tmp_path):
        # series, summary and snapshot go over longer files of the same names: no old tail
        # is left, and each file keeps its inode
        outputs = {}
        for name in ("fresh", "rerun"):
            directory = tmp_path / name
            directory.mkdir()
            files = [directory / "out.csv", directory / "out.csv.summary.json",
                     directory / "snap_t0.002000.lmhd"]
            if name == "rerun":
                for path in files:
                    path.write_bytes(b"x" * 100_000)
            inodes = [path.stat().st_ino for path in files if path.exists()]
            result = run_experiment(config_from_mapping({
                "grid.points": "16", "stepper.t_end": "0.004", "stepper.dt": "0.001",
                "out.series": str(files[0]), "out.snapshots": str(directory / "snap"),
                "out.snapshot_times": "0.002"}))
            assert result.status == STATUS_OK
            assert inodes in ([], [path.stat().st_ino for path in files])
            summary = json.loads(files[1].read_text())
            assert summary.pop("snapshots") == [str(files[2])]
            del summary["wall_time_s"]
            outputs[name] = (files[0].read_bytes(), summary, files[2].read_bytes())
        assert outputs["rerun"] == outputs["fresh"]

    def test_adaptive_snapshots_are_named_by_the_time_of_the_state_they_hold(self, tmp_path):
        # adaptive steps do not fall on the requested times: each file holds the
        # first state at or after its time, and its name says which
        cfg = config_from_mapping({
            "grid.points": "16",
            "stepper.t_end": "0.2",
            "stepper.dt": "adaptive",
            "out.snapshots": str(tmp_path / "snap"),
            "out.snapshot_times": "0.05,0.1",
        })
        result = run_experiment(cfg)
        assert result.status == STATUS_OK
        paths = result.summary["snapshots"]
        assert len(paths) == 2
        for path, requested in zip(paths, (0.05, 0.1)):
            t = min(r.t for r in result.records if r.t >= requested - 1e-12)
            assert t > requested and path == f"{tmp_path / 'snap'}_t{t:.6f}.lmhd"

    @pytest.mark.parametrize("dim, points", [(2, 64), (3, 16)])
    def test_snapshot_expands_one_field_at_a_time(self, tmp_path, dim, points):
        """A run's snapshot of a band pair peaks below the pair's full spectrum: expanding
        the whole pair first, and the file's bytes from it, fails here."""
        grid = sp.make_grid(dim, points)
        band = sp.to_band(np.ones((2, dim) + grid.shape, dtype=np.complex128), grid)
        observer = diagnostics._SnapshotObserver(str(tmp_path / "snap"), (0.0,))
        tracemalloc.start()
        try:
            observer(0, SolutionPair.from_band(grid, band, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(observer.written) == 1
        assert peak < 2 * dim * grid.total_points * 16

    def test_a_set_up_runs_twice_alike(self):
        """A set-up is data: each run of it builds its own tracker, so two runs of one
        set-up give equal records and summaries."""
        config = config_from_mapping({"grid.points": "16", "stepper.dt": "0.001",
                                      "stepper.t_end": "0.005"})
        prepared = diagnostics.prepare_experiment(config)
        first, second = (run_experiment(config, prepared) for _ in range(2))
        assert first.status == second.status == "ok"
        assert first.records == second.records and len(first.records) == 6
        for result in (first, second):
            del result.summary["wall_time_s"]
        assert first.summary == second.summary

    def test_config_error_raises(self):
        for key, value in (("ic.name", "nope"), ("diag.cadence", "0")):
            with pytest.raises(ConfigError):
                run_experiment(config_from_mapping({"grid.points": "16", key: value}))

    def test_blowup_status(self, tmp_path):
        # the summary file says why the run stopped; cadence 1 records the
        # overflowing state before the blow-up step, cadence 3 only the first
        for cadence, records in ((1, 3), (3, 1)):
            series = tmp_path / f"cadence{cadence}.csv"
            cfg = config_from_mapping({
                "grid.points": "16",
                "params.nu": "0.0",
                "stepper.dt": "5.0",
                "stepper.t_end": "1000.0",
                "ic.name": "orszag_tang_2d",
                "diag.cadence": str(cadence),
                "out.series": str(series),
            })
            result = run_experiment(cfg)
            assert result.status == STATUS_BLOWUP and result.exit_code == 3
            summary = json.loads(Path(f"{series}.summary.json").read_text())
            assert summary == result.summary
            assert summary["blowup_time"] == 15.0 and summary["blowup_step"] == 3
            assert summary["steps"] == 2 and summary["wall_time_s"] > 0.0
            assert summary["records"] == len(read_series(str(series))) == records
            # the checks see the records before the first non-finite one: at cadence 1
            # the record at t = 10 holds an overflowed y_norm, and 2 records are checked
            finite = [r for r in result.records if np.all(np.isfinite(r))]
            assert len(finite) == (2 if records == 3 else 1)
            report, failures = evaluate_checks(finite, cfg, cfg.system_params())
            assert {key: summary[key] for key in report} == report
            assert math.isfinite(summary["gronwall_constant"]) and summary["max_div"] <= 1e-12
            assert "energy_residual" not in summary  # 3 records needed
            nonfinite = ["non-finite record field y_norm at t=10.0"] if records == 3 else []
            assert result.message == "; ".join(["non-finite coefficients at t=15.0 (step 3)",
                                                *nonfinite, *failures])

    def test_a_finished_run_checks_its_finite_records_as_a_blowup_does(self):
        # 16^2 Orszag-Tang at nu = 0 and dt = 5 overflows y_norm at t = 10: run to t = 10
        # it finishes, run to t = 20 it blows up at t = 15, and both endings report the
        # checks of the two records before t = 10 and name the overflow first
        finished, blowup = (
            run_experiment(config_from_mapping({"grid.points": "16", "params.nu": "0.0",
                                                "stepper.dt": "5.0", "stepper.t_end": t_end}))
            for t_end in ("10.0", "20.0"))
        assert finished.status == STATUS_CHECK_FAILED and finished.exit_code == 4
        assert blowup.status == STATUS_BLOWUP
        assert finished.records == blowup.records
        for key in ("gronwall_constant", "max_div"):
            assert finished.summary[key] == blowup.summary[key]
        assert finished.message == "non-finite record field y_norm at t=10.0"
        assert blowup.message == "non-finite coefficients at t=15.0 (step 3); " + finished.message

    @pytest.mark.parametrize("t_end", [0.009, 0.019])
    def test_weights_are_built_once_per_run(self, monkeypatch, t_end):
        # 10 or 20 records: the symbols and Sobolev weights are built the same
        # number of times, the decay rate's symbol of u (eta = 0, so b's rate is
        # zeros and needs none) and the tracker's table
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module in (diagnostics, integrator):
            counted(module, "symbol")
        for module in (sp, multiplier):
            counted(module, "radial_power")
        result = run_experiment(config_from_mapping({"grid.points": "16", "stepper.dt": "0.001",
                                                     "stepper.t_end": str(t_end)}))
        assert result.status == STATUS_OK and len(result.records) == round(t_end * 1000) + 1
        # radial_power: the Sobolev weights of orders s and gamma (order 1 is |k|^2
        # itself) and 1 per symbol
        assert sorted(calls) == ["radial_power"] * 5 + ["symbol"] * 3

    def test_a_record_makes_one_inverse_and_no_forward_transform(self, monkeypatch):
        # only grad_u_inf needs a transform: one band_to_physical per record, none to the spectrum
        grid, params = sp.make_grid(2, 16), make_params(g1="iterated_log")
        states = [SolutionPair.from_band(grid, initial_condition(
            "random_band", {"seed": n}, grid).band, 0.1 * n) for n in range(4)]
        calls = []
        for name in ("band_to_physical", "to_physical_array", "physical_to_band", "to_spectral_array"):
            original = getattr(sp, name)
            monkeypatch.setattr(sp, name, lambda *args, _name=name, _original=original, **kwargs:
                                calls.append(_name) or _original(*args, **kwargs))
        tracker = DiagnosticTracker(params, 2.5, 5.0)
        for n, state in enumerate(states):
            tracker(n, state)
        assert calls == ["band_to_physical"] * 4
        make_record(states[0], params, record_weights(grid, params, 2.5, 5.0))
        assert calls == ["band_to_physical"] * 5

    def test_identical_adaptive_runs_write_identical_series(self, tmp_path):
        written = []
        for n in range(2):
            series = tmp_path / f"series{n}.csv"
            result = run_experiment(config_from_mapping({
                "grid.points": "32", "params.nu": "0.05", "stepper.dt": "adaptive",
                "stepper.t_end": "0.1", "out.series": str(series)}))
            assert result.status == STATUS_OK and len(result.records) > 5
            written.append(series.read_bytes())
        assert written[0] == written[1]

    def test_records_do_not_depend_on_the_blas_thread_count(self):
        # at 64^2 the record's (8, 1892) weight product is large enough for OpenBLAS to split
        # it over threads; a fresh interpreter per thread count, as the count is read at import
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(diagnostics.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_RECORDS], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] and len(outputs[0]) > 1000

    def test_energy_tolerance_failure(self):
        cfg = config_from_mapping({
            "grid.points": "16",
            "stepper.t_end": "0.02",
            "stepper.dt": "0.001",
            "ic.name": "orszag_tang_2d",
            "check.energy_tol": "1e-30",
        })
        result = run_experiment(cfg)
        assert result.status == STATUS_CHECK_FAILED and result.exit_code == 4

    def test_overflowing_record_fails_check(self):
        # |k|^(2s) overflows for s = 200 on a 16^2 grid at modes where the initial state has
        # no power, so y_norm is finite at t = 0, and inf once the state has power there
        cfg = config_from_mapping({"grid.points": "16", "stepper.t_end": "0.002",
                                   "stepper.dt": "0.001", "diag.s": "200"})
        result = run_experiment(cfg)
        assert result.status == STATUS_CHECK_FAILED and result.exit_code == 4
        assert result.message == "non-finite record field y_norm at t=0.001"

    def test_observer_does_not_change_dynamics(self):
        mapping = {
            "grid.points": "16",
            "stepper.t_end": "0.02",
            "stepper.dt": "0.001",
            "ic.name": "orszag_tang_2d",
        }
        with_diag = run_experiment(config_from_mapping({**mapping, "diag.cadence": "1"}))
        coarse = run_experiment(config_from_mapping({**mapping, "diag.cadence": "7"}))
        for a, b in zip(with_diag.final_state.u.components, coarse.final_state.u.components):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_eta_zero_magnetic_energy_moves_only_through_exchange(self):
        # with eta = 0 the b-field sees no dissipation: total energy drop
        # must equal nu * cumulative velocity dissipation alone
        cfg = config_from_mapping({
            "grid.points": "32",
            "params.nu": "0.3",
            "stepper.t_end": "0.05",
            "stepper.dt": "0.001",
            "ic.name": "orszag_tang_2d",
        })
        result = run_experiment(cfg)
        records = result.records
        drop = records[0].energy - records[-1].energy
        assert drop == pytest.approx(0.3 * records[-1].cum_diss, rel=1e-4)

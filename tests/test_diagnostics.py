"""Records, estimate checks, initial conditions, config parsing, runner."""

import dataclasses
import json

import numpy as np
import pytest

from lmhd import spectral as sp
from lmhd.diagnostics import (
    ConfigError,
    DiagnosticTracker,
    RECORD_FIELDS,
    RunConfig,
    STATUS_BLOWUP,
    STATUS_CHECK_FAILED,
    STATUS_CONFIG_ERROR,
    STATUS_OK,
    config_from_mapping,
    energy_balance_residual,
    gamma_log_derivative_check,
    gronwall_bound_check,
    initial_condition,
    make_record,
    parse_config,
    read_series,
    run_experiment,
    write_series,
)
from lmhd.dynamics import SolutionPair, SystemParams
from lmhd.integrator import StepperConfig, run
from lmhd.multiplier import DissipationSpec, make_g

E = float(np.e)


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
        r = make_record(state, params, gamma=2.5, s=5.0)
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
        r = make_record(state, make_params(), gamma=2.5, s=5.0)
        assert r.energy == pytest.approx(np.pi**2, rel=1e-10)
        assert r.x_norm == pytest.approx(2.0 * np.pi**2, rel=1e-10)
        assert r.grad_u_inf == pytest.approx(1.0, abs=1e-10)
        assert r.y_norm == pytest.approx(2.0 * np.pi**2, rel=1e-10)  # |k| = 1
        assert r.gamma_norm == pytest.approx(2.0 * np.pi**2, rel=1e-10)

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


class TestGronwall:
    def test_monotone_decay_gives_zero_constant(self):
        records, params = linear_mode_tracker(t_end=0.05, dt=1e-3)
        report = gronwall_bound_check(records, params.diss_u.g, params)
        assert report.constant == 0.0
        assert report.warning is None

    def test_non_theorem_regime_warns_but_computes(self):
        records, _ = linear_mode_tracker(t_end=0.05, dt=1e-3)
        inviscid = make_params(nu=0.0)
        report = gronwall_bound_check(records, inviscid.diss_u.g, inviscid)
        assert report.warning is not None
        assert np.isfinite(report.constant)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            gronwall_bound_check([], make_g("constant_one"))


class TestGammaLogDerivative:
    def test_stationary_zero_state_gives_zero(self, grid16):
        params = make_params()
        zero = SolutionPair(sp.zero_vector(grid16), sp.zero_vector(grid16))
        records = []
        for i in range(60):
            r = make_record(zero, params, gamma=2.5, s=5.0,
                            prev=records[-1] if records else None)
            records.append(dataclasses.replace(r, t=0.01 * i))
        report = gamma_log_derivative_check(records)
        assert report.constant == 0.0
        assert report.max_derivative == 0.0

    def test_decaying_mode_gives_zero(self):
        records, _ = linear_mode_tracker(t_end=0.1, dt=1e-3)
        report = gamma_log_derivative_check(records)
        assert report.constant == 0.0
        assert report.max_derivative <= 0.0

    def test_repeated_record_time_rejected(self):
        records, _ = linear_mode_tracker(t_end=0.1, dt=1e-3)
        records[10] = dataclasses.replace(records[10], t=records[9].t)
        with pytest.raises(ValueError):
            gamma_log_derivative_check(records)

    def test_too_few_samples_rejected(self):
        records, _ = linear_mode_tracker(t_end=0.02, dt=1e-3)
        with pytest.raises(ValueError):
            gamma_log_derivative_check(records)


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
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a == b

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(RECORD_FIELDS) + "\n"
        for text in ("a,b,c\n1,2,3\n", "", header, header + "1,2,3\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                read_series(str(path))


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

    def test_config_error_status(self):
        for key, value in (("ic.name", "nope"), ("diag.cadence", "0")):
            result = run_experiment(config_from_mapping({"grid.points": "16", key: value}))
            assert result.status == STATUS_CONFIG_ERROR and result.exit_code == 2

    def test_blowup_status(self):
        cfg = config_from_mapping({
            "grid.points": "16",
            "params.nu": "0.0",
            "stepper.dt": "5.0",
            "stepper.t_end": "1000.0",
            "ic.name": "orszag_tang_2d",
        })
        result = run_experiment(cfg)
        assert result.status == STATUS_BLOWUP and result.exit_code == 3
        assert "blowup_time" in result.summary

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
        # |k|^(2s) overflows for s = 200 on a 16^2 grid, so y_norm is not finite
        cfg = config_from_mapping({"grid.points": "16", "stepper.t_end": "0.002",
                                   "stepper.dt": "0.001", "diag.s": "200"})
        result = run_experiment(cfg)
        assert result.status == STATUS_CHECK_FAILED and result.exit_code == 4
        assert result.message == "non-finite record field y_norm at t=0.0"

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

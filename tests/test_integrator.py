"""Integrating-factor RK4: exact linear decay, determinism, CFL, blow-up,
and the pruned transforms and cached band operator of the band hot path."""

import math

import numpy as np
import pytest

from lmhd import dynamics, integrator, spectral as sp
from lmhd.diagnostics import config_from_mapping, make_record, record_weights, run_experiment
from lmhd.dynamics import SolutionPair, SystemParams, tendency
from lmhd.integrator import BlowupError, StepperConfig, run
from lmhd.multiplier import DissipationSpec, make_g
from lmhd.spectral import SpectralField, VectorField

from conftest import random_solenoidal


def single_mode_state(grid, k=(1, 0), amplitude=1.0):
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[k] = amplitude / 2.0
    coeffs[tuple(-np.array(k) % grid.points)] = amplitude / 2.0
    # polarization along the second axis keeps the mode solenoidal for k=(k1,0)
    u = VectorField((sp.zero_field(grid), SpectralField(grid, coeffs)))
    return SolutionPair(u, sp.zero_vector(grid))


def make_params(nu=1.0, alpha=2.0, g="constant_one", eta=0.0):
    return SystemParams(
        diss_u=DissipationSpec(nu, alpha, make_g(g)),
        diss_b=DissipationSpec(eta, 1.0, make_g("constant_one")),
        dim=2,
    )


class TestLinearDecay:
    @pytest.mark.parametrize("dt", [0.5, 0.05, 0.001])
    def test_exact_for_any_dt(self, grid32, dt):
        params = make_params(nu=1.0, alpha=2.0)
        state0 = single_mode_state(grid32)
        final = run(state0, params, StepperConfig(t_end=1.0, dt=dt), nonlinear=None)
        got = final.u.components[1].coeffs[1, 0]
        assert abs(got - 0.5 * np.exp(-1.0)) < 1e-13

    @pytest.mark.parametrize("seed", range(20))
    def test_random_mode_alpha_g_combinations(self, seed):
        rng = np.random.default_rng(900 + seed)
        grid = sp.make_grid(2, 16)
        k = (int(rng.integers(1, 6)), 0)
        alpha = float(rng.uniform(0.5, 2.5))
        gname = ["constant_one", "power_log", "iterated_log", "power", "spiky"][seed % 5]
        nu = float(rng.uniform(0.05, 1.5))
        params = make_params(nu=nu, alpha=alpha, g=gname)
        state0 = single_mode_state(grid, k=k)
        t_end = 0.5
        final = run(state0, params, StepperConfig(t_end=t_end, dt=0.01), nonlinear=None)
        m = k[0] ** alpha / float(make_g(gname)(float(k[0])))
        expected = 0.5 * np.exp(-nu * m**2 * t_end)
        assert abs(final.u.components[1].coeffs[k] - expected) < 1e-12

    def test_nothing_happens_without_forcing_terms(self, grid16):
        params = make_params(nu=0.0)
        state0 = single_mode_state(grid16)
        final = run(state0, params, StepperConfig(t_end=1.0, dt=0.1), nonlinear=None)
        assert np.array_equal(final.u.components[1].coeffs, state0.u.components[1].coeffs)


class TestRun:
    def test_t_end_zero_returns_initial_state(self, grid16):
        params = make_params()
        state0 = single_mode_state(grid16)
        final = run(state0, params, StepperConfig(t_end=0.0, dt=0.1))
        assert final.time == 0.0
        assert np.array_equal(final.u.components[1].coeffs, state0.u.components[1].coeffs)

    def test_deterministic(self, grid16):
        params = make_params(nu=0.1)
        state0 = SolutionPair(
            random_solenoidal(grid16, seed=1),
            random_solenoidal(grid16, seed=2),
        )
        times = []

        def observer(i, s):
            times.append((i, s.time, s.u.components[0].coeffs.copy()))

        finals = []
        for _ in range(2):
            times.clear()
            finals.append((run(state0, params, StepperConfig(t_end=0.05, dt=1e-3), observer=observer),
                           [t[2] for t in times]))
        (f1, series1), (f2, series2) = finals
        assert np.array_equal(f1.u.components[0].coeffs, f2.u.components[0].coeffs)
        for a, b in zip(series1, series2):
            assert np.array_equal(a, b)

    def test_observer_purity(self, grid16):
        params = make_params(nu=0.1)
        state0 = SolutionPair(
            random_solenoidal(grid16, seed=3),
            random_solenoidal(grid16, seed=4),
        )
        with_obs = run(state0, params, StepperConfig(t_end=0.05, dt=1e-3),
                       observer=lambda i, s: sp.vector_l2_norm(s.u))
        without = run(state0, params, StepperConfig(t_end=0.05, dt=1e-3))
        for a, b in zip(with_obs.u.components, without.u.components):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_adaptive_dt_respects_cfl(self, grid16):
        params = make_params(nu=0.05)
        state0 = SolutionPair(
            random_solenoidal(grid16, seed=5),
            random_solenoidal(grid16, seed=6),
        )
        seen = []
        # the first CFL step is about 0.037, so t_end = 0.2 takes several of them
        final = run(state0, params, StepperConfig(t_end=0.2, dt=None, cfl_number=0.4),
                    observer=lambda i, s: seen.append(s))
        assert len(seen) > 4
        kmax = grid16.points / 2.0
        # every step, recomputed from the observed state it starts from
        for before, after in zip(seen, seen[1:]):
            vmax = np.max(np.abs(sp.to_physical_array(before.data, grid16)))
            dt = min(0.4 / (vmax * kmax), 0.2 - before.time)
            assert after.time == before.time + dt
        assert abs(final.time - 0.2) < 1e-12

    def test_blowup_signal(self, grid16):
        params = make_params(nu=0.0)
        state0 = single_mode_state(grid16)

        def exploding(y, grid):
            out = np.zeros_like(y)
            out[0, 0] = np.nan
            return out

        with pytest.raises(BlowupError) as info:
            run(state0, params, StepperConfig(t_end=1.0, dt=0.1), nonlinear=exploding)
        assert info.value.step == 1
        assert info.value.time == pytest.approx(0.1)

    def test_max_steps_cap(self, grid16):
        params = make_params()
        state0 = single_mode_state(grid16)
        final = run(state0, params, StepperConfig(t_end=1.0, dt=1e-3, max_steps=5))
        assert final.time == pytest.approx(5e-3)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, cfl_number=0.0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)

    def test_step_requires_positive_dt(self, grid16):
        params = make_params()
        with pytest.raises(ValueError):
            run(single_mode_state(grid16), params, StepperConfig(t_end=math.inf, dt=0.0, max_steps=1))


class TestConservation:
    def test_inviscid_energy_conserved_short(self, grid32):
        params = make_params(nu=0.0)
        state0 = SolutionPair(
            random_solenoidal(grid32, seed=7),
            random_solenoidal(grid32, seed=8),
        )
        e0 = 0.5 * (sp.vector_l2_norm(state0.u) ** 2 + sp.vector_l2_norm(state0.b) ** 2)
        final = run(state0, params, StepperConfig(t_end=0.1, dt=1e-3))
        e1 = 0.5 * (sp.vector_l2_norm(final.u) ** 2 + sp.vector_l2_norm(final.b) ** 2)
        assert abs(e1 - e0) <= 1e-9 * e0

    def test_solenoidality_preserved(self, grid32):
        params = make_params(nu=0.2)
        state0 = SolutionPair(
            random_solenoidal(grid32, seed=9),
            random_solenoidal(grid32, seed=10),
        )
        final = run(state0, params, StepperConfig(t_end=0.1, dt=1e-3))
        assert sp.solenoidal_residual(final.u) <= 1e-12
        assert sp.solenoidal_residual(final.b) <= 1e-12


def textbook_advance(y, grid, dt, rates):
    """Reference: one IF-RK4 step of the band y as one expression per stage."""
    e_half = np.exp(-rates * (dt / 2.0))
    e_full = e_half * e_half
    n1 = tendency(y, grid)
    n2 = tendency(e_half * (y + (dt / 2.0) * n1), grid)
    n3 = tendency(e_half * y + (dt / 2.0) * n2, grid)
    n4 = tendency(e_full * y + dt * (e_half * n3), grid)
    return e_full * y + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


@pytest.mark.parametrize("dim, points", [(2, 32), (3, 16)])
@pytest.mark.parametrize("dt", [2e-3, None], ids=["fixed", "adaptive"])
def test_in_place_steps_are_the_textbook_expression_bit_for_bit(monkeypatch, dim, points, dt):
    """Every step of a run, fixed (with a shorter last step) or adaptive, equals
    `textbook_advance` from the same band and dt, in every bit."""
    grid = sp.make_grid(dim, points)
    state = SolutionPair(random_solenoidal(grid, 5), random_solenoidal(grid, 6))
    params = SystemParams(DissipationSpec(0.05, 1.0 + dim / 2.0, make_g("iterated_log")),
                          DissipationSpec(0.02, 1.0, make_g("constant_one")), dim)
    steps = []
    original = integrator._advance

    def recorded(y, grid, step_dt, *args):
        new = original(y, grid, step_dt, *args)
        steps.append((y.copy(), step_dt, new.copy()))
        return new

    monkeypatch.setattr(integrator, "_advance", recorded)
    run(state, params, StepperConfig(t_end=0.011, dt=dt) if dt else
        StepperConfig(t_end=math.inf, max_steps=5))
    assert len({step_dt for _, step_dt, _ in steps}) >= 2
    rates = integrator._decay_rates(params, grid)
    for y, step_dt, new in steps:
        assert np.array_equal(new, textbook_advance(y, grid, step_dt, rates))


@pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
def test_hot_path_uses_only_real_transforms(monkeypatch, dim, points):
    """One fixed-dt step runs per tendency one pruned inverse (a complex ifft per
    leading axis, then an irfft of the zero-padded half spectrum) and one pruned
    forward (an rfft, then a complex fft per leading axis), every complex transform
    over the kc + 1 band columns; one record is one pruned inverse, and a whole
    run_experiment makes no complex fftn/ifftn, so a fall-back to the half or full
    spectrum fails here."""
    grid = sp.make_grid(dim, points)
    state = SolutionPair(random_solenoidal(grid, 1), random_solenoidal(grid, 2))
    params = SystemParams(DissipationSpec(1.0, 2.0, make_g("iterated_log")),
                          DissipationSpec(0.0, 1.0, make_g("constant_one")), dim)
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)[-1]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    new = run(state, params, StepperConfig(t_end=math.inf, dt=1e-3, max_steps=1))
    band_columns, half_columns = grid.kc + 1, points // 2 + 1
    assert sorted(calls) == sorted([("ifft", band_columns), ("fft", band_columns)] * 4 * (dim - 1)
                                   + [("irfft", half_columns), ("rfft", points)] * 4)
    calls.clear()
    make_record(new, params, record_weights(grid, params, 2.5, 5.0))
    assert calls == [("ifft", band_columns)] * (dim - 1) + [("irfft", half_columns)]
    calls.clear()
    config = config_from_mapping({"grid.n": str(dim), "grid.points": str(points),
                                  "ic.name": "random_band", "stepper.dt": "0.001",
                                  "stepper.t_end": "0.005", "diag.cadence": "1"})
    result = run_experiment(config)
    assert result.status == "ok" and result.summary["steps"] == result.summary["records"] - 1 == 5
    names = {name for name, _ in calls}
    assert "rfft" in names and "fftn" not in names and "ifftn" not in names
    assert all(columns == band_columns for name, columns in calls if name in ("fft", "ifft"))


@pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
def test_stepper_arrays_start_on_cache_lines(monkeypatch, dim, points):
    """Every array the stepper reuses starts on a 64-byte boundary: the pruned transforms'
    and the tendency's per-grid buffers, built afresh here, and an adaptive run's two
    stage arrays and CFL samples."""
    for cached in (sp._inverse_buffers, sp._forward_buffers, dynamics._tendency_buffers):
        cached.cache_clear()
    grid = sp.make_grid(dim, points)
    state = SolutionPair(random_solenoidal(grid, 1), random_solenoidal(grid, 2))
    params = SystemParams(DissipationSpec(1.0, 2.0, make_g("iterated_log")),
                          DissipationSpec(0.0, 1.0, make_g("constant_one")), dim)
    stages, cfl = [], []
    advance, inverse = integrator._advance, integrator.sp.band_to_physical

    def traced_advance(*args):
        stages.extend(args[-1])
        return advance(*args)

    def traced_inverse(band, grid, out=None):
        cfl.append(out)
        return inverse(band, grid, out=out)

    monkeypatch.setattr(integrator, "_advance", traced_advance)
    monkeypatch.setattr(integrator.sp, "band_to_physical", traced_inverse)
    run(state, params, StepperConfig(t_end=math.inf, max_steps=1))
    monkeypatch.undo()
    # the run samples for the CFL number before its step's first tendency
    arrays = stages + cfl[:1] + list(dynamics._tendency_buffers(grid))
    for cached, lead in ((sp._inverse_buffers, (2, dim)), (sp._forward_buffers, (dim * dim - 1,))):
        for item in cached(grid, lead):
            arrays += item if isinstance(item, tuple) else [item]
    assert len(arrays) == (17 if dim == 3 else 13)
    assert [a.ctypes.data % 64 for a in arrays] == [0] * len(arrays)


@pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
def test_step_projects_only_when_the_band_operator_is_built(monkeypatch, dim, points):
    """After one warm-up tendency has built the grid's band operator, a fixed-dt step
    makes no Leray projection, so a return to projecting on every call fails here."""
    grid = sp.make_grid(dim, points)
    state = SolutionPair(random_solenoidal(grid, 3), random_solenoidal(grid, 4))
    params = SystemParams(DissipationSpec(1.0, 2.0, make_g("iterated_log")),
                          DissipationSpec(0.0, 1.0, make_g("constant_one")), dim)
    tendency(sp.to_band(state.data, grid), grid)
    calls = []
    original = sp.leray_array

    def counted(comps, kmesh):
        calls.append(comps.shape)
        return original(comps, kmesh)

    monkeypatch.setattr(sp, "leray_array", counted)
    run(state, params, StepperConfig(t_end=math.inf, dt=1e-3, max_steps=1))
    assert calls == []


@pytest.mark.parametrize("snapshot_times", ["", "0.002,0.006"])
def test_observed_run_expands_the_band_only_for_snapshots(monkeypatch, tmp_path, snapshot_times):
    """A cadence-5 run_experiment records from the band: no state is expanded to
    the full spectrum except for a snapshot, one field at a time, once per field of
    each written file."""
    expanded = []
    original = sp.from_band

    def counted(band, grid):
        expanded.append(band.shape)
        return original(band, grid)

    monkeypatch.setattr(sp, "from_band", counted)
    mapping = {"grid.points": "16", "ic.name": "random_band", "stepper.dt": "0.001",
               "stepper.t_end": "0.01", "diag.cadence": "5"}
    if snapshot_times:
        mapping.update({"out.snapshots": str(tmp_path / "snap"), "out.snapshot_times": snapshot_times})
    result = run_experiment(config_from_mapping(mapping))
    assert result.status == "ok" and result.summary["steps"] == 10 and result.summary["records"] == 3
    snapshots = result.summary.get("snapshots", [])
    assert len(snapshots) == 2 * bool(snapshot_times)
    assert expanded == [sp.make_grid(2, 16).band_shape] * 4 * len(snapshots)

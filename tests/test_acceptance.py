"""Acceptance suite: one test per criterion, one printed line per criterion.

The trajectory fixtures are session-scoped and shared between criteria, and
read from one session fixture that runs the trajectories of the selected tests
(all 18 in a full run) in a pool of two processes with this process's warning
filters; the full module takes about a minute at desk scale (69 s on a
2-core x86-64 host with Python 3.11.7 and numpy 2.4.6), most of it in the
pool.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from importlib import resources

import numpy as np
import pytest

from lmhd import spectral as sp
from lmhd import diagnostics as dg
from lmhd.dynamics import SolutionPair, SystemParams
from lmhd.integrator import StepperConfig, run
from lmhd.lpaley import (
    BesovIndex,
    bernstein_ratio,
    besov_norm,
    commutator_ratio,
    dyadic_blocks,
    make_partition,
)
from lmhd.multiplier import (
    CONVERGES,
    DIVERGES,
    DissipationSpec,
    make_g,
    osgood_classify,
)
from lmhd.spectral import SpectralField, VectorField

from conftest import (
    convolution_oracle,
    dft_oracle,
    random_annulus_field,
    random_real_field,
    random_solenoidal,
)
from test_dynamics import tendency_oracle

CATALOG_NAMES = ["constant_one", "power_log", "iterated_log", "power", "spiky"]


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def make_params(nu, eta, alpha, gname, beta=1.0):
    return SystemParams(
        diss_u=DissipationSpec(nu, alpha, make_g(gname)),
        diss_b=DissipationSpec(eta, beta, make_g("constant_one")),
        dim=2,
    )


def trajectory(points, nu, dt, t_end, cadence, gname="constant_one", alpha=2.0, eta=0.0):
    grid = sp.make_grid(2, points)
    params = make_params(nu, eta, alpha, gname)
    state0 = dg.initial_condition("orszag_tang_2d", {}, grid)
    tracker = dg.DiagnosticTracker(params, gamma=2.5, s=5.0, cadence=cadence)
    t0 = time.perf_counter()
    final = run(state0, params, StepperConfig(t_end=t_end, dt=dt), observer=tracker)
    wall = time.perf_counter() - t0
    return tracker.records, final, wall, params


# the trajectories behind each trajectory fixture: key -> trajectory() arguments, where a
# key is the fixture's name, or (fixture name, g name) for the fixtures that return a catalog
TRAJECTORIES = {
    # criterion-1 trajectory: 64^2 Orszag-Tang, nu=1, eta=0, alpha=2, g=1
    "traj_viscous": (64, 1.0, 1e-3, 1.0, 10),
    "traj_inviscid": (64, 0.0, 1e-3, 1.0, 10),
    # one grid refinement and dt halving of the criterion-1 trajectory
    "traj_viscous_refined": (128, 1.0, 5e-4, 1.0, 20),
    # theorem-regime runs (nu=0.05, alpha=2=1+N/2) per catalog g, t in [0,2]
    **{("catalog_runs", name): (64, 0.05, 1e-3, 2.0, 10, name) for name in CATALOG_NAMES},
    # grid-refined, dt-halved variants on the common window t in [0,1]
    **{("catalog_runs_refined", name): (128, 0.05, 5e-4, 1.0, 20, name) for name in CATALOG_NAMES},
    # dt-halved 64^2 variants over the full t in [0,2] window
    **{("catalog_runs_dt_halved", name): (64, 0.05, 5e-4, 2.0, 20, name)
       for name in CATALOG_NAMES},
}


def trajectory_cost(args):
    """Grid points times steps, the order of a trajectory's run time."""
    points, _, dt, t_end = args[:4]
    return points**2 * round(t_end / dt)


def install_warning_filters(filters):
    """Pool initializer: give a worker the warning filters of the process that made the
    pool, so that a warning pyproject's `filterwarnings` makes an error is one there too."""
    warnings.resetwarnings()
    for action, message, category, module, lineno in filters:
        # a filter holds its message and module as a compiled pattern, a string or None
        warnings.filterwarnings(action, getattr(message, "pattern", message) or "", category,
                                getattr(module, "pattern", module) or "", lineno, append=True)


@pytest.fixture(scope="session")
def trajectory_pool():
    """At most two spawned worker processes with this test's warning filters.

    The workers are spawned, not forked, so that no fork copies this process's threads."""
    with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=install_warning_filters,
                             initargs=(list(warnings.filters),)) as pool:
        yield pool


@pytest.fixture(scope="session")
def trajectory_futures(request, trajectory_pool):
    """The trajectories of the fixtures the selected tests use, submitted longest first."""
    used = {name for item in request.session.items for name in item.fixturenames}
    keys = [key for key in TRAJECTORIES if (key[0] if isinstance(key, tuple) else key) in used]
    keys.sort(key=lambda key: trajectory_cost(TRAJECTORIES[key]), reverse=True)
    return {key: trajectory_pool.submit(trajectory, *TRAJECTORIES[key]) for key in keys}


@pytest.fixture(scope="session")
def traj_viscous(trajectory_futures):
    return trajectory_futures["traj_viscous"].result()


@pytest.fixture(scope="session")
def traj_inviscid(trajectory_futures):
    return trajectory_futures["traj_inviscid"].result()


@pytest.fixture(scope="session")
def traj_viscous_refined(trajectory_futures):
    return trajectory_futures["traj_viscous_refined"].result()


@pytest.fixture(scope="session")
def catalog_runs(trajectory_futures):
    return {name: trajectory_futures["catalog_runs", name].result() for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def catalog_runs_refined(trajectory_futures):
    return {name: trajectory_futures["catalog_runs_refined", name].result()
            for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def catalog_runs_dt_halved(trajectory_futures):
    return {name: trajectory_futures["catalog_runs_dt_halved", name].result()
            for name in CATALOG_NAMES}


def test_pooled_trajectory_is_bit_identical_to_in_process(traj_inviscid):
    records, final, _, params = traj_inviscid
    records_here, final_here, _, params_here = trajectory(*TRAJECTORIES["traj_inviscid"])
    assert np.array(records).tobytes() == np.array(records_here).tobytes()
    assert final.time == final_here.time and final.data.tobytes() == final_here.data.tobytes()
    assert params == params_here


@pytest.mark.parametrize("category", [RuntimeWarning, np.exceptions.ComplexWarning,
                                      DeprecationWarning, PendingDeprecationWarning])
def test_a_warning_in_a_pool_worker_is_an_error(trajectory_pool, category):
    with pytest.raises(category, match="raised in a worker"):
        trajectory_pool.submit(warnings.warn, "raised in a worker", category).result()


def test_a_floating_point_warning_in_a_pool_worker_is_an_error(trajectory_pool):
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        trajectory_pool.submit(np.log, np.float64(0.0)).result()


def split_ratio_max(records):
    ratios = [
        r.grad_u_inf / (r.split_low + r.split_high)
        for r in records
        if (r.split_low + r.split_high) > 0.0
    ]
    return max(ratios), ratios


def truncate(records, t_max):
    return [r for r in records if r.t <= t_max + 1e-12]


def rel_spread(a, b):
    scale = max(abs(a), abs(b))
    if scale < 1e-12:
        return 0.0
    return abs(a - b) / scale


def test_criterion_01_energy_identity(traj_viscous, traj_inviscid):
    records, _, wall_v, _ = traj_viscous
    residual = dg.energy_balance_residual(records, 1.0, 0.0)
    records_inv, _, wall_i, _ = traj_inviscid
    drift = dg.energy_balance_residual(records_inv, 0.0, 0.0)
    ok = residual <= 1e-4 and drift <= 1e-8 and (wall_v + wall_i) <= 120.0
    report(1, ok, f"energy residual {residual:.3e} (<=1e-4), inviscid drift {drift:.3e} "
                  f"(<=1e-8), runtime {wall_v + wall_i:.0f}s (<=120s)")


def test_criterion_02_linear_decay_exactness():
    grid = sp.make_grid(2, 16)
    catalog = [
        make_g("constant_one"),
        make_g("power_log", c=1.0),
        make_g("iterated_log"),
        make_g("power", epsilon=0.1),
        make_g("spiky", period=0.6, height=2.0),
    ]
    worst = 0.0
    for g in catalog:
        for alpha in (1.0, 1.5, 2.0, 2.5):
            params = SystemParams(DissipationSpec(0.8, alpha, g),
                                  DissipationSpec(0.0, 1.0, make_g("constant_one")), 2)
            coeffs = np.zeros(grid.shape, dtype=np.complex128)
            coeffs[2, 0] = 0.5
            coeffs[-2, 0] = 0.5
            state0 = SolutionPair(
                VectorField((sp.zero_field(grid), SpectralField(grid, coeffs))),
                sp.zero_vector(grid),
            )
            m = 2.0**alpha / float(g(2.0))
            expected = 0.5 * np.exp(-0.8 * m**2 * 0.4)
            for dt in (0.08, 1e-3):
                final = run(state0, params, StepperConfig(t_end=0.4, dt=dt), nonlinear=None)
                worst = max(worst, abs(final.u.components[1].coeffs[2, 0] - expected) / 0.5)
    report(2, worst <= 1e-10, f"max relative decay defect {worst:.3e} (<=1e-10) "
                              f"across {len(catalog)}x4 (g, alpha) pairs and two dts")


def test_criterion_03_integrator_order():
    grid = sp.make_grid(2, 64)
    params = make_params(0.05, 0.0, 2.0, "constant_one")
    state0 = dg.initial_condition("orszag_tang_2d", {}, grid)
    t0 = time.perf_counter()
    finals = [run(state0, params, StepperConfig(t_end=0.2, dt=dt)) for dt in (2e-3, 1e-3, 5e-4)]
    wall = time.perf_counter() - t0

    def dist(a, b):
        return np.sqrt(sum(
            np.sum(np.abs(x.coeffs - y.coeffs) ** 2)
            for x, y in zip(list(a.u.components) + list(a.b.components),
                            list(b.u.components) + list(b.b.components))
        ))

    e1 = dist(finals[0], finals[1])
    e2 = dist(finals[1], finals[2])
    order = float(np.log2(e1 / e2))
    report(3, order >= 3.8 and wall <= 300.0,
           f"observed order {order:.2f} (>=3.8), runtime {wall:.0f}s (<=300s)")


def test_criterion_04_solenoidality(traj_viscous, traj_inviscid, catalog_runs):
    worst = 0.0
    for records in [traj_viscous[0], traj_inviscid[0]] + [catalog_runs[n][0] for n in CATALOG_NAMES]:
        for r in records:
            worst = max(worst, r.div_u, r.div_b)
    report(4, worst <= 1e-12, f"max relative divergence over all samples {worst:.3e} (<=1e-12)")


def test_criterion_05_littlewood_paley_suite():
    worst_recon = 0.0
    worst_ortho = 0.0
    ratio_lo, ratio_hi = np.inf, 0.0
    for points in (16, 32, 64, 128):
        grid = sp.make_grid(2, points)
        part = make_partition(grid)
        total = part.psi_hat + sum(part.phi_hats)
        worst_recon = max(worst_recon, float(np.max(np.abs(total - 1.0))))
        for seed in range(100):
            f = random_real_field(grid, seed=seed)
            blocks = dyadic_blocks(f, part)
            recon = sum(b.coeffs for b in blocks)
            worst_recon = max(
                worst_recon,
                float(np.max(np.abs(recon - f.coeffs)) / np.max(np.abs(f.coeffs))),
            )
            if seed < 10:
                norm_sq = sp.lp_norm(f, 2) ** 2
                for i, ji in enumerate(part.j_values):
                    for k, jk in enumerate(part.j_values):
                        if jk - ji >= 2:
                            worst_ortho = max(
                                worst_ortho,
                                abs(sp.l2_inner(blocks[i], blocks[k])) / norm_sq,
                            )
            for s in (0.0, 1.0, 2.0):
                ratio = besov_norm(f, BesovIndex(s, 2, 2), part) / sp.hs_norm(f, s)
                ratio_lo = min(ratio_lo, ratio)
                ratio_hi = max(ratio_hi, ratio)
    ok = worst_recon <= 1e-12 and worst_ortho <= 1e-12 and 0.25 <= ratio_lo and ratio_hi <= 4.0
    report(5, ok, f"reconstruction {worst_recon:.2e} (<=1e-12), orthogonality {worst_ortho:.2e} "
                  f"(<=1e-12), Besov/Sobolev ratio in [{ratio_lo:.3f}, {ratio_hi:.3f}] (within [1/4, 4])")


def test_criterion_06_bernstein_stability():
    coarse = sp.make_grid(2, 32)
    fine = sp.make_grid(2, 128)
    k32 = np.fft.fftfreq(32, 1 / 32).astype(int)
    idx = np.ix_(k32 % 128, k32 % 128)
    sups = {}
    for j in (1, 2, 3, 4):
        sup_c = sup_f = 0.0
        for seed in range(100):
            f32 = random_annulus_field(coarse, j, seed=4000 * j + seed)
            c128 = np.zeros(fine.shape, dtype=np.complex128)
            c128[idx] = f32.coeffs
            f128 = SpectralField(fine, c128)
            sup_c = max(sup_c, bernstein_ratio(f32, j, 0, 2, np.inf))
            sup_f = max(sup_f, bernstein_ratio(f128, j, 0, 2, np.inf))
        sups[j] = (sup_c, sup_f)
    worst = max(rel_spread(a, b) for a, b in sups.values())
    finite = all(np.isfinite(a) and np.isfinite(b) for a, b in sups.values())
    report(6, finite and worst <= 0.25,
           "sup ratios per j " + ", ".join(f"j={j}: {a:.3f}/{b:.3f}" for j, (a, b) in sups.items())
           + f"; max 32->128 drift {worst * 100:.1f}% (<=25%)")


def test_criterion_07_splitting_inequality(traj_viscous, traj_viscous_refined):
    max_a, ratios_a = split_ratio_max(traj_viscous[0])
    max_r, _ = split_ratio_max(traj_viscous_refined[0])
    finite = all(np.isfinite(x) for x in ratios_a)
    spread = rel_spread(max_a, max_r)
    report(7, finite and spread <= 0.5,
           f"sup-norm split ratio finite at every sample, max {max_a:.4f} vs refined {max_r:.4f} "
           f"(drift {spread * 100:.2f}% <= 50%)")


def test_criterion_08_commutator():
    grid = sp.make_grid(2, 32)
    holder = (2, np.inf, 2, 2, np.inf)
    worst = {}
    for s in (0.5, 1.0, 2.0):
        vals = []
        for seed in range(100):
            f = random_real_field(grid, seed=3000 + seed, band=7)
            g = random_real_field(grid, seed=5000 + seed, band=7)
            vals.append(commutator_ratio(f, g, s, holder))
        worst[s] = max(vals)
    const = sp.forward_transform(np.full(grid.shape, 1.7), grid)
    g = random_real_field(grid, seed=123, band=7)
    const_ratios = [commutator_ratio(const, g, s, holder) for s in (0.5, 1.0, 2.0)]
    ok = all(np.isfinite(v) for v in worst.values()) and all(v <= 1e-12 for v in const_ratios)
    report(8, ok, "corpus max ratio " + ", ".join(f"s={s}: {v:.3f}" for s, v in worst.items())
           + f"; constant-f ratio {max(const_ratios):.1e} (<=1e-12)")


def test_criterion_09_osgood_catalog():
    verdicts = {
        "constant_one": osgood_classify(make_g("constant_one")).classification,
        "iterated_log": osgood_classify(make_g("iterated_log")).classification,
        "spiky": osgood_classify(make_g("spiky", period=0.6, height=2.0)).classification,
        "power_log": osgood_classify(make_g("power_log", c=1.0)).classification,
    }
    for eps in (0.05, 0.1, 0.5):
        verdicts[f"power({eps})"] = osgood_classify(make_g("power", epsilon=eps)).classification
    ok = (
        verdicts["constant_one"] == DIVERGES
        and verdicts["iterated_log"] == DIVERGES
        and verdicts["spiky"] == DIVERGES
        and all(verdicts[f"power({eps})"] == CONVERGES for eps in (0.05, 0.1, 0.5))
        and verdicts["power_log"] == CONVERGES  # true class of the pointwise-log bound
    )
    report(9, ok, "; ".join(f"{k}: {v}" for k, v in verdicts.items()))


def test_criterion_10_gronwall_trajectory_check(catalog_runs, catalog_runs_refined):
    details = []
    ok = True
    for name in CATALOG_NAMES:
        records, _, _, params = catalog_runs[name]
        base = dg.gronwall_bound_check(records, params.diss_u.g)
        window = truncate(records, 1.0)
        base_window = dg.gronwall_bound_check(window, params.diss_u.g)
        refined_records, _, _, _ = catalog_runs_refined[name]
        refined = dg.gronwall_bound_check(refined_records, params.diss_u.g)
        c_spread = rel_spread(base_window, refined)
        aux_base = window[-1].cum_diss_grad
        aux_refined = refined_records[-1].cum_diss_grad
        aux_spread = rel_spread(aux_base, aux_refined)
        good = (
            np.isfinite(base)
            and params.theorem_regime()
            and c_spread <= 0.5
            and np.isfinite(aux_base)
            and aux_spread <= 0.2
        )
        ok = ok and good
        details.append(f"{name}: C={base:.3e} (drift {c_spread * 100:.1f}%), "
                       f"diss-grad integral drift {aux_spread * 100:.1f}%")
    report(10, ok, "; ".join(details))


def test_criterion_11_gamma_log_derivative(catalog_runs, catalog_runs_dt_halved):
    details = []
    ok = True
    for name in CATALOG_NAMES:
        records, _, _, _ = catalog_runs[name]
        base = dg.gamma_log_derivative_check(records)
        halved = dg.gamma_log_derivative_check(catalog_runs_dt_halved[name][0])
        spread = rel_spread(base, halved)
        sup_gamma = max(r.gamma_norm for r in records)
        good = (
            np.isfinite(base)
            and spread <= 0.5
            and np.isfinite(sup_gamma)
        )
        ok = ok and good
        details.append(f"{name}: C={base:.3f} (dt-halving drift {spread * 100:.2f}%), "
                       f"sup gamma-norm {sup_gamma:.3e}")
    report(11, ok, "; ".join(details))


def test_criterion_12_brute_force_oracles():
    grid = sp.make_grid(2, 8)
    state = SolutionPair(
        random_solenoidal(grid, seed=811, band_per_axis=2),
        random_solenoidal(grid, seed=812, band_per_axis=2),
    )
    from lmhd.dynamics import nonlinear_tendency

    du, db = nonlinear_tendency(state)
    du_o, db_o = tendency_oracle(state)
    tendency_err = max(
        float(np.max(np.abs(a.coeffs - b.coeffs)))
        for a, b in zip(du.components + db.components, du_o.components + db_o.components)
    )
    rng = np.random.default_rng(813)
    samples = rng.standard_normal(grid.shape)
    dft_err = float(np.max(np.abs(sp.forward_transform(samples, grid).coeffs - dft_oracle(samples))))
    ok = tendency_err <= 1e-10 and dft_err <= 1e-12
    report(12, ok, f"tendency vs direct convolution {tendency_err:.2e} (<=1e-10), "
                   f"transform vs direct Fourier sum {dft_err:.2e} (<=1e-12)")


def test_criterion_13_golden_regression(tmp_path):
    package_root = resources.files("lmhd")
    config_path = package_root / "configs" / "orszag_tang_2d.cfg"
    golden_path = package_root / "golden" / "orszag_tang_2d_series.csv"
    config = dg.parse_config(str(config_path))
    config.out_series = str(tmp_path / "series.csv")
    result = dg.run_experiment(config)
    golden = list(map(dg.DiagnosticRecord._make, dg.read_series(str(golden_path)).tolist()))
    fresh = result.records
    worst = 0.0
    assert len(golden) == len(fresh)
    for a, b in zip(golden, fresh):
        for name in dg.RECORD_FIELDS:
            va, vb = getattr(a, name), getattr(b, name)
            worst = max(worst, abs(va - vb) / max(abs(va), 1.0))
    ok = result.status == dg.STATUS_OK and worst <= 1e-10
    report(13, ok, f"status {result.status}, max deviation from golden series {worst:.2e} (<=1e-10)")

"""Per-step tracking of the regularity quantities, estimate checks, and the
experiment runner behind the CLI.

Every record snapshots the energy, the H1-level quantity X, the configured
higher norms, the dissipation norms, the gradient sup-norm with its low/high
frequency bound terms (threshold e + X), and running trapezoidal time
integrals at the diagnostic cadence.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import spectral as sp
from .dynamics import SolutionPair, SystemParams
from .integrator import BlowupError, StepperConfig, run
from .multiplier import (
    E,
    DissipationSpec,
    GFunction,
    make_g,
    osgood_classify,
    partial_integral,
    symbol,
)


class ConfigError(ValueError):
    """Raised for unparsable or inconsistent run configuration."""


class DiagnosticRecord(NamedTuple):
    """One diagnostic snapshot; it iterates in RECORD_FIELDS order, so
    `np.asarray(records, dtype=np.float64)` is the (records, 16) table of a
    series and `DiagnosticRecord._make(table.T)` names its columns."""

    t: float
    energy: float
    diss_u: float
    diss_b: float
    diss_grad_u: float
    x_norm: float
    y_norm: float
    gamma_norm: float
    grad_u_inf: float
    split_low: float
    split_high: float
    cum_diss: float
    cum_diss_b: float
    cum_diss_grad: float
    div_u: float
    div_b: float


RECORD_FIELDS = list(DiagnosticRecord._fields)


def record_weights(grid: sp.Grid, params: SystemParams, gamma: float, s: float) -> np.ndarray:
    """The factors of every record of a run that do not read the state, on the band of
    one grid of M modes: shape (8, 2 M), whose rows weight the flattened band power of u
    then b to the sums of P_u and P_b, diss_u, diss_b, diss_grad_u, x_norm, y_norm and
    gamma_norm.  A weight that overflows is kept as inf."""
    k_squared = grid.band_k_squared
    matrix = np.zeros((8, 2) + grid.band_shape)
    # (2 pi)^N of sp.mode_power, and band_parseval, which counts the mirror -k of columns 1..kc
    parseval = matrix[0, 0]
    parseval[...] = sp.BOX_LENGTH ** grid.dim * grid.band_parseval
    matrix[1, 1] = parseval
    with np.errstate(over="ignore", invalid="ignore"):
        for i, spec in enumerate((params.diss_u, params.diss_b)):
            np.square(symbol(spec, grid.band_kmag), out=matrix[2 + i, i])
        # sum_j |m k_j u_hat|^2 = m^2 |k|^2 |u_hat|^2
        np.multiply(matrix[2, 0], k_squared, out=matrix[4, 0])
        # |k|^(2 order) = (|k|^2)^order for the orders 1, s and gamma, on u and b alike
        matrix[5] = k_squared
        for row, order in ((6, s), (7, gamma)):
            matrix[row] = sp.radial_power(k_squared, order)
        matrix[2:] *= parseval
    return matrix.reshape(8, -1)


def split_terms(diss: DissipationSpec, m1: float, l_u_sq: float,
                l_grad_sq: float) -> tuple[float, float]:
    """(low_term, high_term) = (g(m1) sqrt(ln m1) ||L u||, m1^(-1/2) ||L grad u||), the bound
    terms of the gradient sup norm, from l_u_sq = ||L u||^2 and l_grad_sq = ||L grad u||^2."""
    if m1 < E:
        raise ValueError("threshold m1 must be >= e")
    low_term = float(diss.g(m1)) * float(np.sqrt(np.log(m1))) * float(np.sqrt(l_u_sq))
    high_term = float(m1) ** -0.5 * float(np.sqrt(l_grad_sq))
    return low_term, high_term


def make_record(state: SolutionPair, params: SystemParams, weights: np.ndarray,
                prev: DiagnosticRecord | None = None) -> DiagnosticRecord:
    """Compute one snapshot from the state's band; cumulative integrals continue
    from prev.  `weights` is `record_weights` of the state's grid, these params
    and the run's gamma and s.  ValueError for a state with a nonzero
    coefficient outside the band.

    Norms of a state that is about to blow up may overflow to inf; the
    record keeps them rather than warning.  A weight that overflowed to inf
    makes its sum inf where the state has power at its mode, and never nan.
    """
    grid, band = state.grid, state.band
    with np.errstate(over="ignore", invalid="ignore"):
        # sum_i |v_hat_i|^2 of u and b, flattened: every L2-type sum is one row of one product
        power = np.sum(band.real**2 + band.imag**2, axis=1).reshape(-1)
        sums = (weights @ power).tolist()
        if any(map(math.isnan, sums)):
            # an overflowed (inf) weight times a mode of zero power reads nan: such a sum
            # is taken over the modes that have power
            live = power != 0.0
            sums = [float(row[live] @ power[live]) if math.isnan(value) else value
                    for value, row in zip(sums, weights)]
        sum_u, sum_b, diss_u, diss_b, diss_grad_u, x_norm, y_norm, gamma_norm = sums
        energy = 0.5 * (sum_u + sum_b)

        grad_u = sp.band_to_physical(sp.gradient_array(band[0], grid.band_ik), grid)
        grad_u_inf = max(float(grad_u.max()), -float(grad_u.min()))
        split_low, split_high = split_terms(params.diss_u, E + x_norm, diss_u, diss_grad_u)
        # solenoidal_residual of u and b, normalised by their own L2 norms; the band holds
        # every nonzero mode or its mirror, which has the same |k . v_hat|
        k_dot_max = np.abs(sp.k_dot(band, grid.band_kmesh)).reshape(2, -1).max(axis=1).tolist()
        div_u, div_b = (kv / max(1.0, math.sqrt(p)) for kv, p in zip(k_dot_max, (sum_u, sum_b)))

        t = state.time
        if prev is None:
            cum_diss = cum_diss_b = cum_diss_grad = 0.0
        else:
            half_dt = 0.5 * (t - prev.t)
            cum_diss = prev.cum_diss + half_dt * (prev.diss_u + diss_u)
            cum_diss_b = prev.cum_diss_b + half_dt * (prev.diss_b + diss_b)
            cum_diss_grad = prev.cum_diss_grad + half_dt * (prev.diss_grad_u + diss_grad_u)

        return DiagnosticRecord(
            t=t, energy=energy, diss_u=diss_u, diss_b=diss_b, diss_grad_u=diss_grad_u,
            x_norm=x_norm, y_norm=y_norm, gamma_norm=gamma_norm, grad_u_inf=grad_u_inf,
            split_low=split_low, split_high=split_high, cum_diss=cum_diss, cum_diss_b=cum_diss_b,
            cum_diss_grad=cum_diss_grad, div_u=div_u, div_b=div_b)


class DiagnosticTracker:
    """Observer that appends a record every `cadence` steps to the records of
    one run, whose states share a grid; it builds the record weights at its
    first record."""

    def __init__(self, params: SystemParams, gamma: float, s: float, cadence: int = 1):
        if cadence < 1:
            raise ValueError("cadence must be >= 1")
        self.params = params
        self.gamma = gamma
        self.s = s
        self.cadence = cadence
        self.records: list[DiagnosticRecord] = []
        self._weights: np.ndarray | None = None

    def __call__(self, step_index: int, state: SolutionPair) -> None:
        if step_index % self.cadence == 0:
            prev = self.records[-1] if self.records else None
            if prev is None:
                self._weights = record_weights(state.grid, self.params, self.gamma, self.s)
            self.records.append(make_record(state, self.params, self._weights, prev))


# ---------------------------------------------------------------------------
# estimate checks
# ---------------------------------------------------------------------------

_MIN_ENERGY_RECORDS = 3
_MIN_GAMMA_RECORDS = 50
_SOLENOIDAL_TOL = 1e-8

# the fields whose square roots the gamma check takes
_ROOTED = np.isin(RECORD_FIELDS, ("diss_u", "diss_grad_u"))


def _table(records: list[DiagnosticRecord] | np.ndarray) -> np.ndarray:
    """The (records, 16) float64 table of a list of records, or the table itself."""
    return np.asarray(records, dtype=np.float64).reshape(len(records), len(RECORD_FIELDS))


def _first_cell(mask: np.ndarray, table: np.ndarray) -> str | None:
    """'<field> at t=<time>' of the first set cell of a (records, 16) mask, in row-major order."""
    rows, cols = np.nonzero(mask)
    return f"{RECORD_FIELDS[cols[0]]} at t={float(table[rows[0], 0])}" if rows.size else None


def _max_positive(values: np.ndarray) -> float:
    """The largest positive value, or 0.0; NaN is skipped, as max(0.0, nan) keeps 0.0."""
    return float(np.max(values[values > 0.0], initial=0.0))


def energy_balance_residual(records: list[DiagnosticRecord] | np.ndarray, nu: float,
                            eta: float) -> float:
    """Max relative defect of the energy identity along the series.

    The running integrals are trapezoid sums in record time, so the records
    may be spaced unevenly.
    """
    table = _table(records)
    if len(table) < _MIN_ENERGY_RECORDS:
        raise ValueError(f"need at least {_MIN_ENERGY_RECORDS} records")
    r = DiagnosticRecord._make(table.T)
    e0 = float(r.energy[0])
    with np.errstate(over="ignore"):
        worst = _max_positive(np.abs(r.energy - e0 + nu * r.cum_diss + eta * r.cum_diss_b))
    return worst / max(e0, 1e-300)


def gronwall_bound_check(records: list[DiagnosticRecord] | np.ndarray, g1: GFunction) -> float:
    """Smallest C with F(e + X(t)) - F(e + X(0)) <= C * int_0^t (1 + diss_u).

    F is the running Osgood integral of g1, taken at every record in one
    `partial_integral` pass, so F is non-decreasing in X and a non-increasing
    X gives C = 0. ValueError for an empty series or a non-finite x_norm.
    """
    table = _table(records)
    if not len(table):
        raise ValueError("empty series")
    r = DiagnosticRecord._make(table.T)
    bad = np.flatnonzero(~np.isfinite(r.x_norm))
    if bad.size:
        raise ValueError(f"x_norm is not finite at record {bad[0]} (t={float(r.t[bad[0]])})")
    f = partial_integral(g1, E + r.x_norm)
    lhs = f[1:] - f[0]
    rhs = (r.t[1:] - r.t[0]) + r.cum_diss[1:]
    # records with rhs <= 0 (or NaN) bound nothing; a quotient that overflows reads inf
    bounded = rhs > 0.0
    with np.errstate(over="ignore"):
        return _max_positive(lhs[bounded] / rhs[bounded])


def gamma_log_derivative_check(records: list[DiagnosticRecord] | np.ndarray) -> float:
    """Smallest C bounding d/dt ln(e + gamma_norm) by C*(||L u|| + ||L grad u||).

    Infinite when the log rises where the bound is <= 1e-300; ValueError for a
    negative diss_u or diss_grad_u.
    """
    table = _table(records)
    if len(table) < _MIN_GAMMA_RECORDS:
        raise ValueError(f"cadence too coarse: need at least {_MIN_GAMMA_RECORDS} records")
    r = DiagnosticRecord._make(table.T)
    if np.any(np.diff(r.t) <= 0.0):
        raise ValueError("record times must be strictly increasing")
    if cell := _first_cell((table < 0.0) & _ROOTED, table):
        raise ValueError(f"negative record field {cell}")
    w = np.log(E + r.gamma_norm)
    denom = (np.sqrt(r.diss_u) + np.sqrt(r.diss_grad_u))[1:-1]
    # a quotient that overflows, as over record times a subnormal apart, reads inf
    with np.errstate(over="ignore"):
        dw = (w[2:] - w[:-2]) / (r.t[2:] - r.t[:-2])
        # a NaN derivative is not a falling one
        rising = ~(dw <= 0.0)
        if np.any(rising & (denom <= 1e-300)):
            return math.inf
        return _max_positive(dw[rising] / denom[rising])


def evaluate_checks(records: list[DiagnosticRecord] | np.ndarray, config: RunConfig,
                    params: SystemParams | None) -> tuple[dict, list[str]]:
    """The series values (max_x_norm, sup_gamma_norm, the last cum_diss_grad)
    and every estimate check the series is long enough for, with the config's
    nu, eta, g1 and optional energy tolerance; params, when given, is checked
    against the theorem regime.

    Returns the measured values by name and the failure messages. A norm often
    overflows before the state does, so the report reads the records before the
    first one with a non-finite field, and that field fails the series first;
    the report is empty when the first record has one. A negative field among
    the records read, which no run writes, raises ValueError; the constants
    fail when not finite and the divergence residual above 1e-8.
    """
    table = _table(records)
    nonfinite = ~np.isfinite(table)
    cell = _first_cell(nonfinite, table)
    failures = [f"non-finite record field {cell}"] if cell else []
    table = table[~np.logical_or.accumulate(nonfinite.any(axis=1))]
    if not len(table):
        return {}, failures
    if cell := _first_cell(table < 0.0, table):
        raise ValueError(f"negative record field {cell}")
    r = DiagnosticRecord._make(table.T)
    report = {"max_x_norm": float(np.max(r.x_norm)), "sup_gamma_norm": float(np.max(r.gamma_norm)),
              "cum_diss_grad": float(r.cum_diss_grad[-1])}
    if len(table) >= _MIN_ENERGY_RECORDS:
        residual = energy_balance_residual(table, config.nu, config.eta)
        report["energy_residual"] = residual
        if config.energy_tol is not None and residual > config.energy_tol:
            failures.append(f"energy residual {residual:.3e} > {config.energy_tol:.3e}")
    gronwall = gronwall_bound_check(table, config.g1)
    report["gronwall_constant"] = gronwall
    if params is not None and not params.theorem_regime():
        report["gronwall_warning"] = (
            "parameters are outside the theorem regime (need nu>0, eta=0, alpha>=1+N/2)")
    if not math.isfinite(gronwall):
        failures.append("gronwall constant is not finite")
    if len(table) >= _MIN_GAMMA_RECORDS:
        gamma = gamma_log_derivative_check(table)
        report["gamma_log_constant"] = gamma
        if not math.isfinite(gamma):
            failures.append("gamma log-derivative constant is not finite")
    max_div = float(np.max(np.maximum(r.div_u, r.div_b)))
    report["max_div"] = max_div
    if max_div > _SOLENOIDAL_TOL:
        failures.append(f"solenoidality residual {max_div:.3e} > {_SOLENOIDAL_TOL:.0e}")
    return report, failures


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def _state_from_samples(u_samples: list[np.ndarray], b_samples: list[np.ndarray],
                        grid: sp.Grid) -> np.ndarray:
    """The band of the solenoidal, zero-mean pair that every initial state starts from."""
    band = sp.physical_to_band(np.array([u_samples, b_samples], dtype=np.float64), grid)
    band[(...,) + (0,) * grid.dim] = 0.0
    return sp.leray_array(band, grid.band_kmesh)


# initial condition -> the ic.* parameters it reads
_IC_PARAMETERS = {"orszag_tang_2d": (), "taylor_green_2d": (),
                  "random_band": ("seed", "band", "amplitude"), "single_mode": ("k", "amplitude")}


def initial_condition(name: str, params: dict, grid: sp.Grid) -> SolutionPair:
    """Named solenoidal, zero-mean initial states, built on the 2/3 band and
    returned as `SolutionPair.from_band` pairs; ConfigError for an unknown
    name, a parameter the named state does not read, or the zero state."""
    # an unknown name reads every parameter here, and _initial_state rejects the name
    unread = sorted(set(params).difference(_IC_PARAMETERS.get(name, params)))
    if unread:
        raise ConfigError(f"initial condition {name!r} does not read ic.{', ic.'.join(unread)}")
    band = _initial_state(name, params, grid)
    if not np.any(band):
        raise ConfigError(f"initial condition {name!r} is identically zero with these ic.* parameters")
    return SolutionPair.from_band(grid, band, 0.0)


def _initial_state(name: str, params: dict, grid: sp.Grid) -> np.ndarray:
    coords = grid.coordinates()
    if name == "orszag_tang_2d":
        if grid.dim != 2:
            raise ConfigError("orszag_tang_2d requires a 2D grid")
        x, y = coords
        # u = (-2 sin y, 2 sin x), b = (-sin y, sin 2x)
        u = [-2.0 * np.sin(y), 2.0 * np.sin(x)]
        b = [-np.sin(y), np.sin(2.0 * x)]
        return _state_from_samples(u, b, grid)
    if name == "taylor_green_2d":
        if grid.dim != 2:
            raise ConfigError("taylor_green_2d requires a 2D grid")
        x, y = coords
        u = [np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)]
        b = [np.zeros(grid.shape), np.zeros(grid.shape)]
        return _state_from_samples(u, b, grid)
    if name == "random_band":
        seed = int(params.get("seed", 0))
        band = float(params.get("band", 4.0))
        amplitude = float(params.get("amplitude", 1.0))
        samples = np.random.default_rng(seed).standard_normal((2, grid.dim) + grid.shape)
        kept = _state_from_samples(*samples, grid) * (grid.band_kmag <= band)
        norm = math.sqrt(sum(float(np.sum(grid.band_parseval * sp.mode_power(c))) for c in kept))
        return kept * (amplitude / max(norm, 1e-300))
    if name == "single_mode":
        k = tuple(int(v) for v in params.get("k", (1, 0)))
        if len(k) != grid.dim or all(v == 0 for v in k):
            raise ConfigError(f"single_mode requires a nonzero {grid.dim}-vector k")
        amplitude = float(params.get("amplitude", 1.0))
        kvec = np.array(k, dtype=float)
        if np.any(np.abs(kvec) >= grid.points / 3.0):
            raise ConfigError(f"single_mode requires every |k_j| < points/3 = {grid.points / 3:.4g}")
        if grid.dim == 2:
            e_perp = np.array([-kvec[1], kvec[0]])
        else:
            trial = np.array([1.0, 0.0, 0.0])
            if abs(np.dot(trial, kvec)) >= 0.99 * np.linalg.norm(kvec):
                trial = np.array([0.0, 1.0, 0.0])
            e_perp = np.cross(kvec, trial)
        e_perp /= np.linalg.norm(e_perp)
        phase = sum(k[j] * coords[j] for j in range(grid.dim))
        u = [amplitude * e_perp[j] * np.cos(phase) for j in range(grid.dim)]
        b = [np.zeros(grid.shape) for _ in range(grid.dim)]
        return _state_from_samples(u, b, grid)
    raise ConfigError(f"unknown initial condition {name!r}")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    dim: int = 2
    points: int = 64
    nu: float = 1.0
    eta: float = 0.0
    alpha: float = 2.0
    beta: float = 1.0
    g1: GFunction = field(default_factory=lambda: make_g("constant_one"))
    g2: GFunction = field(default_factory=lambda: make_g("constant_one"))
    ic_name: str = "orszag_tang_2d"
    ic_params: dict = field(default_factory=dict)
    dt: float | None = 1e-3
    cfl: float = 0.5
    t_end: float = 1.0
    max_steps: int = 1_000_000
    cadence: int = 1
    gamma: float | None = None
    s_order: float | None = None
    out_series: str | None = None
    out_snapshots: str | None = None
    snapshot_times: tuple[float, ...] = ()
    energy_tol: float | None = None

    def __post_init__(self):
        if self.gamma is None:
            self.gamma = (3.0 + self.dim) / 2.0
        if self.s_order is None:
            self.s_order = 3.0 + self.dim
        lo, hi = 1.0 + self.dim / 2.0, 2.0 + self.dim / 2.0
        if not lo < self.gamma < hi:
            raise ConfigError(f"gamma must lie in ({lo}, {hi}), got {self.gamma}")

    def system_params(self) -> SystemParams:
        return SystemParams(
            diss_u=DissipationSpec(self.nu, self.alpha, self.g1),
            diss_b=DissipationSpec(self.eta, self.beta, self.g2),
            dim=self.dim,
        )

    def stepper_config(self) -> StepperConfig:
        return StepperConfig(t_end=self.t_end, dt=self.dt, cfl_number=self.cfl,
                             max_steps=self.max_steps)


def finite_float(value: str | float) -> float:
    """float(value), rejecting nan and inf with a ConfigError."""
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"value must be a finite number, got {str(value).strip()!r}")
    return number


def _dt(value: str) -> float | None:
    return None if value == "adaptive" else finite_float(value)


def _floats(value: str) -> tuple[float, ...]:
    return tuple(finite_float(v) for v in value.split(",") if v.strip())


def _ints(value: str) -> tuple[int, ...]:
    return tuple(int(v) for v in value.split(","))


# key -> (section, field, cast); "run" fields are RunConfig arguments, "ic"
# fields go to ic_params, "g1"/"g2" fields to make_g
_CONFIG_KEYS = {
    "grid.n": ("run", "dim", int),
    "grid.points": ("run", "points", int),
    "params.nu": ("run", "nu", finite_float),
    "params.eta": ("run", "eta", finite_float),
    "params.alpha": ("run", "alpha", finite_float),
    "params.beta": ("run", "beta", finite_float),
    **{f"params.{g}.kind": (g, "kind", str) for g in ("g1", "g2")},
    **{f"params.{g}.{p}": (g, p, finite_float)
       for g in ("g1", "g2") for p in ("c", "epsilon", "period", "height")},
    "ic.name": ("run", "ic_name", str),
    "ic.seed": ("ic", "seed", int),
    "ic.band": ("ic", "band", finite_float),
    "ic.amplitude": ("ic", "amplitude", finite_float),
    "ic.k": ("ic", "k", _ints),
    "stepper.dt": ("run", "dt", _dt),
    "stepper.cfl": ("run", "cfl", finite_float),
    "stepper.t_end": ("run", "t_end", finite_float),
    "stepper.max_steps": ("run", "max_steps", int),
    "diag.cadence": ("run", "cadence", int),
    "diag.gamma": ("run", "gamma", finite_float),
    "diag.s": ("run", "s_order", finite_float),
    "out.series": ("run", "out_series", str),
    "out.snapshots": ("run", "out_snapshots", str),
    "out.snapshot_times": ("run", "snapshot_times", _floats),
    "check.energy_tol": ("run", "energy_tol", finite_float),
}


def read_config(path: str) -> dict[str, str]:
    """Read the flat key = value run-configuration format into its raw mapping."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def parse_config(path: str) -> RunConfig:
    """The run configuration of a config file."""
    return config_from_mapping(read_config(path))


def config_from_mapping(raw: dict[str, str]) -> RunConfig:
    """Cast and validate a raw key -> value mapping; every command builds its RunConfig here."""
    sections: dict[str, dict] = {"run": {}, "ic": {},
                                 "g1": {"kind": "constant_one"}, "g2": {"kind": "constant_one"}}
    try:
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            section, name, cast = _CONFIG_KEYS[key]
            sections[section][name] = cast(value)
        kwargs = sections["run"]
        for gname in ("g1", "g2"):
            spec = sections[gname]
            kwargs[gname] = make_g(spec.pop("kind"), **spec)
        return RunConfig(ic_params=sections["ic"], **kwargs)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# series I/O
# ---------------------------------------------------------------------------

def write_series(path: str, records: list[DiagnosticRecord]) -> None:
    lines = [",".join(RECORD_FIELDS)]
    for r in records:
        lines.append(",".join(f"{value:.17e}" for value in r))
    sp.write_in_place(path, [("\n".join(lines) + "\n").encode()])


def read_series(path: str) -> np.ndarray:
    """The (records, 16) float64 table of a series file; ValueError for a missing
    header, no records, a row without 16 fields or a cell that is not a number."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].split(",") != RECORD_FIELDS:
        raise ValueError(f"missing or unexpected series header in {path}")
    if len(lines) < 2:
        raise ValueError(f"series {path} has no records")
    rows = [line.split(",") for line in lines[1:]]
    ragged = next((row for row in rows if len(row) != len(RECORD_FIELDS)), None)
    if ragged is not None:
        raise ValueError(f"series row in {path} has {len(ragged)} fields")
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

STATUS_OK = "ok"
STATUS_CONFIG_ERROR = "config_error"
STATUS_BLOWUP = "blowup"
STATUS_CHECK_FAILED = "check_failed"

EXIT_CODES = {STATUS_OK: 0, STATUS_CONFIG_ERROR: 2, STATUS_BLOWUP: 3, STATUS_CHECK_FAILED: 4}


@dataclass
class ExperimentResult:
    status: str
    records: list[DiagnosticRecord]
    summary: dict
    final_state: SolutionPair | None = None
    message: str = ""

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]


class _SnapshotObserver:
    def __init__(self, prefix: str, times: tuple[float, ...]):
        self.prefix = prefix
        self.pending = sorted(times)
        self.written: list[str] = []

    def __call__(self, step_index: int, state: SolutionPair) -> None:
        if self.pending and self.pending[0] <= state.time + 1e-12:
            # one file for every time now due, named by the time of the state it holds, to
            # six decimals or as many more as tell it from a file written before
            self.pending = [t for t in self.pending if t > state.time + 1e-12]
            digits = 6
            while (path := f"{self.prefix}_t{state.time:.{digits}f}.lmhd") in self.written:
                digits += 1
            sp.write_band_snapshot(path, state.band, state.grid)
            self.written.append(path)


def prepare_experiment(config: RunConfig) -> tuple[SystemParams, SolutionPair, StepperConfig]:
    """What a run of `config` needs, built before anything runs or is written;
    ConfigError for every value that `run_experiment` rejects, a grid too
    large to allocate among them."""
    try:
        grid = sp.make_grid(config.dim, config.points)
        params = config.system_params()
        state0 = initial_condition(config.ic_name, config.ic_params, grid)
        stepper = config.stepper_config()
        if config.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        for path in (config.out_series, config.out_snapshots):
            if path and not Path(path).parent.is_dir():
                raise ConfigError(f"output directory of {path!r} does not exist")
        if config.out_series and Path(config.out_series).is_dir():
            raise ConfigError(f"out.series {config.out_series!r} is a directory, not a file path")
        if bool(config.out_snapshots) != bool(config.snapshot_times):
            raise ConfigError("out.snapshots and out.snapshot_times must be set together")
        if any(not 0.0 <= t <= stepper.t_end for t in config.snapshot_times):
            raise ConfigError(f"snapshot times must lie in [0, t_end = {stepper.t_end}]")
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ConfigError(str(exc)) from exc
    return params, state0, stepper


def run_experiment(config: RunConfig,
                   prepared: tuple[SystemParams, SolutionPair, StepperConfig] | None = None
                   ) -> ExperimentResult:
    """Run one configured experiment, write artifacts, and report its records by
    `evaluate_checks`; ConfigError, before anything runs, from `prepare_experiment`.
    `prepared` is what `prepare_experiment(config)` returned, run in place of a new
    set-up."""
    params, state0, stepper = prepared or prepare_experiment(config)
    tracker = DiagnosticTracker(params, config.gamma, config.s_order, config.cadence)
    snapshots = (_SnapshotObserver(config.out_snapshots, config.snapshot_times)
                 if config.out_snapshots else None)
    steps_taken = 0

    def observer(step_index: int, state: SolutionPair) -> None:
        nonlocal steps_taken
        steps_taken = max(steps_taken, step_index)
        tracker(step_index, state)
        if snapshots is not None:
            snapshots(step_index, state)

    wall_start = time.perf_counter()
    records = tracker.records
    final_state, head, message = None, {}, []
    try:
        final_state = run(state0, params, stepper, observer=observer)
    except BlowupError as exc:
        # why the run stopped, for the summary file too
        head, message = {"blowup_time": exc.time, "blowup_step": exc.step}, [str(exc)]
    summary = {**head, "steps": steps_taken, "records": len(records),
               "wall_time_s": time.perf_counter() - wall_start}
    if final_state is not None:
        summary.update(t_final=final_state.time,
                       osgood_g1=osgood_classify(config.g1).classification)
    report, failures = evaluate_checks(records, config, params)
    summary.update(report)
    # <out.series>.summary.json equals `lmhd run` stdout less `status`
    if snapshots is not None:
        summary["snapshots"] = snapshots.written
    if config.out_series:
        write_series(config.out_series, records)
        sp.write_in_place(config.out_series + ".summary.json",
                          [(json.dumps(summary, indent=2) + "\n").encode()])
    status = (STATUS_BLOWUP if final_state is None
              else STATUS_CHECK_FAILED if failures else STATUS_OK)
    return ExperimentResult(status, records, summary, final_state, "; ".join(message + failures))

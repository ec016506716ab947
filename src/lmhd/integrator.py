"""Integrating-factor RK4 time stepping.

The diagonal dissipation is exponentiated exactly per mode; classical RK4
handles the (non-stiff) advection.  With the nonlinearity disabled the
scheme reproduces exp(-coeff * m(|k|)^2 * t) decay exactly per step, so the
step size never restricts the dissipative part.

A step works on the retained band of the 2/3 rule (`spectral.to_band`):
states inside the band stay there, so `run` holds only the band between
steps and hands the observer, and returns, `SolutionPair.from_band` pairs,
whose full spectrum is built only if something reads it.  The decay factors
are exponentiated once per distinct step size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral as sp
from .dynamics import SolutionPair, SystemParams, state_band, tendency
from .multiplier import band_symbol


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping controls; dt=None selects CFL-adaptive step sizes."""

    t_end: float
    dt: float | None = None
    cfl_number: float = 0.5
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.t_end < 0.0:
            raise ValueError("t_end must be >= 0")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must be in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


class BlowupError(RuntimeError):
    """Raised when a coefficient becomes NaN/Inf during time stepping."""

    def __init__(self, time: float, step: int):
        super().__init__(f"non-finite coefficients at t={time} (step {step})")
        self.time = time
        self.step = step


def _decay_rates(params: SystemParams, grid: sp.Grid) -> np.ndarray:
    """coefficient * m(|k|)^2 for both fields on the band, stacked like the state."""
    return np.stack([spec.coefficient * band_symbol(spec, grid) ** 2
                     for spec in (params.diss_u, params.diss_b)])[:, None]


def _advance(y: np.ndarray, grid: sp.Grid, dt: float, e_half: np.ndarray, e_full: np.ndarray,
             nonlinear: Callable | None) -> np.ndarray:
    """The band y one IF-RK4 step later, given the decay factors over dt/2 and dt."""
    if nonlinear is None:
        return e_full * y
    n1 = nonlinear(y, grid)
    n2 = nonlinear(e_half * (y + (dt / 2.0) * n1), grid)
    n3 = nonlinear(e_half * y + (dt / 2.0) * n2, grid)
    n4 = nonlinear(e_full * y + dt * (e_half * n3), grid)
    return e_full * y + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def step(state: SolutionPair, params: SystemParams, dt: float,
         nonlinear: Callable | None = tendency) -> SolutionPair:
    """Advance one integrating-factor RK4 step of size dt.

    The step runs on the band of `state.data`: `nonlinear(band, grid)` returns
    the nonlinear tendency of a band state array as a new array of its shape,
    never writing to `band`.  None means no nonlinearity: the step is the
    exact linear decay.  ValueError for a state with a nonzero coefficient
    outside the band.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    grid = state.grid
    e_half = np.exp(-_decay_rates(params, grid) * (dt / 2.0))
    y = _advance(state_band(state), grid, dt, e_half, e_half * e_half, nonlinear)
    return SolutionPair.from_band(grid, y, state.time + dt)


def run(state0: SolutionPair, params: SystemParams, config: StepperConfig,
        observer: Callable[[int, SolutionPair], None] | None = None,
        nonlinear: Callable | None = tendency) -> SolutionPair:
    """Step from state0 until t_end or max_steps, invoking observer each step.

    The steps run on the band of the state, with the hook
    `nonlinear(band, grid) -> band array` of `step` (None: exact linear decay
    only); ValueError for a state0 outside the band.  The observer receives
    (step_index, state) with index 0 for the initial state; every state, and
    the returned one, is a `SolutionPair.from_band` pair, whose full-spectrum
    `data` is built on first access.  It must not mutate the state: `state.u`,
    `state.b` and their components are views of `state.data`.  state0 itself
    is never written.  Identical inputs give bit-identical trajectories.
    """
    grid = state0.grid
    y = state_band(state0)
    state = SolutionPair.from_band(grid, y, state0.time)
    if observer is not None:
        observer(0, state)
    rates = _decay_rates(params, grid)
    factors_dt = None
    t, n = state0.time, 0
    kmax = grid.points / 2.0
    while t < config.t_end - 1e-14 and n < config.max_steps:
        if config.dt is None:
            vmax = float(np.max(np.abs(sp.band_to_physical(y, grid))))
            dt = config.cfl_number / (vmax * kmax) if vmax > 0.0 else config.t_end - t
            dt = min(dt, config.t_end - t)
        else:
            dt = min(config.dt, config.t_end - t)
        if dt != factors_dt:
            e_half = np.exp(-rates * (dt / 2.0))
            e_full, factors_dt = e_half * e_half, dt
        y = _advance(y, grid, dt, e_half, e_full, nonlinear)
        t, n = t + dt, n + 1
        if not np.all(np.isfinite(y)):
            raise BlowupError(t, n)
        state = SolutionPair.from_band(grid, y, t)
        if observer is not None:
            observer(n, state)
    return state

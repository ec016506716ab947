"""Integrating-factor RK4 time stepping.

The diagonal dissipation is exponentiated exactly per mode; classical RK4
handles the (non-stiff) advection.  With the nonlinearity disabled the
scheme reproduces exp(-coeff * m(|k|)^2 * t) decay exactly per step, so the
step size never restricts the dissipative part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral as sp
from .dynamics import SolutionPair, SystemParams, tendency
from .multiplier import symbol_on_grid


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
    """coefficient * m(|k|)^2 for both fields, stacked like the state."""
    rate_u = params.diss_u.coefficient * symbol_on_grid(params.diss_u, grid) ** 2
    rate_b = params.diss_b.coefficient * symbol_on_grid(params.diss_b, grid) ** 2
    return np.stack([rate_u, rate_b])[:, None]


def step(state: SolutionPair, params: SystemParams, dt: float,
         nonlinear: Callable | None = tendency) -> SolutionPair:
    """Advance one integrating-factor RK4 step of size dt.

    `nonlinear(data, grid)` returns the nonlinear tendency of the state array
    as a new array of its shape, never writing to `data`; None means no
    nonlinearity, so the step is the exact linear decay.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    grid = state.grid
    rates = _decay_rates(params, grid)
    e_half = np.exp(-rates * (dt / 2.0))
    e_full = e_half * e_half

    y = state.data
    if nonlinear is None:
        return SolutionPair.from_array(grid, e_full * y, state.time + dt)
    n1 = nonlinear(y, grid)
    n2 = nonlinear(e_half * (y + (dt / 2.0) * n1), grid)
    n3 = nonlinear(e_half * y + (dt / 2.0) * n2, grid)
    n4 = nonlinear(e_full * y + dt * (e_half * n3), grid)

    y_new = e_full * y + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
    return SolutionPair.from_array(grid, y_new, state.time + dt)


def run(state0: SolutionPair, params: SystemParams, config: StepperConfig,
        observer: Callable[[int, SolutionPair], None] | None = None,
        nonlinear: Callable | None = tendency) -> SolutionPair:
    """Step from state0 until t_end or max_steps, invoking observer each step.

    Every `step` gets the hook `nonlinear(data, grid) -> array` (None: linear
    decay only).  The observer receives (step_index, state) with index 0 for
    the initial state; it must not mutate the state: `state.u`, `state.b` and
    their components are views of `state.data`, which the next step reads.
    state0 itself is never written.  Identical inputs give bit-identical
    trajectories.
    """
    state = state0.copy()
    if observer is not None:
        observer(0, state)
    n = 0
    kmax = state.grid.points / 2.0
    while state.time < config.t_end - 1e-14 and n < config.max_steps:
        if config.dt is None:
            vmax = max(sp.vector_linf_norm(state.u), sp.vector_linf_norm(state.b))
            dt = config.cfl_number / (vmax * kmax) if vmax > 0.0 else config.t_end - state.time
            dt = min(dt, config.t_end - state.time)
        else:
            dt = min(config.dt, config.t_end - state.time)
        state = step(state, params, dt, nonlinear=nonlinear)
        n += 1
        if not np.all(np.isfinite(state.data)):
            raise BlowupError(state.time, n)
        if observer is not None:
            observer(n, state)
    return state

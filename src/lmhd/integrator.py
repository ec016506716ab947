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
from .dynamics import SolutionPair, SystemParams, nonlinear_tendency
from .multiplier import symbol_on_grid
from .spectral import SpectralField, VectorField


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


def _stack(state: SolutionPair) -> np.ndarray:
    grid = state.grid
    arrays = [c.coeffs for c in state.u.components] + [c.coeffs for c in state.b.components]
    return np.stack(arrays).reshape((2, grid.dim) + grid.shape)


def _unstack(data: np.ndarray, grid: sp.Grid, time: float) -> SolutionPair:
    u = VectorField(tuple(SpectralField(grid, data[0, j].copy()) for j in range(grid.dim)))
    b = VectorField(tuple(SpectralField(grid, data[1, j].copy()) for j in range(grid.dim)))
    return SolutionPair(u, b, time)


def _decay_rates(params: SystemParams, grid: sp.Grid) -> np.ndarray:
    """coefficient * m(|k|)^2 for both fields, stacked like the state."""
    rate_u = params.diss_u.coefficient * symbol_on_grid(params.diss_u, grid) ** 2
    rate_b = params.diss_b.coefficient * symbol_on_grid(params.diss_b, grid) ** 2
    return np.stack([rate_u, rate_b])[:, None]


def _tendency_stack(data: np.ndarray, grid: sp.Grid, time: float,
                    nonlinear: Callable | None) -> np.ndarray:
    if nonlinear is None:
        return np.zeros_like(data)
    du, db = nonlinear(_unstack(data, grid, time))
    return _stack(SolutionPair(du, db, time))


def step(state: SolutionPair, params: SystemParams, dt: float,
         nonlinear: Callable | None = nonlinear_tendency) -> SolutionPair:
    """Advance one integrating-factor RK4 step of size dt."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    grid = state.grid
    rates = _decay_rates(params, grid)
    e_half = np.exp(-rates * (dt / 2.0))
    e_full = e_half * e_half

    y = _stack(state)
    t = state.time
    n1 = _tendency_stack(y, grid, t, nonlinear)
    n2 = _tendency_stack(e_half * (y + (dt / 2.0) * n1), grid, t + dt / 2.0, nonlinear)
    n3 = _tendency_stack(e_half * y + (dt / 2.0) * n2, grid, t + dt / 2.0, nonlinear)
    n4 = _tendency_stack(e_full * y + dt * (e_half * n3), grid, t + dt, nonlinear)

    y_new = e_full * y + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
    return _unstack(y_new, grid, t + dt)


def run(state0: SolutionPair, params: SystemParams, config: StepperConfig,
        observer: Callable[[int, SolutionPair], None] | None = None,
        nonlinear: Callable | None = nonlinear_tendency) -> SolutionPair:
    """Step from state0 until t_end or max_steps, invoking observer each step.

    The observer receives (step_index, state) with index 0 for the initial
    state; it must not mutate the state.  Identical inputs give bit-identical
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
        for field in (state.u, state.b):
            for comp in field.components:
                if not np.all(np.isfinite(comp.coeffs.view(np.float64))):
                    raise BlowupError(state.time, n)
        if observer is not None:
            observer(n, state)
    return state

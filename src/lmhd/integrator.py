"""Integrating-factor RK4 time stepping.

The diagonal dissipation is exponentiated exactly per mode; classical RK4
handles the (non-stiff) advection.  With the nonlinearity disabled the
scheme reproduces exp(-coeff * m(|k|)^2 * t) decay exactly per step, so the
step size never restricts the dissipative part.

A step works on the retained band of the 2/3 rule (`spectral.to_band`):
states inside the band stay there, so `run` holds only the band between
steps and hands the observer, and returns, `SolutionPair.from_band` pairs,
whose full spectrum is built only if something reads it.  The decay factors
are exponentiated once per distinct step size, and a step allocates only the
tendencies and the new band: its stage states live in arrays that `run`
allocates once.
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


def _advance(y: np.ndarray, grid: sp.Grid, dt: float, factors: tuple[np.ndarray, ...],
             nonlinear: Callable | None, stages: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The band y one IF-RK4 step later, as a new array, given the decay factors
    (e_half, e_full, 2 e_half) over dt/2 and dt and two scratch band arrays.

    n1..n4 are the tendencies at y, e_half (y + dt/2 n1), e_half y + dt/2 n2 and
    e_full y + dt (e_half n3), and the step is e_full y + (dt/6)(e_full n1 +
    (2 e_half)(n2 + n3) + n4).  Every product and sum is taken in that order, so
    the result is bit for bit the textbook expression's, but in place: the
    stage states go to the scratch arrays and each tendency, which the hook
    returns new, is overwritten once it has been read.
    """
    e_half, e_full, e_half2 = factors
    if nonlinear is None:
        return e_full * y
    stage, scratch = stages
    n1 = nonlinear(y, grid)
    np.multiply(dt / 2.0, n1, out=stage)
    stage += y
    stage *= e_half
    n2 = nonlinear(stage, grid)                                  # at e_half (y + dt/2 n1)
    np.multiply(e_half, y, out=stage)
    stage += np.multiply(dt / 2.0, n2, out=scratch)
    n3 = nonlinear(stage, grid)                                  # at e_half y + dt/2 n2
    n2 += n3
    n3 *= e_half
    n3 *= dt
    np.multiply(e_full, y, out=stage)
    stage += n3
    n4 = nonlinear(stage, grid)                                  # at e_full y + dt e_half n3
    n2 *= e_half2
    n1 *= e_full
    n1 += n2
    n1 += n4
    n1 *= dt / 6.0
    # made last, above the four tendencies freed on return, so that freeing them does
    # not leave the heap top free to be trimmed and faulted in again by the next step
    out = e_full * y
    out += n1
    return out


def run(state0: SolutionPair, params: SystemParams, config: StepperConfig,
        observer: Callable[[int, SolutionPair], None] | None = None,
        nonlinear: Callable | None = tendency) -> SolutionPair:
    """Step from state0 until t_end or max_steps, invoking observer each step.

    The integrating-factor RK4 steps run on the band of the state:
    `nonlinear(band, grid)` returns the nonlinear tendency of a band state
    array as a new array of its shape, never writing to `band`; None means
    no nonlinearity, so a step is the exact linear decay.  ValueError for a
    state0 with a nonzero coefficient outside the band.  The observer receives
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
    # the working arrays of every step of this run
    stages = np.empty_like(y), np.empty_like(y)
    fields = np.empty((2, grid.dim) + grid.shape) if config.dt is None else None
    while t < config.t_end - 1e-14 and n < config.max_steps:
        if config.dt is None:
            sp.band_to_physical(y, grid, out=fields)
            vmax = float(np.max(np.abs(fields, out=fields)))
            dt = config.cfl_number / (vmax * kmax) if vmax > 0.0 else config.t_end - t
            dt = min(dt, config.t_end - t)
        else:
            dt = min(config.dt, config.t_end - t)
        if dt != factors_dt:
            e_half = np.exp(-rates * (dt / 2.0))
            factors, factors_dt = (e_half, e_half * e_half, 2.0 * e_half), dt
        y = _advance(y, grid, dt, factors, nonlinear, stages)
        t, n = t + dt, n + 1
        if not np.all(np.isfinite(y)):
            raise BlowupError(t, n)
        state = SolutionPair.from_band(grid, y, t)
        if observer is not None:
            observer(n, state)
    return state

"""Right-hand side of the coupled velocity/magnetic system in spectral form.

The advective nonlinearities are evaluated pseudo-spectrally (pointwise
products in physical space, dealiased by the 2/3 rule before re-projection),
the pressure gradient is eliminated exactly by Leray projection, and the
mean mode of both fields is held at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .multiplier import DissipationSpec, apply_L, apply_dissipation
from .spectral import SpectralField, VectorField


@dataclass
class SolutionPair:
    """Velocity and magnetic fields at one instant."""

    u: VectorField
    b: VectorField
    time: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.b.grid:
            raise ValueError("velocity and magnetic fields must share one grid")
        if self.time < 0.0:
            raise ValueError("time must be >= 0")

    @property
    def grid(self) -> sp.Grid:
        return self.u.grid

    def copy(self) -> "SolutionPair":
        return SolutionPair(self.u.copy(), self.b.copy(), self.time)


@dataclass(frozen=True)
class SystemParams:
    """Dissipation specs for both fields plus the spatial dimension."""

    diss_u: DissipationSpec
    diss_b: DissipationSpec
    dim: int

    def theorem_regime(self) -> bool:
        """Positive viscosity, zero diffusivity, exponent >= 1 + dim/2."""
        return (
            self.diss_u.coefficient > 0.0
            and self.diss_b.coefficient == 0.0
            and self.diss_u.exponent >= 1.0 + self.dim / 2.0
        )


def _physical_components(v: VectorField) -> list[np.ndarray]:
    return [sp.to_physical(c) for c in v.components]


def _gradient_table(v: VectorField) -> list[list[np.ndarray]]:
    """grads[i][j] = d v_i / d x_j in physical space."""
    return [_physical_components(sp.gradient(comp)) for comp in v.components]


def _advect(carrier_phys: list[np.ndarray], grads: list[list[np.ndarray]], grid: sp.Grid) -> list[np.ndarray]:
    """(carrier . grad) field, in physical space, one array per component."""
    out = []
    for i in range(grid.dim):
        acc = carrier_phys[0] * grads[i][0]
        for j in range(1, grid.dim):
            acc += carrier_phys[j] * grads[i][j]
        out.append(acc)
    return out


def _spectral_dealiased(phys: list[np.ndarray], grid: sp.Grid) -> VectorField:
    comps = []
    for arr in phys:
        coeffs = np.fft.fftn(arr) / grid.total_points
        coeffs *= grid.dealias_mask
        coeffs[(0,) * grid.dim] = 0.0  # mean mode held at zero
        comps.append(SpectralField(grid, coeffs))
    return VectorField(tuple(comps))


def nonlinear_tendency(state: SolutionPair) -> tuple[VectorField, VectorField]:
    """Advection/stretching terms: du = P(-(u.grad)u + (b.grad)b) and
    db = -(u.grad)b + (b.grad)u, the latter re-projected defensively."""
    grid = state.grid
    if grid.points < 8:
        raise ValueError("resolution too small to dealias")

    # overflow here is a blow-up in progress; the stepper detects it after
    # the step rather than warning mid-evaluation
    with np.errstate(over="ignore", invalid="ignore"):
        u_phys = _physical_components(state.u)
        b_phys = _physical_components(state.b)
        grad_u = _gradient_table(state.u)
        grad_b = _gradient_table(state.b)

        u_adv_u = _advect(u_phys, grad_u, grid)
        b_adv_b = _advect(b_phys, grad_b, grid)
        u_adv_b = _advect(u_phys, grad_b, grid)
        b_adv_u = _advect(b_phys, grad_u, grid)

        du = _spectral_dealiased(
            [bb - uu for uu, bb in zip(u_adv_u, b_adv_b)], grid
        )
        db = _spectral_dealiased(
            [bu - ub for ub, bu in zip(u_adv_b, b_adv_u)], grid
        )
        return sp.leray_project(du), sp.leray_project(db)


def full_tendency(state: SolutionPair, params: SystemParams) -> tuple[VectorField, VectorField]:
    """Nonlinear tendency minus the dissipation operators."""
    du, db = nonlinear_tendency(state)
    return (
        du - apply_dissipation(state.u, params.diss_u),
        db - apply_dissipation(state.b, params.diss_b),
    )


def energy_flux_identity(state: SolutionPair, params: SystemParams) -> tuple[float, float]:
    """Nonlinear energy flux (zero by skew-symmetry) and dissipation rate.

    Returns (<du_nl, u> + <db_nl, b>,
             nu*||L1 u||_L2^2 + eta*||L2 b||_L2^2).
    """
    du, db = nonlinear_tendency(state)
    flux = sp.vector_l2_inner(du, state.u) + sp.vector_l2_inner(db, state.b)
    rate = (
        params.diss_u.coefficient * sp.vector_l2_norm(apply_L(state.u, params.diss_u)) ** 2
        + params.diss_b.coefficient * sp.vector_l2_norm(apply_L(state.b, params.diss_b)) ** 2
    )
    return flux, rate

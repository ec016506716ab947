"""Right-hand side of the coupled velocity/magnetic system in spectral form.

The nonlinearities are evaluated pseudo-spectrally in divergence form,
du = P div(b (x) b - u (x) u) and db = div(u (x) b - b (x) u) with
(x) the outer product: the pointwise products are formed in physical
space, dealiased by the 2/3 rule and differentiated spectrally.  For
solenoidal fields inside the 2/3 band this equals the advective form
-(u.grad)u + (b.grad)b, -(u.grad)b + (b.grad)u exactly: the products carry
no aliasing into the retained band, and d_j(v_j w_i) = (v.grad)w_i + w_i div v
with div v = 0.  The pressure gradient is eliminated exactly by Leray
projection, db is solenoidal by antisymmetry, and the mean mode of both
tendencies is zero because i*k vanishes at k = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .multiplier import DissipationSpec, apply_L
from .spectral import VectorField


class SolutionPair:
    """Velocity and magnetic fields at one instant, stored as one array.

    `data` has shape (2, dim, *grid.shape); `u` and `b` are VectorField views
    of data[0] and data[1], so writing to them writes to the pair.  The
    constructor copies u and b into a new array; `from_array` wraps one.
    """

    def __init__(self, u: VectorField, b: VectorField, time: float = 0.0):
        if u.grid != b.grid:
            raise ValueError("velocity and magnetic fields must share one grid")
        self._wrap(u.grid, np.stack([u.coeffs, b.coeffs]), time)

    @classmethod
    def from_array(cls, grid: sp.Grid, data: np.ndarray, time: float) -> "SolutionPair":
        """The pair stored in `data`, shape (2, dim, *grid.shape) (no copy)."""
        if data.shape != (2, grid.dim) + grid.shape:
            raise ValueError(f"array shape {data.shape} does not match a pair on {grid}")
        pair = cls.__new__(cls)
        pair._wrap(grid, data, time)
        return pair

    def _wrap(self, grid: sp.Grid, data: np.ndarray, time: float) -> None:
        if time < 0.0:
            raise ValueError("time must be >= 0")
        self.grid, self.data, self.time = grid, data, time

    @property
    def u(self) -> VectorField:
        return VectorField.from_array(self.grid, self.data[0])

    @property
    def b(self) -> VectorField:
        return VectorField.from_array(self.grid, self.data[1])

    def copy(self) -> "SolutionPair":
        return SolutionPair.from_array(self.grid, self.data.copy(), self.time)


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


def tendency(y: np.ndarray, grid: sp.Grid) -> np.ndarray:
    """Nonlinear tendency of the stacked state y = (u, b), shape (2, dim, *grid.shape).

    du_i = P d_j(b_j b_i - u_j u_i) and db_i = d_j(b_j u_i - u_j b_i); only the
    dim(dim+1)/2 symmetric and dim(dim-1)/2 antisymmetric products are
    transformed, and db is solenoidal by antisymmetry.  This is the stepper's
    hot path; `nonlinear_tendency` wraps it for a SolutionPair.
    """
    sym = list(zip(*np.triu_indices(grid.dim)))
    anti = list(zip(*np.triu_indices(grid.dim, 1)))
    k = grid.kmesh
    # overflow here is a blow-up in progress; the stepper detects it after
    # the step rather than warning mid-evaluation
    with np.errstate(over="ignore", invalid="ignore"):
        u, b = sp.to_physical_array(y, grid)
        products = [b[i] * b[j] - u[i] * u[j] for i, j in sym]
        products += [b[j] * u[i] - u[j] * b[i] for i, j in anti]
        spec = sp.to_spectral_array(np.stack(products), grid)
        spec *= grid.dealias_mask

        out = np.zeros_like(y)
        for (i, j), s in zip(sym, spec):
            out[0, i] += k[j] * s
            if i != j:
                out[0, j] += k[i] * s
        for (i, j), a in zip(anti, spec[len(sym):]):
            out[1, i] += k[j] * a
            out[1, j] -= k[i] * a
        out *= 1j
        out[0] = sp.leray_array(out[0], grid)
    return out


def nonlinear_tendency(state: SolutionPair) -> tuple[VectorField, VectorField]:
    """Advection/stretching terms du = P(-(u.grad)u + (b.grad)b) and
    db = -(u.grad)b + (b.grad)u, evaluated in divergence form, as views of
    one `tendency` array."""
    out = tendency(state.data, state.grid)
    return VectorField.from_array(state.grid, out[0]), VectorField.from_array(state.grid, out[1])


def energy_flux_identity(state: SolutionPair, params: SystemParams) -> tuple[float, float]:
    """Nonlinear energy flux (zero by skew-symmetry) and dissipation rate.

    Returns (<du_nl, u> + <db_nl, b>,
             nu*||L1 u||_L2^2 + eta*||L2 b||_L2^2).
    """
    du, db = nonlinear_tendency(state)
    flux = sp.l2_inner(du, state.u) + sp.l2_inner(db, state.b)
    rate = (
        params.diss_u.coefficient * sp.vector_l2_norm(apply_L(state.u, params.diss_u)) ** 2
        + params.diss_b.coefficient * sp.vector_l2_norm(apply_L(state.b, params.diss_b)) ** 2
    )
    return flux, rate

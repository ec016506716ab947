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

`tendency` works on the retained band (`spectral.to_band`): the 2/3 rule
zeroes every other mode of a tendency, so a state that starts inside the band
stays there, and the pruned real transforms `spectral.band_to_physical` and
`spectral.physical_to_band` skip the zeros.  `SolutionPair.from_band` keeps
a band and expands it, the one place that does, when `data` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import spectral as sp
from .multiplier import DissipationSpec, apply_L
from .spectral import VectorField


class SolutionPair:
    """Velocity and magnetic fields at one instant, stored as one array.

    `data` has shape (2, dim, *grid.shape); `u` and `b` are VectorField views
    of data[0] and data[1], so writing to them writes to the pair.  The
    constructor copies u and b into a new array; `from_array` wraps one, and
    `from_band` wraps a band and builds `data` from it on first access.
    """

    def __init__(self, u: VectorField, b: VectorField, time: float = 0.0):
        if u.grid != b.grid:
            raise ValueError("velocity and magnetic fields must share one grid")
        self._wrap(u.grid, np.stack([u.coeffs, b.coeffs]), None, time)

    @classmethod
    def from_array(cls, grid: sp.Grid, data: np.ndarray, time: float) -> "SolutionPair":
        """The pair stored in `data`, shape (2, dim, *grid.shape) (no copy)."""
        if data.shape != (2, grid.dim) + grid.shape:
            raise ValueError(f"array shape {data.shape} does not match a pair on {grid}")
        return cls.__new__(cls)._wrap(grid, data, None, time)

    @classmethod
    def from_band(cls, grid: sp.Grid, band: np.ndarray, time: float) -> "SolutionPair":
        """The pair whose band is `band`, shape (2, dim, *grid.band_shape) (no copy)."""
        if band.shape != (2, grid.dim) + grid.band_shape:
            raise ValueError(f"array shape {band.shape} does not match a band pair on {grid}")
        return cls.__new__(cls)._wrap(grid, None, band, time)

    def _wrap(self, grid: sp.Grid, data, band, time: float) -> "SolutionPair":
        if time < 0.0:
            raise ValueError("time must be >= 0")
        self.grid, self._data, self._band, self.time = grid, data, band, time
        return self

    @property
    def data(self) -> np.ndarray:
        # built once, and the band is dropped, so a write through data leaves no stale band
        if self._data is None:
            self._data = sp.from_half(sp.from_band(self._band, self.grid), self.grid)
            self._band = None
        return self._data

    @property
    def u(self) -> VectorField:
        return VectorField.from_array(self.grid, self.data[0])

    @property
    def b(self) -> VectorField:
        return VectorField.from_array(self.grid, self.data[1])


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


# (i, j) index pairs of the symmetric (i <= j) and antisymmetric (i < j) products, per dim
_PRODUCT_PAIRS = {dim: (tuple(combinations_with_replacement(range(dim), 2)),
                        tuple(combinations(range(dim), 2))) for dim in (2, 3)}


def tendency(band: np.ndarray, grid: sp.Grid) -> np.ndarray:
    """Nonlinear tendency of the stacked state (u, b) on the retained band.

    `band` is `sp.to_band` of a state array, shape (2, dim, *grid.band_shape),
    and so is the result.  du_i = P d_j(b_j b_i - u_j u_i) and
    db_i = d_j(b_j u_i - u_j b_i): one pruned inverse forms u and b, only the
    dim(dim+1)/2 symmetric and dim(dim-1)/2 antisymmetric products go through
    one pruned forward transform, whose band gather is the 2/3 dealiasing, and
    db is solenoidal by antisymmetry.  This is the stepper's hot path;
    `nonlinear_tendency` wraps it for a SolutionPair.
    """
    sym, anti = _PRODUCT_PAIRS[grid.dim]
    k = grid.band_kmesh
    # overflow here is a blow-up in progress; the stepper detects it after
    # the step rather than warning mid-evaluation
    with np.errstate(over="ignore", invalid="ignore"):
        u, b = sp.band_to_physical(band, grid)
        # filled in place: np.stack of the products costs about as much as the FFTs at 128^2
        products = np.empty((len(sym) + len(anti),) + grid.shape)
        for p, (i, j) in enumerate(sym):
            np.subtract(b[i] * b[j], u[i] * u[j], out=products[p])
        for p, (i, j) in enumerate(anti, len(sym)):
            np.subtract(b[j] * u[i], u[j] * b[i], out=products[p])
        spec = sp.physical_to_band(products, grid)

        out = np.zeros_like(band)
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


def state_band(state: SolutionPair) -> np.ndarray:
    """The stored band of a `from_band` pair, else `sp.to_band` of the state's array;
    ValueError if a coefficient outside the band is nonzero, since the band would drop it."""
    if state._band is not None:
        return state._band
    if np.any(state.data[..., ~state.grid.dealias_mask]):
        raise ValueError("state has nonzero coefficients outside the 2/3-rule band")
    return sp.to_band(state.data, state.grid)


def nonlinear_tendency(state: SolutionPair) -> tuple[VectorField, VectorField]:
    """Advection/stretching terms du = P(-(u.grad)u + (b.grad)b) and
    db = -(u.grad)b + (b.grad)u in divergence form: `tendency` of the state's
    band, as full-spectrum views.  ValueError for a state outside the band."""
    out = SolutionPair.from_band(state.grid, tendency(state_band(state), state.grid), state.time)
    return out.u, out.b


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

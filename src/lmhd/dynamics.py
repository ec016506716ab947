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
`spectral.physical_to_band` skip the zeros.  The divergence and the Leray
projection are a fixed linear map of the products' band spectra, so
`band_operator` builds it once per grid, at the grid's first tendency, and
`tendency` applies it as two contractions.  `SolutionPair.from_band` keeps
a band and expands it, the one place that does, when `data` is first read.

Only dim^2 - 1 products are transformed: the antisymmetric ones and the
symmetric stress S = b (x) b - u (x) u less its last diagonal entry times the
identity, S - S_dd I with d = dim - 1, whose last diagonal entry is zero.
This is exact for any state, solenoidal or not: div(S_dd I) = grad S_dd is a
gradient, which the Leray projection removes, as the pressure absorbs it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import spectral as sp
from .multiplier import DissipationSpec
from .spectral import VectorField


class SolutionPair:
    """Velocity and magnetic fields at one instant, stored as one array.

    `data` has shape (2, dim, *grid.shape); `u` and `b` are VectorField views
    of data[0] and data[1], so writing to them writes to the pair.  The
    constructor copies u and b into a new array; `from_band` wraps a band,
    as every initial state and every state of a run is, and builds `data`
    from it on first access.
    """

    def __init__(self, u: VectorField, b: VectorField, time: float = 0.0):
        if u.grid != b.grid:
            raise ValueError("velocity and magnetic fields must share one grid")
        self._wrap(u.grid, np.stack([u.coeffs, b.coeffs]), None, time)

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


# (i, j) index pairs of the transformed symmetric (i <= j, all but the last
# diagonal (d, d)) and antisymmetric (i < j) products, per dim
_PRODUCT_PAIRS = {dim: (tuple(combinations_with_replacement(range(dim), 2))[:-1],
                        tuple(combinations(range(dim), 2))) for dim in (2, 3)}


@functools.lru_cache(maxsize=8)
def band_operator(grid: sp.Grid) -> tuple[np.ndarray, np.ndarray]:
    """The linear map from the band spectra of the products to the band tendency.

    d_u, shape (dim, dim(dim+1)/2 - 1, *grid.band_shape), is the Leray
    projection of the stencil i k_j at component i and i k_i at component j of
    each symmetric product (i, j) but (d, d); d_b, shape (dim, dim(dim-1)/2,
    *grid.band_shape), is i k_j at component i and -i k_i at component j of
    each antisymmetric product.  Both are built at the first call for a grid,
    cached and shared, so read-only.
    """
    sym, anti = _PRODUCT_PAIRS[grid.dim]
    ik = 1j * grid.band_kmesh
    stencils = np.zeros((len(sym), grid.dim) + grid.band_shape, dtype=np.complex128)
    for p, (i, j) in enumerate(sym):
        stencils[p, i], stencils[p, j] = ik[j], ik[i]
    d_u = np.ascontiguousarray(np.swapaxes(sp.leray_array(stencils, grid), 0, 1))
    d_b = np.zeros((grid.dim, len(anti)) + grid.band_shape, dtype=np.complex128)
    for p, (i, j) in enumerate(anti):
        d_b[i, p], d_b[j, p] = ik[j], -ik[i]
    d_u.setflags(write=False)
    d_b.setflags(write=False)
    return d_u, d_b


@functools.lru_cache(maxsize=8)
def _tendency_buffers(grid: sp.Grid) -> tuple[np.ndarray, ...]:
    """The working arrays of `tendency` on one grid: the physical u and b, the
    products, S_dd, a product temporary, the products' band spectra and one
    operator-block temporary.  Built at the grid's first tendency and reused by
    every later one, so the hot path allocates only its result."""
    sym, anti = _PRODUCT_PAIRS[grid.dim]
    products = len(sym) + len(anti)
    return (np.empty((2, grid.dim) + grid.shape), np.empty((products,) + grid.shape),
            np.empty(grid.shape), np.empty(grid.shape),
            np.empty((products,) + grid.band_shape, dtype=np.complex128),
            np.empty((grid.dim,) + grid.band_shape, dtype=np.complex128))


def tendency(band: np.ndarray, grid: sp.Grid) -> np.ndarray:
    """Nonlinear tendency of the stacked state (u, b) on the retained band.

    `band` is `sp.to_band` of a state array, shape (2, dim, *grid.band_shape),
    and so is the result, a new array.  du_i = P d_j(b_j b_i - u_j u_i) and
    db_i = d_j(b_j u_i - u_j b_i): one pruned inverse forms u and b, one
    pruned forward transform, whose band gather is the 2/3 dealiasing, takes
    the dim^2 - 1 products (S - S_dd I but its zero (d, d) entry, and the
    antisymmetric ones; see the module docstring), and the divergence and the
    Leray projection are one contraction of their spectra with each block of
    the cached `band_operator`.  db is solenoidal by antisymmetry.  This is
    the stepper's hot path: every intermediate lives in the grid's
    `_tendency_buffers` and the transforms' buffers, which a thread stepping
    the same grid at the same time would share.  `nonlinear_tendency` wraps
    it for a SolutionPair.
    """
    sym, anti = _PRODUCT_PAIRS[grid.dim]
    d_u, d_b = band_operator(grid)
    fields, products, s_dd, tmp, spec, term = _tendency_buffers(grid)
    d = grid.dim - 1
    # overflow here is a blow-up in progress; the stepper detects it after
    # the step rather than warning mid-evaluation
    with np.errstate(over="ignore", invalid="ignore"):
        u, b = sp.band_to_physical(band, grid, out=fields)
        np.multiply(b[d], b[d], out=s_dd)
        s_dd -= np.multiply(u[d], u[d], out=tmp)
        for p, (i, j) in enumerate(sym):
            np.multiply(b[i], b[j], out=products[p])
            products[p] -= np.multiply(u[i], u[j], out=tmp)
            if i == j:
                products[p] -= s_dd
        for p, (i, j) in enumerate(anti, len(sym)):
            np.multiply(b[j], u[i], out=products[p])
            products[p] -= np.multiply(u[j], b[i], out=tmp)
        spec = sp.physical_to_band(products, grid, out=spec)

        # each block's sum over products, in product order, accumulated in place
        out = np.empty_like(band)
        for field, op, spectra in ((out[0], d_u, spec[:len(sym)]), (out[1], d_b, spec[len(sym):])):
            np.multiply(op[:, 0], spectra[0], out=field)
            for p in range(1, len(spectra)):
                field += np.multiply(op[:, p], spectra[p], out=term)
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


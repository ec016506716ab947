"""Dyadic frequency decomposition, Besov norms, and inequality ratios.

The dyadic cutoffs are built by telescoping a single smooth radial ramp
theta (identically 1 up to 3/2, identically 0 from 2, C-infinity between):

    psi_hat(r)   = theta(2 r)
    phi_hat_j(r) = theta(r / 2^j) - theta(r / 2^(j-1)),  j = 0 .. j_max

so psi_hat + sum_j phi_hat_j = theta(r / 2^j_max) telescopes bitwise to 1 at
every grid radius once 1.5 * 2^j_max reaches the largest wavenumber.  Block
j is supported in the open annulus 2^(j-1) < |k| < 2^(j+1).

The inequality helpers return measured left/right ratios; none of the
implied constants is asserted here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .spectral import SpectralField


def _smooth_ramp(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        lo = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        hi = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return lo / (lo + hi)


def _theta(r: np.ndarray) -> np.ndarray:
    """Smooth radial cutoff: 1 on [0, 3/2], 0 on [2, inf)."""
    return 1.0 - _smooth_ramp((np.asarray(r, dtype=np.float64) - 1.5) / 0.5)


@dataclass
class DyadicPartition:
    """Sampled dyadic cutoffs on one grid; block index -1 is the low-pass."""

    grid: sp.Grid
    j_max: int
    psi_hat: np.ndarray
    phi_hats: list[np.ndarray]

    @property
    def j_values(self) -> list[int]:
        return [-1] + list(range(self.j_max + 1))

    def profile(self, j: int) -> np.ndarray:
        return self.psi_hat if j == -1 else self.phi_hats[j]


def make_partition(grid: sp.Grid) -> DyadicPartition:
    """Build the partition up to the smallest j_max covering the grid."""
    j_max = int(np.ceil(np.log2(float(np.max(grid.kmag)) / 1.5)))
    r = grid.kmag
    thetas = {j: _theta(r / 2.0**j) for j in range(-1, j_max + 1)}
    psi_hat = thetas[-1]
    phi_hats = [thetas[j] - thetas[j - 1] for j in range(j_max + 1)]
    return DyadicPartition(grid, j_max, psi_hat, phi_hats)


def dyadic_blocks(f: SpectralField, part: DyadicPartition) -> list[SpectralField]:
    """Frequency-localized pieces; entry 0 is the j = -1 low-pass block."""
    if f.grid != part.grid:
        raise ValueError("partition grid does not match field grid")
    return [SpectralField(f.grid, f.coeffs * part.profile(j)) for j in part.j_values]


@dataclass(frozen=True)
class BesovIndex:
    s: float
    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if value not in (1, 2, np.inf):
                raise ValueError(f"unsupported {name}={value}; expected 1, 2 or inf")


def besov_norm(f: SpectralField, idx: BesovIndex, part: DyadicPartition) -> float:
    """(sum_j (2^(j s) ||block_j||_p)^q)^(1/q), sup over j when q = inf."""
    terms = [
        2.0 ** (j * idx.s) * sp.lp_norm(block, idx.p)
        for j, block in zip(part.j_values, dyadic_blocks(f, part))
    ]
    if idx.q == np.inf:
        return max(terms)
    return float(np.sum(np.asarray(terms) ** idx.q) ** (1.0 / idx.q))


# ---------------------------------------------------------------------------
# Bernstein ratio
# ---------------------------------------------------------------------------

def annulus_mask(grid: sp.Grid, j: int) -> np.ndarray:
    """Open annulus 2^(j-1) < |k| < 2^(j+1) on the grid."""
    return (grid.kmag > 2.0 ** (j - 1)) & (grid.kmag < 2.0 ** (j + 1))


def _check_annulus_support(f: SpectralField, j: int) -> None:
    outside = f.coeffs[~annulus_mask(f.grid, j)]
    scale = max(float(np.max(np.abs(f.coeffs))), 1e-300)
    if outside.size and float(np.max(np.abs(outside))) > 1e-13 * scale:
        raise ValueError(f"field is not supported in the dyadic annulus j={j}")


def bernstein_ratio(f: SpectralField, j: int, k_order: int, p: float, q: float,
                    fractional_order: float | None = None) -> float:
    """Measured constant in the derivative/frequency equivalence.

    Returns sup_{|gamma|=k_order} ||d^gamma f||_q divided by
    2^(j*(k_order + N(1/p - 1/q))) * ||f||_p for a field supported in the
    j-th annulus.  With fractional_order set, Lambda^s replaces the
    derivative sup and s replaces k_order in the weight.
    """
    if p > q:
        raise ValueError("Bernstein ratio requires p <= q")
    _check_annulus_support(f, j)
    if fractional_order is not None:
        numerator = sp.lp_norm(sp.fractional_derivative(f, fractional_order), q)
        order = fractional_order
    else:
        # every d^gamma with |gamma| = k_order, as k_order gradients of f
        derivatives = [f]
        for _ in range(k_order):
            derivatives = [d for g in derivatives for d in sp.gradient(g).components]
        numerator = max(sp.lp_norm(d, q) for d in derivatives)
        order = float(k_order)

    weight = 2.0 ** (j * (order + f.grid.dim * (_inv(p) - _inv(q))))
    denom = weight * sp.lp_norm(f, p)
    if denom == 0.0:
        return 0.0
    return numerator / denom


# ---------------------------------------------------------------------------
# commutator ratio
# ---------------------------------------------------------------------------

_HOLDER_SET = (1, 2, np.inf)


def _inv(p: float) -> float:
    return 0.0 if p == np.inf else 1.0 / p


def _quarter_band(f: SpectralField) -> SpectralField:
    """Truncate so that pointwise products stay exactly representable."""
    band = (f.grid.points // 2 - 1) // 2
    return SpectralField(f.grid, f.coeffs * (np.max(np.abs(f.grid.kmesh), axis=0) <= band))


def commutator_ratio(f: SpectralField, g: SpectralField, s: float,
                     exponents: tuple[float, float, float, float, float]) -> float:
    """||Lambda^s(fg) - f Lambda^s(g)||_p over the product-rule bound.

    exponents = (p, p1, p2, p3, p4) with 1/p = 1/p1 + 1/p2 = 1/p3 + 1/p4,
    each drawn from {1, 2, inf}.  The bound is
    ||grad f||_p1 ||Lambda^(s-1) g||_p2 + ||Lambda^s f||_p3 ||g||_p4.
    Returns 0 when both sides vanish (for instance constant f).
    """
    if s <= 0.0:
        raise ValueError("order s must be > 0")
    p, p1, p2, p3, p4 = exponents
    for value in exponents:
        if value not in _HOLDER_SET:
            raise ValueError(f"unsupported exponent {value}; expected 1, 2 or inf")
    if not (np.isclose(_inv(p), _inv(p1) + _inv(p2)) and np.isclose(_inv(p), _inv(p3) + _inv(p4))):
        raise ValueError("incompatible exponents: need 1/p = 1/p1 + 1/p2 = 1/p3 + 1/p4")
    if f.grid != g.grid:
        raise ValueError("commutator arguments must share one grid")

    f = _quarter_band(f)
    g = _quarter_band(g)
    grid = f.grid

    f_phys = sp.to_physical(f)
    g_phys = sp.to_physical(g)
    product = sp.forward_transform(f_phys * g_phys, grid)
    lam_s_g = sp.fractional_derivative(g, s)
    cross = sp.forward_transform(f_phys * sp.to_physical(lam_s_g), grid)
    lhs_field = SpectralField(grid, sp.fractional_derivative(product, s).coeffs - cross.coeffs)
    lhs = sp.lp_norm(lhs_field, p)

    # ||grad f||_p1 is the p1-norm of the samples of |grad f|
    grad = sp.to_physical_array(sp.gradient(f).coeffs, grid)
    rhs = (
        sp.sample_norm(np.sqrt(np.sum(grad**2, axis=0)), p1, grid)
        * sp.lp_norm(sp.fractional_derivative(g, s - 1.0), p2)
        + sp.lp_norm(sp.fractional_derivative(f, s), p3) * sp.lp_norm(g, p4)
    )
    scale = max(sp.lp_norm(f, 2) * sp.lp_norm(g, 2), 1e-300)
    if rhs <= 1e-14 * scale:
        return 0.0 if lhs <= 1e-12 * scale else float("inf")
    return lhs / rhs

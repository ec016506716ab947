"""Dissipation symbols |k|^a / g(|k|) and the Osgood divergence classifier.

The slowdown factor g is a radially symmetric, non-decreasing function with
g >= 1, drawn from a small catalog.  A dissipation spec (coefficient,
exponent, g) defines the symbol m(r) = r^a / g(r), applied squared in the
equations of motion and unsquared in diagnostics.

The Osgood classifier decides numerically whether

    integral_e^inf  dtau / (g(tau)^2 * ln(tau) * tau)

diverges, by a window ratio test after the double-log substitution
sigma = ln(ln(tau)), under which the integral becomes integral of
h(sigma) = 1/g(tau(sigma))^2 with respect to sigma.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .spectral import Grid, VectorField, radial_power

E = float(np.e)

DIVERGES = "diverges"
CONVERGES = "converges"
INCONCLUSIVE = "inconclusive"

_KINDS = ("constant_one", "power_log", "iterated_log", "power", "spiky", "tabulated")


@dataclass(frozen=True)
class GFunction:
    """Radially symmetric, non-decreasing slowdown factor, g >= 1.

    Kinds:
      constant_one:  g = 1
      power_log(c):  g^2(r) = c * ln(e + r), c >= 1
      iterated_log:  g^2(r) = ln(e + ln(e + r))
      power(epsilon): g(r) = (e + r)^epsilon
      spiky(period, height): staircase that jumps by `height` at the sparse
          radii r_j with ln(ln(r_j)) = period * height^(2j); between jumps g
          is constant, so monotonicity is preserved while the Osgood
          integral picks up a fixed contribution per jump window and
          diverges.
      tabulated(points): piecewise-constant from (radius, value) pairs,
          extended by the last value; must be non-decreasing with values >= 1.
    """

    kind: str
    c: float = 1.0
    epsilon: float = 0.1
    period: float = 0.6
    height: float = 2.0
    points: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown g kind {self.kind!r}")
        if not np.all(np.isfinite([self.c, self.epsilon, self.period, self.height])):
            raise ValueError("g parameters c, epsilon, period and height must be finite")
        if self.kind == "power_log" and self.c < 1.0:
            raise ValueError("power_log requires c >= 1 so that g >= 1")
        if self.kind == "power" and self.epsilon <= 0.0:
            raise ValueError("power requires epsilon > 0")
        if self.kind == "spiky" and (self.period <= 0.0 or self.height < 1.0):
            raise ValueError("spiky requires period > 0 and height >= 1")
        if self.kind == "tabulated":
            pts = tuple((float(r), float(v)) for r, v in self.points)
            if not pts:
                raise ValueError("tabulated g requires at least one (radius, value) pair")
            radii = [r for r, _ in pts]
            values = [v for _, v in pts]
            if any(r < 0 for r in radii) or sorted(radii) != radii:
                raise ValueError("tabulated radii must be non-negative and sorted")
            if any(v < 1.0 for v in values):
                raise ValueError("tabulated g values must be >= 1")
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError("monotonicity violation: tabulated g must be non-decreasing")
            object.__setattr__(self, "points", pts)

    def __call__(self, r):
        """Evaluate g at radius r (scalar or array), r >= 0."""
        r = np.asarray(r, dtype=np.float64)
        if np.any(r < 0):
            raise ValueError("g is defined for radii >= 0")
        if self.kind == "constant_one":
            out = np.ones_like(r)
        elif self.kind == "power_log":
            out = np.sqrt(self.c * np.log(E + r))
        elif self.kind == "iterated_log":
            out = np.sqrt(np.log(E + np.log(E + r)))
        elif self.kind == "power":
            out = (E + r) ** self.epsilon
        elif self.kind == "spiky":
            out = self.height ** self._spiky_jump_count(_loglog_of_radius(r))
        else:  # tabulated
            radii = np.array([p[0] for p in self.points])
            values = np.array([p[1] for p in self.points])
            idx = np.searchsorted(radii, r, side="right") - 1
            out = np.where(idx < 0, 1.0, values[np.clip(idx, 0, len(values) - 1)])
        return out if out.ndim else float(out)

    def _spiky_jump_count(self, sigma):
        """Number of jump radii at or below the double-log coordinate sigma."""
        sigma = np.asarray(sigma, dtype=np.float64)
        lh2 = 2.0 * np.log(self.height)
        if lh2 == 0.0:
            return np.zeros_like(sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            jmax = np.floor(np.log(np.maximum(sigma, 1e-300) / self.period) / lh2)
        return np.where(sigma >= self.period * self.height**2, np.maximum(jmax, 0.0) + 0.0, 0.0)

    def inverse_square_loglog(self, sigma):
        """h(sigma) = 1 / g(tau)^2 at tau = exp(exp(sigma)), overflow-safe."""
        sigma = np.asarray(sigma, dtype=np.float64)
        if self.kind == "constant_one":
            return np.ones_like(sigma)
        # ln(e + tau) computed without forming tau
        log_e_plus_tau = np.logaddexp(1.0, np.exp(sigma))
        if self.kind == "power_log":
            return 1.0 / (self.c * log_e_plus_tau)
        if self.kind == "iterated_log":
            return 1.0 / np.log(E + log_e_plus_tau)
        if self.kind == "power":
            return np.exp(-2.0 * self.epsilon * log_e_plus_tau)
        if self.kind == "spiky":
            return self.height ** (-2.0 * self._spiky_jump_count(sigma))
        # tabulated: tau fits in a double whenever sigma <= lnln(realmax)
        tau = np.exp(np.minimum(np.exp(sigma), 709.0))
        return 1.0 / np.asarray(self(tau)) ** 2


def _loglog_of_radius(r):
    """sigma = ln(ln(r)) extended by -inf-ish below r = e (no jumps there)."""
    r = np.asarray(r, dtype=np.float64)
    safe = np.maximum(r, E)
    return np.where(r > E, np.log(np.log(safe)), -1.0)


def make_g(kind: str, **params) -> GFunction:
    """Catalog factory addressable by name plus keyword parameters."""
    return GFunction(kind=kind, **params)


@dataclass(frozen=True)
class DissipationSpec:
    """Coefficient, exponent and slowdown factor of one dissipation operator."""

    coefficient: float
    exponent: float
    g: GFunction

    def __post_init__(self):
        if self.coefficient < 0.0:
            raise ValueError("coefficient must be >= 0")
        if self.exponent <= 0.0:
            raise ValueError("exponent must be > 0")


def symbol(spec: DissipationSpec, radius) -> float | np.ndarray:
    """m(r) = r^exponent / g(r), with m(0) = 0 by convention."""
    r = np.asarray(radius, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    out = radial_power(r, spec.exponent) / spec.g(r)
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=8)
def symbol_on_grid(spec: DissipationSpec, grid: Grid) -> np.ndarray:
    """Symbol evaluated at every grid wave vector magnitude.

    The array is cached per (spec, grid) and shared, so it is read-only.
    """
    out = symbol(spec, grid.kmag)
    out.setflags(write=False)
    return out


def apply_L(v: VectorField, spec: DissipationSpec) -> VectorField:
    """Multiply each coefficient by the unsquared symbol m(|k|)."""
    m = symbol_on_grid(spec, v.grid)
    return VectorField.from_array(v.grid, v.coeffs * m)


def apply_dissipation(v: VectorField, spec: DissipationSpec) -> VectorField:
    """Dissipation operator: coefficient * m(|k|)^2 per coefficient."""
    m2 = spec.coefficient * symbol_on_grid(spec, v.grid) ** 2
    return VectorField.from_array(v.grid, v.coeffs * m2)


# ---------------------------------------------------------------------------
# Osgood classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OsgoodVerdict:
    classification: str
    partial_integral: float
    upper_limit_used: float
    window_ratios: tuple[float, ...] = ()


_WINDOW_RATIO = 1.18
_WINDOW_FLOOR = 0.05
_RATIO_WINDOWS = 10
_DIVERGE_THRESHOLD = 0.99
_CONVERGE_THRESHOLD = 0.90


def _simpson(fvals: np.ndarray, h: float) -> float:
    # fvals has odd length
    return h / 3.0 * float(fvals[0] + fvals[-1] + 4.0 * fvals[1:-1:2].sum() + 2.0 * fvals[2:-2:2].sum())


def partial_integral(g: GFunction, upper_limit: float, samples: int = 4096) -> float:
    """integral_e^upper of dtau/(g^2 ln(tau) tau) via the double-log substitution."""
    if upper_limit <= E:
        return 0.0
    sigma_max = float(np.log(np.log(upper_limit)))
    n = samples + 1 if samples % 2 == 0 else samples
    n = max(n, 257)
    sigma = np.linspace(0.0, sigma_max, n)
    return _simpson(g.inverse_square_loglog(sigma), sigma[1] - sigma[0])


def osgood_classify(g: GFunction, upper_limit: float = 1e100, samples: int = 20000) -> OsgoodVerdict:
    """Classify the Osgood integral by a ratio test on log-scale windows.

    The integration range [e, upper_limit] maps to [0, sigma_max] in the
    double-log coordinate; it is split into geometrically shrinking windows
    (each window multiplies ln(tau) by a fixed factor, the analogue of a
    dyadic window after the substitution).  The median ratio of consecutive
    window integrals over the last windows decides:
    decay slower than 0.99 per window reads as divergence, a geometric tail
    with ratio at most 0.9 as convergence, anything between is inconclusive.
    """
    if not 10.0 * E <= upper_limit < np.inf:
        raise ValueError("upper_limit must be finite and at least 10*e")
    if samples < 1000:
        raise ValueError("samples must be at least 1000")

    sigma_max = float(np.log(np.log(upper_limit)))
    bounds = [sigma_max]
    while bounds[-1] / _WINDOW_RATIO > _WINDOW_FLOOR:
        bounds.append(bounds[-1] / _WINDOW_RATIO)
    bounds.append(0.0)
    bounds = bounds[::-1]

    n_windows = len(bounds) - 1
    nodes = max(65, samples // n_windows)
    if nodes % 2 == 0:
        nodes += 1

    integrals = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sigma = np.linspace(lo, hi, nodes)
        integrals.append(_simpson(g.inverse_square_loglog(sigma), sigma[1] - sigma[0]))
    integrals = np.array(integrals)
    total = float(integrals.sum())

    # ratios of consecutive windows, skipping the head window [0, floor)
    tail = integrals[-(_RATIO_WINDOWS + 1):]
    if np.any(tail <= 1e-290):
        classification = CONVERGES
        ratios = ()
    else:
        ratios = tuple(float(b / a) for a, b in zip(tail[:-1], tail[1:]))
        med = float(np.median(ratios))
        if med >= _DIVERGE_THRESHOLD:
            classification = DIVERGES
        elif med <= _CONVERGE_THRESHOLD:
            classification = CONVERGES
        else:
            classification = INCONCLUSIVE

    return OsgoodVerdict(
        classification=classification,
        partial_integral=total,
        upper_limit_used=float(upper_limit),
        window_ratios=ratios,
    )

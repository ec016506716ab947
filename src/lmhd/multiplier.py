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

from dataclasses import dataclass

import numpy as np

from .spectral import radial_power

E = float(np.e)

DIVERGES = "diverges"
CONVERGES = "converges"
INCONCLUSIVE = "inconclusive"

# kind -> the parameters it reads; its keys are the catalog
_PARAMETERS = {"constant_one": (), "power_log": ("c",), "iterated_log": (), "power": ("epsilon",),
               "spiky": ("period", "height")}


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
    """

    kind: str
    c: float = 1.0
    epsilon: float = 0.1
    period: float = 0.6
    height: float = 2.0

    def __post_init__(self):
        if self.kind not in _PARAMETERS:
            raise ValueError(f"unknown g kind {self.kind!r}")
        if not np.all(np.isfinite([self.c, self.epsilon, self.period, self.height])):
            raise ValueError("g parameters c, epsilon, period and height must be finite")
        if self.kind == "power_log" and self.c < 1.0:
            raise ValueError("power_log requires c >= 1 so that g >= 1")
        if self.kind == "power" and self.epsilon <= 0.0:
            raise ValueError("power requires epsilon > 0")
        if self.kind == "spiky" and (self.period <= 0.0 or self.height < 1.0):
            raise ValueError("spiky requires period > 0 and height >= 1")

    def __call__(self, r):
        """Evaluate g at radius r (scalar or array), r >= 0."""
        r = np.asarray(r, dtype=np.float64)
        if np.any(r < 0):
            raise ValueError("g is defined for radii >= 0")
        if self.kind == "constant_one":
            out = np.ones_like(r)
        elif self.kind == "power_log":
            out = np.sqrt(self.c) * np.sqrt(np.log(E + r))
        elif self.kind == "iterated_log":
            out = np.sqrt(np.log(E + np.log(E + r)))
        elif self.kind == "power":
            out = (E + r) ** self.epsilon
        else:  # spiky
            out = self.height ** self._spiky_jump_count(_loglog_of_radius(r))
        return out if out.ndim else float(out)

    def _spiky_jump_count(self, sigma):
        """Number of jump radii at or below the double-log coordinate sigma."""
        sigma = np.asarray(sigma, dtype=np.float64)
        lh2 = 2.0 * np.log(self.height)
        if lh2 == 0.0:
            return np.zeros_like(sigma)
        # ln sigma - ln period, which a quotient sigma / period overflows for a tiny period;
        # fmax drops the nan and -inf of ln sigma at sigma <= 0 (r <= e), below every jump
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.fmax(np.floor((np.log(sigma) - np.log(self.period)) / lh2), 0.0)

    def inverse_square_loglog(self, sigma):
        """h(sigma) = 1 / g(tau)^2 at tau = exp(exp(sigma)), overflow-safe."""
        sigma = np.asarray(sigma, dtype=np.float64)
        if self.kind == "constant_one":
            return np.ones_like(sigma)
        # ln(e + tau) computed without forming tau
        log_e_plus_tau = np.logaddexp(1.0, np.exp(sigma))
        if self.kind == "power_log":
            with np.errstate(over="ignore"):
                return 1.0 / (self.c * log_e_plus_tau)
        if self.kind == "iterated_log":
            return 1.0 / np.log(E + log_e_plus_tau)
        if self.kind == "power":
            return np.exp(-2.0 * self.epsilon * log_e_plus_tau)
        # spiky
        return self.height ** (-2.0 * self._spiky_jump_count(sigma))


def _loglog_of_radius(r):
    """sigma = ln(ln(r)) extended by -inf-ish below r = e (no jumps there)."""
    r = np.asarray(r, dtype=np.float64)
    safe = np.maximum(r, E)
    return np.where(r > E, np.log(np.log(safe)), -1.0)


def make_g(kind: str, /, **params) -> GFunction:
    """Catalog factory by name; a parameter the kind does not read raises ValueError."""
    if kind not in _PARAMETERS:
        raise ValueError(f"unknown g kind {kind!r}")
    unread = sorted(set(params).difference(_PARAMETERS[kind]))
    if unread:
        raise ValueError(f"g kind {kind!r} does not read {', '.join(unread)}")
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
    """m(r) = r^exponent / g(r), with m(0) = 0 by convention; a new array per call."""
    r = np.asarray(radius, dtype=np.float64)
    out = radial_power(r, spec.exponent) / spec.g(r)
    return out if out.ndim else float(out)


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
_OSGOOD_SAMPLES = 20000
_PARTIAL_NODES = 4097


def partial_integral(g: GFunction, upper_limit) -> float | np.ndarray:
    """integral_e^x of dtau/(g^2 ln(tau) tau) at each limit x, via the double-log substitution.

    `upper_limit` is a scalar (gives a float) or an array of limits (gives an
    array of the same shape). All limits share one composite Simpson pass: the
    double-log limits sigma_i = ln ln max(x_i, e) are sorted, each panel
    [0, sigma_(1)], [sigma_(1), sigma_(2)], ... takes the smallest even number
    of intervals, at least 2, whose step is <= sigma_max / 4096, and the panel
    sums are accumulated. One limit is the 4097-node rule on [0, sigma]; limits
    at or below e give 0, and the values are non-decreasing in x. ValueError
    for a limit that is not finite.
    """
    x = np.asarray(upper_limit, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("upper_limit must be finite")
    sigma = np.log(np.log(np.maximum(x.ravel(), E)))
    order = np.argsort(sigma)
    cuts = np.concatenate(([0.0], sigma[order]))
    out = np.zeros(x.size)
    if cuts[-1] > 0.0:
        widths = np.diff(cuts)
        half = np.ceil(widths * ((_PARTIAL_NODES - 1) // 2) / cuts[-1])
        intervals = 2 * np.maximum(half, 1).astype(np.int64)
        ends = np.cumsum(intervals + 1) - 1
        starts = ends - intervals
        panel = np.repeat(np.arange(x.size), intervals + 1)
        j = np.arange(panel.size) - starts[panel]
        steps = widths / intervals
        nodes = cuts[panel] + j * steps[panel]
        nodes[ends] = cuts[1:]
        # Simpson weights 1, 4, 2, 4, ..., 2, 4, 1 within each panel
        weights = np.where(j % 2 == 1, 4.0, 2.0)
        weights[starts] = weights[ends] = 1.0
        panel_sums = steps / 3.0 * np.add.reduceat(weights * g.inverse_square_loglog(nodes), starts)
        out[order] = np.cumsum(panel_sums)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def osgood_classify(g: GFunction, upper_limit: float = 1e100) -> OsgoodVerdict:
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

    sigma_max = float(np.log(np.log(upper_limit)))
    bounds = [sigma_max]
    while bounds[-1] / _WINDOW_RATIO > _WINDOW_FLOOR:
        bounds.append(bounds[-1] / _WINDOW_RATIO)
    bounds.append(0.0)
    bounds = np.array(bounds[::-1])

    # at most 30 windows for any finite limit; Simpson needs an odd node count
    nodes = _OSGOOD_SAMPLES // (len(bounds) - 1) | 1
    # every window's nodes in one (windows, nodes) array, one g pass and Simpson along the
    # rows; the odd and even nodes are summed as contiguous copies, whose row sums are
    # numpy's pairwise sums, so each window integral is the one-window rule bit for bit
    sigma = np.linspace(bounds[:-1], bounds[1:], nodes, axis=-1)
    f = g.inverse_square_loglog(sigma)
    odd, even = (np.ascontiguousarray(f[:, first:-1:2]).sum(axis=-1) for first in (1, 2))
    integrals = (sigma[:, 1] - sigma[:, 0]) / 3.0 * (f[:, 0] + f[:, -1] + 4.0 * odd + 2.0 * even)
    total = float(integrals.sum())

    # ratios of consecutive windows, skipping the head window [0, floor), unless one underflowed
    tail = integrals[-(_RATIO_WINDOWS + 1):]
    if np.any(tail < np.finfo(np.float64).tiny):
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

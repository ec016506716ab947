"""Independent correctness checks on what lmhd writes.

Every check here recomputes a property of the method with plain numpy from
the files the program wrote (series CSV, binary snapshots) or from a closed
form. None of them compares against a stored copy of an earlier output, and
none goes through lmhd's own readers or norms.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

ENERGY_TOL = 1e-4        # relative defect of the energy identity
DIV_TOL = 1e-12          # solenoidality residual of both fields
PARSEVAL_RTOL = 1e-12    # snapshot energy against the record's energy


class CheckFailed(Exception):
    """An output of the program broke a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_columns(path: str | Path) -> dict[str, np.ndarray]:
    """Series CSV as one float array per header column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(data.shape[1] == len(header), f"{path}: ragged series")
    return {name: data[:, i] for i, name in enumerate(header)}


def trapezoid(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral in actual record time (works for any spacing)."""
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (values[1:] + values[:-1]))])


def check_energy_identity(cols: dict, nu: float, eta: float) -> float:
    """|E(t) - E(0) + nu int diss_u + eta int diss_b| / E(0) <= ENERGY_TOL."""
    t = cols["t"]
    e = cols["energy"]
    defect = e - e[0] + nu * trapezoid(cols["diss_u"], t) + eta * trapezoid(cols["diss_b"], t)
    worst = float(np.max(np.abs(defect))) / e[0]
    require(math.isfinite(worst) and worst <= ENERGY_TOL,
            f"energy identity defect {worst:.3e} > {ENERGY_TOL:.0e}")
    return worst


def check_solenoidal(cols: dict) -> None:
    worst = float(max(np.max(cols["div_u"]), np.max(cols["div_b"])))
    require(worst <= DIV_TOL, f"divergence residual {worst:.3e} > {DIV_TOL:.0e}")


def expected_steps(t_end: float, dt: float) -> int:
    """ceil(t_end / dt), ignoring the last-bit rounding of the quotient."""
    return math.ceil(t_end / dt - 1e-9)


def check_end_time(t_final: float, t_end: float) -> None:
    require(abs(t_final - t_end) <= 1e-12 * max(1.0, t_end),
            f"t_final {t_final!r} != t_end {t_end!r}")


def check_fixed_dt_run(summary: dict, t_end: float, dt: float) -> None:
    check_end_time(summary["t_final"], t_end)
    require(summary["steps"] == expected_steps(t_end, dt),
            f"{summary['steps']} steps, expected ceil(t_end/dt) = {expected_steps(t_end, dt)}")


def check_series(path: str | Path, nu: float, eta: float, t_end: float) -> dict:
    cols = read_columns(path)
    require(cols["t"][0] == 0.0, "series does not start at t = 0")
    check_end_time(float(cols["t"][-1]), t_end)
    check_energy_identity(cols, nu, eta)
    check_solenoidal(cols)
    return cols


def snapshot_coefficients(path: str | Path) -> np.ndarray:
    """Snapshot payload parsed from the documented byte layout, shape (count, n, ..., n)."""
    raw = Path(path).read_bytes()
    require(raw[:4] == b"LMHD", f"{path}: bad magic")
    _version, dim, points, count = struct.unpack("<IIII", raw[4:20])
    pairs = np.frombuffer(raw, dtype="<f8", offset=20)
    require(pairs.size == 2 * count * points**dim, f"{path}: payload size mismatch")
    return (pairs[0::2] + 1j * pairs[1::2]).reshape((count,) + (points,) * dim)


def parseval_energy(coeffs: np.ndarray) -> float:
    """0.5 * sum of the physical-space integrals of each field squared."""
    shape = coeffs.shape[1:]
    total_points = math.prod(shape)
    cell_volume = (2.0 * math.pi) ** len(shape) / total_points
    axes = tuple(range(1, coeffs.ndim))
    samples = np.fft.ifftn(coeffs, axes=axes).real * total_points
    return 0.5 * float(np.sum(samples**2)) * cell_volume


def check_snapshot_energy(path: str | Path, energy: float) -> None:
    direct = parseval_energy(snapshot_coefficients(path))
    require(abs(direct - energy) <= PARSEVAL_RTOL * energy,
            f"{path}: Parseval energy {direct!r} != record energy {energy!r}")


def gronwall_constant_g1(cols: dict) -> float:
    """Gronwall constant for g = 1, where F(tau) = ln ln tau in closed form."""
    f = np.log(np.log(math.e + cols["x_norm"]))
    t = cols["t"]
    lhs = f[1:] - f[0]
    rhs = (t[1:] - t[0]) + trapezoid(cols["diss_u"], t)[1:]
    ratios = lhs[rhs > 0.0] / rhs[rhs > 0.0]
    return max(0.0, float(np.max(ratios))) if ratios.size else 0.0


def record_at(cols: dict, t: float) -> int:
    """Index of the record at time t."""
    idx = int(np.argmin(np.abs(cols["t"] - t)))
    require(abs(cols["t"][idx] - t) <= 1e-9, f"no record at t = {t}")
    return idx

"""Periodic-grid Fourier representation of fields and spectral operators.

Fields live on the torus [0, 2*pi)^N with N in {2, 3}, stored as complex
Fourier coefficients in FFT order.  The forward transform divides by the
total point count, so coefficients are Fourier-series coefficients and
coeff(0) equals the mean of the samples.  All wavenumbers are integers.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

BOX_LENGTH = 2.0 * np.pi

_GRID_CACHE: dict[tuple[int, int], "Grid"] = {}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic grid on [0, 2*pi)^dim with power-of-two resolution."""

    def __init__(self, dim: int, points: int):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if not _is_power_of_two(points) or points < 8:
            raise ValueError(f"points must be a power of two >= 8, got {points}")
        self.dim = dim
        self.points = points
        self.shape = (points,) * dim
        self.total_points = points**dim
        self.cell_volume = (BOX_LENGTH / points) ** dim

        # integer wavenumbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1
        k1d = np.fft.fftfreq(points, d=1.0 / points)
        self.k_axes = tuple(k1d.copy() for _ in range(dim))
        mesh = np.meshgrid(*self.k_axes, indexing="ij")
        self.kmesh = np.stack(mesh)  # shape (dim, points, ..., points)
        self.k_squared = np.sum(self.kmesh**2, axis=0)
        self.kmag = np.sqrt(self.k_squared)

        # 2/3-rule mask: zero every mode with any |k_j| >= points/3
        cutoff = points / 3.0
        keep = np.ones(self.shape, dtype=bool)
        for axis_k in mesh:
            keep &= np.abs(axis_k) < cutoff
        self.dealias_mask = keep

    def coordinates(self) -> list[np.ndarray]:
        """Physical mesh coordinates, one array per axis (ij indexing)."""
        x1d = np.arange(self.points) * (BOX_LENGTH / self.points)
        return list(np.meshgrid(*(x1d,) * self.dim, indexing="ij"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.points))

    def __repr__(self) -> str:
        return f"Grid(dim={self.dim}, points={self.points})"


def make_grid(dim: int, points: int) -> Grid:
    """Return a (cached) grid; grids are immutable so sharing is safe."""
    key = (dim, points)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = Grid(dim, points)
    return _GRID_CACHE[key]


class _FieldArithmetic:
    """Vector-space operations on `coeffs`, shared by scalar and vector fields."""

    def _new(self, coeffs: np.ndarray):
        raise NotImplementedError

    def copy(self):
        return self._new(self.coeffs.copy())

    def __add__(self, other):
        _check_same_grid(self.grid, other.grid)
        return self._new(self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self.grid, other.grid)
        return self._new(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return self._new(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._new(-self.coeffs)


@dataclass
class SpectralField(_FieldArithmetic):
    """One scalar field stored as complex Fourier coefficients."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def _new(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)


class VectorField(_FieldArithmetic):
    """N spectral components sharing one grid, stored as one array.

    `coeffs` has shape (N, *grid.shape); `components` are SpectralField views
    of its rows, so writing to a component writes to the field.  The
    constructor copies the components into a new array; `from_array` wraps one.
    """

    def __init__(self, components):
        components = tuple(components)
        if len({c.grid for c in components}) != 1:
            raise ValueError("all components must share one grid")
        grid = components[0].grid
        if len(components) != grid.dim:
            raise ValueError(f"expected {grid.dim} components, got {len(components)}")
        self.grid = grid
        self.coeffs = np.stack([c.coeffs for c in components])

    @classmethod
    def from_array(cls, grid: Grid, data: np.ndarray) -> "VectorField":
        """The field stored in `data`, shape (N, *grid.shape) (no copy)."""
        if data.shape != (grid.dim,) + grid.shape:
            raise ValueError(f"array shape {data.shape} does not hold {grid.dim} fields on {grid}")
        field = cls.__new__(cls)
        field.grid = grid
        field.coeffs = data.astype(np.complex128, copy=False)
        return field

    def _new(self, coeffs: np.ndarray) -> "VectorField":
        return VectorField.from_array(self.grid, coeffs)

    @property
    def components(self) -> tuple[SpectralField, ...]:
        return tuple(SpectralField(self.grid, row) for row in self.coeffs)


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def zero_vector(grid: Grid) -> VectorField:
    return VectorField.from_array(grid, np.zeros((grid.dim,) + grid.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def forward_transform(samples: np.ndarray, grid: Grid | None = None) -> SpectralField:
    """Transform real samples to Fourier coefficients (mean-normalized)."""
    samples = np.asarray(samples, dtype=np.float64)
    if grid is None:
        if samples.ndim not in (2, 3) or len(set(samples.shape)) != 1:
            raise ValueError(f"samples must be square/cubic 2D or 3D, got shape {samples.shape}")
        grid = make_grid(samples.ndim, samples.shape[0])
    elif samples.shape != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    return SpectralField(grid, to_spectral_array(samples, grid))


def to_spectral_array(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of real sample arrays stacked on leading axes, in one batched fftn."""
    return np.fft.fftn(samples, axes=tuple(range(-grid.dim, 0))) / grid.total_points


def conjugate_symmetry_residual(f: SpectralField) -> float:
    """Max |coeff(-k) - conj(coeff(k))|, the defect from representing real data."""
    c = f.coeffs
    flipped = c
    for axis in range(f.grid.dim):
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    return float(np.max(np.abs(flipped - np.conj(c))))


def inverse_transform(f: SpectralField) -> np.ndarray:
    """Transform coefficients back to real samples; rejects non-real spectra."""
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    if conjugate_symmetry_residual(f) > 1e-10 * scale:
        raise ValueError("spectrum is not conjugate-symmetric; field is not real")
    return to_physical(f)


def to_physical(f: SpectralField) -> np.ndarray:
    """Real samples of a field assumed conjugate-symmetric (no validation)."""
    return to_physical_array(f.coeffs, f.grid)


def to_physical_array(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples of coefficient arrays stacked on leading axes, in one batched ifftn."""
    return np.fft.ifftn(coeffs, axes=tuple(range(-grid.dim, 0))).real * grid.total_points


# ---------------------------------------------------------------------------
# differential multipliers
# ---------------------------------------------------------------------------

def radial_power(r: np.ndarray | float, s: float) -> np.ndarray:
    """r^s for radii r >= 0, with 0 at r = 0 for every s."""
    r = np.asarray(r, dtype=np.float64)
    return np.where(r > 0.0, np.where(r > 0.0, r, 1.0) ** s, 0.0)


def fractional_derivative(f: SpectralField, s: float) -> SpectralField:
    """Multiply coefficients by |k|^s; the zero mode is always sent to 0."""
    return SpectralField(f.grid, f.coeffs * radial_power(f.grid.kmag, s))


def gradient_array(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients i*k_j*coeffs, with j on a new axis just before the grid axes."""
    return 1j * grid.kmesh * np.expand_dims(coeffs, -grid.dim - 1)


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient: component j has coefficients i*k_j*f_hat(k)."""
    return VectorField.from_array(f.grid, gradient_array(f.coeffs, f.grid))


def _k_dot(comps: np.ndarray, grid: Grid) -> np.ndarray:
    """Coefficients of k . v_hat(k) for components on the axis before the grid axes."""
    return np.sum(grid.kmesh * comps, axis=-grid.dim - 1)


def leray_array(comps: np.ndarray, grid: Grid) -> np.ndarray:
    """Leray projection of components on the axis before the grid axes (zero mode untouched)."""
    kdotv = _k_dot(comps, grid)
    kdotv /= np.where(grid.k_squared > 0.0, grid.k_squared, 1.0)
    return comps - grid.kmesh * np.expand_dims(kdotv, -grid.dim - 1)


def divergence(v: VectorField) -> SpectralField:
    return SpectralField(v.grid, 1j * _k_dot(v.coeffs, v.grid))


def leray_project(v: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields (zero mode untouched)."""
    return VectorField.from_array(v.grid, leray_array(v.coeffs, v.grid))


def solenoidal_residual(v: VectorField) -> float:
    """max_k |k . v_hat(k)| normalized by max(1, ||v||_L2)."""
    return float(np.max(np.abs(_k_dot(v.coeffs, v.grid)))) / max(1.0, vector_l2_norm(v))


def dealias(f: SpectralField) -> SpectralField:
    """Zero every coefficient with any |k_j| >= points/3 (2/3 rule)."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def mode_power(comps: np.ndarray) -> np.ndarray:
    """Parseval density (2*pi)^N * sum_i |v_hat_i(k)|^2 of components stacked on axis 0.

    Its sum is ||v||_L2^2; weighted by |k|^(2s) or m(|k|)^2 it sums to the
    Sobolev and dissipation norms.
    """
    return BOX_LENGTH ** (comps.ndim - 1) * np.sum(comps.real**2 + comps.imag**2, axis=0)


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm for p in {1, 2, inf}; L^2 is computed spectrally (Parseval)."""
    if p == 2:
        return float(np.sqrt(np.sum(mode_power(f.coeffs[None]))))
    if p == 1:
        return float(np.sum(np.abs(to_physical(f))) * f.grid.cell_volume)
    if p == np.inf:
        return float(np.max(np.abs(to_physical(f))))
    raise ValueError(f"unsupported p={p}; expected 1, 2 or inf")


def hs_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm ||Lambda^s f||_L2 (zero mode excluded)."""
    weights = radial_power(f.grid.kmag, 2.0 * s)
    return float(np.sqrt(np.sum(weights * mode_power(f.coeffs[None]))))


def l2_inner(f: SpectralField | VectorField, g: SpectralField | VectorField) -> float:
    """L^2 inner product of two real scalar or vector fields, computed spectrally."""
    _check_same_grid(f.grid, g.grid)
    return float(BOX_LENGTH ** f.grid.dim * np.sum(f.coeffs * np.conj(g.coeffs)).real)


def vector_l2_norm(v: VectorField) -> float:
    return float(np.sqrt(np.sum(mode_power(v.coeffs))))



def vector_linf_norm(v: VectorField) -> float:
    """Componentwise grid max; underestimates the true sup between grid points."""
    return float(np.max(np.abs(to_physical_array(v.coeffs, v.grid))))


# ---------------------------------------------------------------------------
# binary snapshot format
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"LMHD"
SNAPSHOT_VERSION = 1


def write_snapshot(path: str, fields: list[SpectralField]) -> None:
    """Write fields as {magic, version, N, points, count} + little-endian complex128."""
    if not fields:
        raise ValueError("snapshot requires at least one field")
    grid = fields[0].grid
    for f in fields:
        _check_same_grid(grid, f.grid)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIII", SNAPSHOT_VERSION, grid.dim, grid.points, len(fields)))
        fh.write(np.stack([f.coeffs for f in fields]).astype("<c16").tobytes())


def read_snapshot(path: str) -> list[SpectralField]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated snapshot header")
        version, dim, points, count = struct.unpack("<IIII", header)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if count == 0:
            raise ValueError("snapshot holds no fields")
        # checked before make_grid, so a forged header cannot allocate a huge mesh
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if dim not in (2, 3) or payload_bytes != 16 * count * points**dim:
            raise ValueError("snapshot size does not match its header")
        grid = make_grid(dim, points)
        # astype copies, so the returned coefficients are writable
        coeffs = np.frombuffer(fh.read(), dtype="<c16").astype(np.complex128)
    coeffs = coeffs.reshape((count,) + grid.shape)
    return [SpectralField(grid, c) for c in coeffs]

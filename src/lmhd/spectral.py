"""Periodic-grid Fourier representation of fields and spectral operators.

Fields live on the torus [0, 2*pi)^N with N in {2, 3}, stored as complex
Fourier coefficients in FFT order.  The forward transform divides by the
total point count, so coefficients are Fourier-series coefficients and
coeff(0) equals the mean of the samples.  All wavenumbers are integers.
"""

from __future__ import annotations

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


@dataclass
class SpectralField:
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

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self.grid, other.grid)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)


@dataclass
class VectorField:
    """N spectral components sharing one grid."""

    components: tuple[SpectralField, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        grids = {c.grid for c in self.components}
        if len(grids) != 1:
            raise ValueError("all components must share one grid")
        if len(self.components) != self.grid.dim:
            raise ValueError(
                f"expected {self.grid.dim} components, got {len(self.components)}"
            )

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    def copy(self) -> "VectorField":
        return VectorField(tuple(c.copy() for c in self.components))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(tuple(-c for c in self.components))


def _check_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def zero_vector(grid: Grid) -> VectorField:
    return VectorField(tuple(zero_field(grid) for _ in range(grid.dim)))


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
    coeffs = np.fft.fftn(samples) / grid.total_points
    return SpectralField(grid, coeffs)


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
    return np.fft.ifftn(f.coeffs).real * f.grid.total_points


# ---------------------------------------------------------------------------
# differential multipliers
# ---------------------------------------------------------------------------

def fractional_derivative(f: SpectralField, s: float) -> SpectralField:
    """Multiply coefficients by |k|^s; the zero mode is always sent to 0."""
    kmag = f.grid.kmag
    with np.errstate(divide="ignore"):
        mult = np.where(kmag > 0.0, kmag, 1.0) ** s
    mult = np.where(kmag > 0.0, mult, 0.0)
    return SpectralField(f.grid, f.coeffs * mult)


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient: component j has coefficients i*k_j*f_hat(k)."""
    comps = tuple(
        SpectralField(f.grid, 1j * f.grid.kmesh[j] * f.coeffs)
        for j in range(f.grid.dim)
    )
    return VectorField(comps)


def _k_dot(v: VectorField) -> np.ndarray:
    """Coefficients of k . v_hat(k), summed over components."""
    out = np.zeros(v.grid.shape, dtype=np.complex128)
    for j, comp in enumerate(v.components):
        out += v.grid.kmesh[j] * comp.coeffs
    return out


def divergence(v: VectorField) -> SpectralField:
    return SpectralField(v.grid, 1j * _k_dot(v))


def leray_project(v: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields (zero mode untouched)."""
    grid = v.grid
    kdotv = _k_dot(v)
    kdotv /= np.where(grid.k_squared > 0.0, grid.k_squared, 1.0)
    comps = tuple(
        SpectralField(grid, comp.coeffs - grid.kmesh[j] * kdotv)
        for j, comp in enumerate(v.components)
    )
    return VectorField(comps)


def solenoidal_residual(v: VectorField) -> float:
    """max_k |k . v_hat(k)| normalized by max(1, ||v||_L2)."""
    return float(np.max(np.abs(_k_dot(v)))) / max(1.0, vector_l2_norm(v))


def dealias(f: SpectralField) -> SpectralField:
    """Zero every coefficient with any |k_j| >= points/3 (2/3 rule)."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm for p in {1, 2, inf}; L^2 is computed spectrally (Parseval)."""
    if p == 2:
        return float(
            np.sqrt(BOX_LENGTH ** f.grid.dim * np.sum(np.abs(f.coeffs) ** 2))
        )
    if p == 1:
        return float(np.sum(np.abs(to_physical(f))) * f.grid.cell_volume)
    if p == np.inf:
        return float(np.max(np.abs(to_physical(f))))
    raise ValueError(f"unsupported p={p}; expected 1, 2 or inf")


def hs_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm ||Lambda^s f||_L2 (zero mode excluded)."""
    kmag = f.grid.kmag
    weights = np.where(kmag > 0.0, np.where(kmag > 0.0, kmag, 1.0) ** (2.0 * s), 0.0)
    return float(
        np.sqrt(BOX_LENGTH ** f.grid.dim * np.sum(weights * np.abs(f.coeffs) ** 2))
    )


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """L^2 inner product of two real fields, computed spectrally."""
    _check_same_grid(f.grid, g.grid)
    return float(
        BOX_LENGTH ** f.grid.dim * np.sum(f.coeffs * np.conj(g.coeffs)).real
    )


def vector_l2_norm(v: VectorField) -> float:
    return float(np.sqrt(sum(lp_norm(c, 2) ** 2 for c in v.components)))


def vector_l2_inner(v: VectorField, w: VectorField) -> float:
    return float(sum(l2_inner(a, b) for a, b in zip(v.components, w.components)))


def vector_hs_norm(v: VectorField, s: float) -> float:
    return float(np.sqrt(sum(hs_norm(c, s) ** 2 for c in v.components)))


def vector_linf_norm(v: VectorField) -> float:
    """Componentwise grid max; underestimates the true sup between grid points."""
    return max(lp_norm(c, np.inf) for c in v.components)


# ---------------------------------------------------------------------------
# binary snapshot format
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"LMHD"
SNAPSHOT_VERSION = 1


def write_snapshot(path: str, fields: list[SpectralField]) -> None:
    """Write fields as {magic, version, N, points, count} + little-endian doubles."""
    if not fields:
        raise ValueError("snapshot requires at least one field")
    grid = fields[0].grid
    for f in fields:
        _check_same_grid(grid, f.grid)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IIII", SNAPSHOT_VERSION, grid.dim, grid.points, len(fields)))
        for f in fields:
            flat = np.ascontiguousarray(f.coeffs).ravel()
            interleaved = np.empty(2 * flat.size, dtype="<f8")
            interleaved[0::2] = flat.real
            interleaved[1::2] = flat.imag
            fh.write(interleaved.tobytes())


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
        grid = make_grid(dim, points)
        fields = []
        per_field = 2 * grid.total_points
        for _ in range(count):
            raw = np.frombuffer(fh.read(8 * per_field), dtype="<f8")
            if raw.size != per_field:
                raise ValueError("truncated snapshot payload")
            coeffs = (raw[0::2] + 1j * raw[1::2]).reshape(grid.shape)
            fields.append(SpectralField(grid, coeffs))
    return fields

"""Periodic-grid Fourier representation of fields and spectral operators.

Fields live on the torus [0, 2*pi)^N with N in {2, 3}, stored as complex
Fourier coefficients in FFT order.  The forward transform divides by the
total point count, so coefficients are Fourier-series coefficients and
coeff(0) equals the mean of the samples.  All wavenumbers are integers.

Arrays come in one of two layouts: the full spectrum, which fields hold at
the API edge, or the retained band of the 2/3 rule, |k_j| <= kc =
(points - 1) // 3 (rows 0..kc then -kc..-1 on each leading axis, columns
0..kc of the last), which the stepper and the records work on.  The array
operators `gradient_array`, `k_dot` and `leray_array` take the wavevector
table of their caller's layout, `Grid.band_ik` or `Grid.band_kmesh` on the
band and 1j * `Grid.kmesh` or `Grid.kmesh` on the full spectrum.  `to_band`
gathers the band of a full spectrum, which is the dealias mask, and `from_band`
expands a band to the full spectrum, zero outside it.  The half spectrum
(columns 0..n/2 of the last axis, which determine a real field's spectrum) never
leaves this module: the real transforms read and write it, `_from_half` completes
it by conjugate symmetry in `to_spectral_array` and `from_band`, and
`to_physical_array` takes it as a view for one `irfftn`.  `band_to_physical` and
`physical_to_band` are the pruned real transforms of the band, equal bit for bit
to the full-spectrum ones; initial states, the stepper and the records use only these.
Given `out=`, as the stepper's calls are, they write there and take their
intermediates from buffers kept per grid and leading shape, which start on
cache lines (`cache_aligned`).  `gradient` of a field is the one full-spectrum
i k, and `sample_norm` the one L^p norm of real samples, which `lp_norm` uses
for p = 1 and inf; `lpaley` builds on both.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

BOX_LENGTH = 2.0 * np.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(unsafe_hash=True)
class Grid:
    """Uniform periodic grid on [0, 2*pi)^dim with power-of-two resolution."""

    dim: int
    points: int

    def __post_init__(self):
        dim, points = self.dim, self.points
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if not _is_power_of_two(points) or points < 8:
            raise ValueError(f"points must be a power of two >= 8, got {points}")
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
        self.dealias_mask = np.max(np.abs(self.kmesh), axis=0) < points / 3.0

        # the band table: the modes the 2/3 rule keeps, |k_j| <= kc on every axis, stored
        # as rows 0..kc then -kc..-1 on each leading axis and columns 0..kc of the last.
        # _row_blocks[axis] holds (band index, spectrum index) of the two row blocks.
        self.kc = kc = (points - 1) // 3
        self.band_shape = (2 * kc + 1,) * (dim - 1) + (kc + 1,)
        self._row_blocks = {}
        for axis in range(-dim, -1):
            tail = (slice(None),) * (-axis - 1)
            self._row_blocks[axis] = tuple(
                ((Ellipsis, band) + tail, (Ellipsis, spectrum) + tail)
                for band, spectrum in ((slice(0, kc + 1), slice(0, kc + 1)),
                                       (slice(kc + 1, None), slice(points - kc, None))))
        self.band_kmesh = to_band(self.kmesh, self)
        self.band_k_squared = to_band(self.k_squared, self)
        # i k_j and |k| on the band, for its gradient, its operators and its symbols
        self.band_ik = 1j * self.band_kmesh
        self.band_kmag = np.sqrt(self.band_k_squared)
        self.band_parseval = np.where(np.arange(kc + 1) > 0, 2.0, 1.0)  # 1..kc: also their -k
        # index of -k on every axis (conjugate_symmetry_residual), and its half-spectrum
        # source for the full columns n/2+1..n-1 (_from_half's gather)
        neg = -np.arange(points) % points
        self._reflect = (Ellipsis,) + np.ix_(*(neg,) * dim)
        self._mirror = (Ellipsis,) + np.ix_(*(neg,) * (dim - 1), neg[points // 2 + 1:])

    def coordinates(self) -> list[np.ndarray]:
        """Physical mesh coordinates, one array per axis (ij indexing)."""
        x1d = np.arange(self.points) * (BOX_LENGTH / self.points)
        return list(np.meshgrid(*(x1d,) * self.dim, indexing="ij"))


@functools.lru_cache(maxsize=None)
def make_grid(dim: int, points: int) -> Grid:
    """Return a (cached) grid; grids are immutable so sharing is safe."""
    return Grid(dim, points)


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


class VectorField:
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

def forward_transform(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Transform real samples to Fourier coefficients (mean-normalized)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid {grid.shape}")
    return SpectralField(grid, to_spectral_array(samples, grid))


def to_spectral_array(samples: np.ndarray, grid: Grid) -> np.ndarray:
    """Full-spectrum coefficients of real sample arrays stacked on leading axes,
    in one batched rfftn completed by conjugate symmetry."""
    return _from_half(np.fft.rfftn(samples, axes=tuple(range(-grid.dim, 0)), norm="forward"), grid)


def _from_half(half: np.ndarray, grid: Grid) -> np.ndarray:
    """The full spectrum whose half (columns 0..n/2 of the last axis) is `half`,
    completed by conjugate symmetry."""
    full = np.empty(half.shape[:-1] + (grid.points,), dtype=np.complex128)
    full[..., : half.shape[-1]] = half
    np.conjugate(half[grid._mirror], out=full[..., half.shape[-1]:])
    return full


def to_band(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """The retained band of full-spectrum coefficient arrays, as a new contiguous
    array; the gather drops every mode that the 2/3 rule zeroes."""
    band = coeffs[..., : grid.kc + 1]
    for axis in range(-grid.dim, -1):
        band = _keep_rows(band, axis, grid)
    return band


def from_band(band: np.ndarray, grid: Grid) -> np.ndarray:
    """The full spectrum whose retained band is `band`, zero outside it and
    completed by conjugate symmetry."""
    # the last leading axis is padded straight into the half spectrum, so no padded
    # copy of the band is alive while the full spectrum is built
    half = np.zeros(band.shape[:-grid.dim] + grid.shape[:-1] + (grid.points // 2 + 1,),
                    dtype=np.complex128)
    for axis in range(-grid.dim, -1):
        band = _pad_rows(band, axis, grid, half[..., : grid.kc + 1] if axis == -2 else None)
    return _from_half(half, grid)


def _keep_rows(x: np.ndarray, axis: int, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """The band rows 0..kc and -kc..-1 of x on one leading axis, in `out` when given."""
    (_, low), (_, high) = grid._row_blocks[axis]
    return np.concatenate((x[low], x[high]), axis=axis, out=out)


def _pad_rows(x: np.ndarray, axis: int, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """x with its band rows on one leading axis placed among `points` rows, zero elsewhere;
    written into `out` when given, whose other rows must be zero."""
    if out is None:
        shape = list(x.shape)
        shape[axis] = grid.points
        out = np.zeros(shape, dtype=x.dtype)
    for band, spectrum in grid._row_blocks[axis]:
        out[spectrum] = x[band]
    return out


def cache_aligned(shape: tuple[int, ...], dtype=np.float64, zero: bool = False) -> np.ndarray:
    """A new array, zero-filled if `zero`, that starts on a 64-byte cache line.  numpy
    starts arrays where malloc does, 16-byte aligned at offsets that depend on the heap,
    and an elementwise op on arrays off the line takes about twice as long; this one is
    a view into a block 64 bytes longer, which it keeps alive through `.base`."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    block = (np.zeros if zero else np.empty)(nbytes + 64, dtype=np.uint8)
    start = -block.ctypes.data % 64
    return block[start:start + nbytes].view(dtype).reshape(shape)


# The intermediates of the pruned transforms of one grid and one leading shape, for the
# calls given `out=`, which the stepper makes over and over: reusing them spares the
# allocator, whose freed blocks of this size go back to the kernel and fault in again.
# They are process state, shared by every such call on the grid.

@functools.lru_cache(maxsize=8)
def _inverse_buffers(grid: Grid, lead: tuple[int, ...]) -> tuple[tuple, tuple, np.ndarray]:
    """Of `band_to_physical`: the padded rows of each leading axis, zero outside the
    band rows that every call writes, the ifft output of each but the last, and the
    half spectrum that irfft reads, zero outside the columns 0..kc that the last
    ifft writes."""
    shape = list(lead + grid.band_shape)
    padded, spectra = [], []
    for axis in range(-grid.dim, -1):
        shape[axis] = grid.points
        padded.append(cache_aligned(tuple(shape), np.complex128, zero=True))
        if axis < -2:
            spectra.append(cache_aligned(tuple(shape), np.complex128))
    shape[-1] = grid.points // 2 + 1
    return tuple(padded), tuple(spectra), cache_aligned(tuple(shape), np.complex128, zero=True)


@functools.lru_cache(maxsize=8)
def _forward_buffers(grid: Grid, lead: tuple[int, ...]) -> tuple[np.ndarray, tuple, tuple]:
    """The rfft half spectrum of `physical_to_band`, the fft output of each leading
    axis, and the kept rows of each but the last, whose rows go to `out`."""
    shape = list(lead + grid.shape)
    shape[-1] = grid.points // 2 + 1
    half = cache_aligned(tuple(shape), np.complex128)
    shape[-1] = grid.kc + 1
    spectra, rows = [], []
    for axis in range(-2, -grid.dim - 1, -1):
        spectra.append(cache_aligned(tuple(shape), np.complex128))
        shape[axis] = 2 * grid.kc + 1
        rows.append(cache_aligned(tuple(shape), np.complex128))
    return half, tuple(spectra), tuple(rows[:-1])


def band_to_physical(band: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of band arrays stacked on leading axes, bit for bit
    `to_physical_array(from_band(band))`: in irfftn's axis order, each leading
    axis is padded and gets a complex ifft over only the kc + 1 columns that can
    be nonzero, the last one into columns 0..kc of a zeroed half spectrum, then
    one irfft of the last axis reads the whole half spectrum, which numpy
    transforms faster than the band columns alone.  With `out`, the samples are
    written there and the intermediates are the grid's buffers; without it,
    every array is new."""
    lead = band.shape[:-grid.dim]
    padded, spectra, half = (_inverse_buffers(grid, lead) if out is not None else (
        (None,) * (grid.dim - 1), (None,) * (grid.dim - 2),
        np.zeros(lead + grid.shape[:-1] + (grid.points // 2 + 1,), dtype=np.complex128)))
    for axis, rows, spectrum in zip(range(-grid.dim, -1), padded,
                                    spectra + (half[..., : grid.kc + 1],)):
        band = np.fft.ifft(_pad_rows(band, axis, grid, rows), axis=axis, norm="forward",
                           out=spectrum)
    return np.fft.irfft(half, n=grid.points, axis=-1, norm="forward", out=out)


def physical_to_band(samples: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Band of real sample arrays stacked on leading axes, bit for bit
    `to_band(to_spectral_array(samples))`: one rfft of the last axis keeps
    columns 0..kc, then in rfftn's axis order each leading axis gets a complex
    fft and keeps its band rows.  With `out`, the band is written there and the
    intermediates are the grid's buffers; without it, every array is new."""
    half, spectra, rows = (_forward_buffers(grid, samples.shape[:-grid.dim]) if out is not None
                           else (None, (None,) * (grid.dim - 1), (None,) * (grid.dim - 2)))
    x = np.fft.rfft(samples, axis=-1, norm="forward", out=half)[..., : grid.kc + 1]
    for axis, spectrum, kept in zip(range(-2, -grid.dim - 1, -1), spectra, rows + (out,)):
        x = _keep_rows(np.fft.fft(x, axis=axis, norm="forward", out=spectrum), axis, grid, kept)
    return x


def conjugate_symmetry_residual(f: SpectralField) -> float:
    """Max |coeff(-k) - conj(coeff(k))|, the defect from representing real data."""
    return float(np.max(np.abs(f.coeffs[f.grid._reflect] - np.conj(f.coeffs))))


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
    """Real samples of conjugate-symmetric full-spectrum coefficient arrays
    stacked on leading axes (no validation), in one batched irfftn of their
    half spectra."""
    return np.fft.irfftn(coeffs[..., : grid.points // 2 + 1], s=grid.shape,
                         axes=tuple(range(-grid.dim, 0)), norm="forward")


# ---------------------------------------------------------------------------
# differential multipliers
# ---------------------------------------------------------------------------

def radial_power(r: np.ndarray | float, s: float) -> np.ndarray:
    """r^s for radii r >= 0, with 0 at r = 0 for every s."""
    r = np.asarray(r, dtype=np.float64)
    return np.power(r, s, out=np.zeros(r.shape), where=r > 0.0)


def fractional_derivative(f: SpectralField, s: float) -> SpectralField:
    """Multiply coefficients by |k|^s; the zero mode is always sent to 0."""
    return SpectralField(f.grid, f.coeffs * radial_power(f.grid.kmag, s))


def gradient_array(coeffs: np.ndarray, ik: np.ndarray) -> np.ndarray:
    """Coefficients i*k_j*coeffs, with j on a new leading axis; `ik` is the table of
    the coefficients' layout, `Grid.band_ik` on the band or 1j * `Grid.kmesh`."""
    return ik[(slice(None),) + (None,) * (coeffs.ndim - ik.ndim + 1)] * coeffs


def gradient(f: SpectralField) -> VectorField:
    """Spectral gradient: component j has coefficients i*k_j*f_hat(k)."""
    return VectorField.from_array(f.grid, gradient_array(f.coeffs, 1j * f.grid.kmesh))


def k_dot(comps: np.ndarray, kmesh: np.ndarray) -> np.ndarray:
    """Coefficients of k . v_hat(k) for components on the axis before the grid axes;
    `kmesh` is the table of their layout, `Grid.band_kmesh` or `Grid.kmesh`."""
    return np.sum(kmesh * comps, axis=-kmesh.ndim)


def leray_array(comps: np.ndarray, kmesh: np.ndarray) -> np.ndarray:
    """Leray projection of components on the axis before the grid axes (zero mode
    untouched); `kmesh` is the table of their layout, `Grid.band_kmesh` or `Grid.kmesh`."""
    k_squared = np.sum(kmesh**2, axis=0)
    kdotv = k_dot(comps, kmesh)
    kdotv /= np.where(k_squared > 0.0, k_squared, 1.0)
    return comps - kmesh * np.expand_dims(kdotv, -kmesh.ndim)


def divergence(v: VectorField) -> SpectralField:
    return SpectralField(v.grid, 1j * k_dot(v.coeffs, v.grid.kmesh))


def leray_project(v: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields (zero mode untouched)."""
    return VectorField.from_array(v.grid, leray_array(v.coeffs, v.grid.kmesh))


def solenoidal_residual(v: VectorField) -> float:
    """max_k |k . v_hat(k)| normalized by max(1, ||v||_L2)."""
    return float(np.max(np.abs(k_dot(v.coeffs, v.grid.kmesh)))) / max(1.0, vector_l2_norm(v))


# ---------------------------------------------------------------------------
# norms and inner products
# ---------------------------------------------------------------------------

def mode_power(comps: np.ndarray) -> np.ndarray:
    """Parseval density (2*pi)^N * sum_i |v_hat_i(k)|^2 of components stacked on axis 0.

    Its sum is ||v||_L2^2; weighted by |k|^(2s) or m(|k|)^2 it sums to the
    Sobolev and dissipation norms.
    """
    return BOX_LENGTH ** (comps.ndim - 1) * np.sum(comps.real**2 + comps.imag**2, axis=0)


def sample_norm(samples: np.ndarray, p: float, grid: Grid) -> float:
    """L^p norm for p in {1, 2, inf} of real samples on the grid, the integrals
    taken as sums over the samples."""
    if p == 1:
        return float(np.sum(np.abs(samples)) * grid.cell_volume)
    if p == 2:
        return float(np.sqrt(np.sum(samples**2) * grid.cell_volume))
    if p == np.inf:
        return float(np.max(np.abs(samples)))
    raise ValueError(f"unsupported p={p}; expected 1, 2 or inf")


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm for p in {1, 2, inf}; L^2 is computed spectrally (Parseval)."""
    if p == 2:
        return float(np.sqrt(np.sum(mode_power(f.coeffs[None]))))
    return sample_norm(to_physical(f), p, f.grid)


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


# ---------------------------------------------------------------------------
# binary snapshot format
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"LMHD"
SNAPSHOT_VERSION = 1


def write_in_place(path: str, chunks: Iterable) -> None:
    """Write the bytes-like `chunks` to `path` in order, as a truncating open
    would, but rewriting an existing file in place: it is opened without
    O_TRUNC and cut at the end of what was written (also when a write fails).
    The final bytes are the same, on the same inode, through a symlink, with
    the mode kept; ext4 flushes a file truncated to zero when it is closed,
    which made every rewrite of a run's outputs wait for the disk."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
        finally:
            fh.truncate()


def write_snapshot(path: str, fields: list[SpectralField]) -> None:
    """Write fields as {magic, version, N, points, count} + little-endian complex128."""
    if not fields:
        raise ValueError("snapshot requires at least one field")
    grid = fields[0].grid
    for f in fields:
        _check_same_grid(grid, f.grid)
    write_in_place(path, _snapshot_chunks(grid, len(fields), (f.coeffs for f in fields)))


def write_band_snapshot(path: str, band: np.ndarray, grid: Grid) -> None:
    """`write_snapshot` of the fields whose bands are stacked on the leading axes of
    `band`, the same bytes, expanding one field's full spectrum at a time."""
    bands = band.reshape((-1,) + grid.band_shape)
    write_in_place(path, _snapshot_chunks(grid, len(bands), (from_band(b, grid) for b in bands)))


def _snapshot_chunks(grid: Grid, count: int, spectra: Iterable):
    """The bytes of a snapshot file: its header, then one field at a time, with no
    copy of a contiguous little-endian field."""
    yield SNAPSHOT_MAGIC + struct.pack("<IIII", SNAPSHOT_VERSION, grid.dim, grid.points, count)
    for c in spectra:
        yield np.ascontiguousarray(c, dtype="<c16")


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
        # one read into one new, writable array, which astype keeps on a little-endian host
        n = payload_bytes // 16
        coeffs = np.fromfile(fh, dtype="<c16", count=n).astype(np.complex128, copy=False)
        if coeffs.size != n:
            raise ValueError("snapshot size does not match its header")
    coeffs = coeffs.reshape((count,) + grid.shape)
    return [SpectralField(grid, c) for c in coeffs]

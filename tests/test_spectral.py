"""Transforms, differential multipliers, projection, norms, snapshots."""

import ast
import os
import stat
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lmhd import spectral as sp
from lmhd.spectral import Grid, SpectralField, VectorField

from conftest import dft_oracle, convolution_oracle, random_real_field, random_solenoidal

TWO_PI = 2.0 * np.pi


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(4, 16)
        with pytest.raises(ValueError):
            Grid(2, 12)
        with pytest.raises(ValueError):
            Grid(2, 4)

    def test_identity_is_dim_and_points(self):
        grid = sp.make_grid(2, 64)
        assert grid == Grid(2, 64) and hash(grid) == hash(Grid(2, 64))
        assert grid != Grid(2, 32) and grid != Grid(3, 64)
        assert repr(grid) == "Grid(dim=2, points=64)"
        assert sp.make_grid(2, 16) is sp.make_grid(2, 16)

    def test_wavenumbers(self):
        grid = sp.make_grid(2, 16)
        assert set(grid.k_axes[0].astype(int)) == set(range(-8, 8))
        assert grid.kmag[0, 0] == 0.0


def test_band_wavevector_tables_are_built_only_by_the_grid():
    """No module of lmhd but spectral forms `1j * ...band_kmesh` or `sqrt(...band_k_squared)`:
    the band's i k and |k| are `Grid.band_ik` and `Grid.band_kmag`."""
    def reads(node, attribute):
        return any(isinstance(n, ast.Attribute) and n.attr == attribute for n in ast.walk(node))

    builders = set()
    for path in Path(sp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            forms_ik = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                        and any(isinstance(side, ast.Constant) and side.value == 1j
                                for side in (node.left, node.right))
                        and reads(node, "band_kmesh"))
            forms_kmag = (isinstance(node, ast.Call) and reads(node.func, "sqrt")
                          and any(reads(arg, "band_k_squared") for arg in node.args))
            if forms_ik or forms_kmag:
                builders.add(path.stem)
    assert builders == {"spectral"}


def test_only_spectral_writes_an_imaginary_constant():
    """No module of lmhd but spectral contains a complex constant such as `1j`: every
    `i k` of the code is formed there, by `spectral.gradient` or a `Grid` table."""
    writers = {path.stem for path in Path(sp.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, complex)}
    assert writers == {"spectral"}


def test_no_module_reads_a_private_name_of_another():
    """No module of lmhd reads a single-underscore name, as an attribute or an import,
    that another module of lmhd defines and it does not: `SolutionPair.band` and
    `spectral.k_dot` are the public ways to the pair's `_band` and to k . v_hat."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    defined, read = {}, {}
    for path in Path(sp.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        stored, loaded = ([n for n in nodes if isinstance(getattr(n, "ctx", None), ctx)]
                          for ctx in (ast.Store, ast.Load))
        defined[path.stem] = ({n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
                              | {getattr(n, "attr", getattr(n, "id", None)) for n in stored})
        read[path.stem] = ({n.attr for n in loaded if isinstance(n, ast.Attribute)}
                           | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
    crossings = sorted(f"{module} reads {name}" for module, names in read.items() for name in names
                       if private(name) and name not in defined[module]
                       and any(name in own for other, own in defined.items() if other != module))
    assert crossings == []


def test_no_public_name_of_spectral_is_a_half_spectrum():
    """Arrays leave `spectral` as full spectra or bands: the half spectrum of the real
    transforms has no public name."""
    assert [name for name in vars(sp) if "half" in name and not name.startswith("_")] == []


class TestTransforms:
    def test_constant_field(self, grid16):
        f = sp.forward_transform(np.full(grid16.shape, 3.25), grid16)
        assert abs(f.coeffs[0, 0] - 3.25) < 1e-14
        rest = f.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_single_cosine_mode(self, grid16):
        x = grid16.coordinates()[0]
        f = sp.forward_transform(np.cos(x), grid16)
        assert abs(f.coeffs[1, 0] - 0.5) < 1e-14
        assert abs(f.coeffs[-1, 0] - 0.5) < 1e-14
        rest = f.coeffs.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_matches_direct_dft_sum(self):
        grid = sp.make_grid(2, 8)
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(grid.shape)
        f = sp.forward_transform(samples, grid)
        expected = dft_oracle(samples)
        assert np.max(np.abs(f.coeffs - expected)) < 1e-12

    def test_inverse_matches_direct_sum(self):
        grid = sp.make_grid(2, 8)
        rng = np.random.default_rng(8)
        f = random_real_field(grid, seed=8)
        # direct inverse sum at every grid point
        k1 = np.fft.fftfreq(8, d=1.0 / 8)
        x1 = TWO_PI * np.arange(8) / 8
        direct = np.zeros(grid.shape, dtype=np.complex128)
        for i in range(8):
            for j in range(8):
                phase = k1[i] * x1[:, None] + k1[j] * x1[None, :]
                direct += f.coeffs[i, j] * np.exp(1j * phase)
        assert np.max(np.abs(direct.imag)) < 1e-12
        assert np.max(np.abs(sp.inverse_transform(f) - direct.real)) < 1e-12

    @pytest.mark.parametrize("points", [8, 16, 32, 64])
    def test_round_trip(self, points):
        grid = sp.make_grid(2, points)
        rng = np.random.default_rng(points)
        samples = rng.standard_normal(grid.shape)
        back = sp.inverse_transform(sp.forward_transform(samples, grid))
        assert np.max(np.abs(back - samples)) <= 1e-12 * np.max(np.abs(samples))

    def test_round_trip_3d(self):
        grid = sp.make_grid(3, 8)
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(grid.shape)
        back = sp.inverse_transform(sp.forward_transform(samples, grid))
        assert np.max(np.abs(back - samples)) < 1e-12

    def test_shape_mismatch_rejected(self, grid16):
        with pytest.raises(ValueError):
            sp.forward_transform(np.zeros((8, 8)), grid16)

    def test_non_symmetric_spectrum_rejected(self, grid16):
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[1, 0] = 1.0  # missing the conjugate partner at (-1, 0)
        with pytest.raises(ValueError):
            sp.inverse_transform(SpectralField(grid16, coeffs))

    def test_zero_spectrum_gives_zero_samples(self, grid16):
        assert np.max(np.abs(sp.inverse_transform(sp.zero_field(grid16)))) == 0.0

    def test_parseval(self, grid32):
        f = random_real_field(grid32, seed=5)
        samples = sp.inverse_transform(f)
        physical = np.sum(samples**2) * grid32.cell_volume
        spectral = TWO_PI**2 * np.sum(np.abs(f.coeffs) ** 2)
        assert abs(physical - spectral) <= 1e-12 * spectral


    @pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
    def test_band_transforms_with_out_match_and_without_share_nothing(self, dim, points):
        # with out=, a pruned transform writes there, bit for bit the new array of a call
        # without it; a call without out= returns an array no later call writes to
        grid = sp.make_grid(dim, points)
        rng = np.random.default_rng(points)
        lead = (2, dim)
        bands = [rng.standard_normal(lead + grid.band_shape) + 1j * rng.standard_normal(lead + grid.band_shape)
                 for _ in range(2)]
        samples = [rng.standard_normal(lead + grid.shape) for _ in range(2)]
        for transform, inputs, shape, dtype in ((sp.band_to_physical, bands, grid.shape, np.float64),
                                                (sp.physical_to_band, samples, grid.band_shape, np.complex128)):
            first = transform(inputs[0], grid)
            kept = first.copy()
            out = np.empty(lead + shape, dtype=dtype)
            assert transform(inputs[1], grid, out=out) is out
            assert np.array_equal(out, transform(inputs[1], grid))
            assert np.array_equal(transform(inputs[0], grid, out=out), kept)
            assert np.array_equal(first, kept)


class TestFractionalDerivative:
    def test_s_zero_is_identity_off_zero_mode(self, grid16):
        f = random_real_field(grid16, seed=1)
        out = sp.fractional_derivative(f, 0.0)
        expected = f.coeffs.copy()
        expected[0, 0] = 0.0
        assert np.max(np.abs(out.coeffs - expected)) < 1e-14

    def test_squares_wavenumber(self, grid16):
        coeffs = np.zeros(grid16.shape, dtype=np.complex128)
        coeffs[1, 0] = 1.0
        coeffs[2, 0] = 1.0
        out = sp.fractional_derivative(SpectralField(grid16, coeffs), 2.0)
        assert abs(out.coeffs[1, 0] - 1.0) < 1e-14
        assert abs(out.coeffs[2, 0] - 4.0) < 1e-14

    def test_semigroup(self, grid32):
        f = random_real_field(grid32, seed=2)
        twice = sp.fractional_derivative(sp.fractional_derivative(f, 1.0), 1.0)
        once = sp.fractional_derivative(f, 2.0)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-12 * np.max(np.abs(once.coeffs))


class TestGradientDivergence:
    def test_constant_has_zero_gradient(self, grid16):
        f = sp.forward_transform(np.ones(grid16.shape), grid16)
        g = sp.gradient(f)
        assert all(np.max(np.abs(c.coeffs)) < 1e-14 for c in g.components)

    def test_sine_gradient(self, grid16):
        x = grid16.coordinates()[0]
        f = sp.forward_transform(np.sin(x), grid16)
        g = sp.gradient(f)
        gx = sp.inverse_transform(g.components[0])
        gy = sp.inverse_transform(g.components[1])
        assert np.max(np.abs(gx - np.cos(x))) < 1e-12
        assert np.max(np.abs(gy)) < 1e-13

    def test_divergence_of_gradient_is_negative_laplacian(self, grid32):
        f = random_real_field(grid32, seed=3)
        lhs = sp.divergence(sp.gradient(f))
        rhs = sp.fractional_derivative(f, 2.0)
        assert np.max(np.abs(lhs.coeffs + rhs.coeffs)) <= 1e-12 * np.max(np.abs(rhs.coeffs))

    @pytest.mark.parametrize("dim, points", [(2, 16), (3, 16)])
    def test_gradient_of_a_stacked_band_puts_the_derivative_axis_first(self, dim, points):
        grid = sp.make_grid(dim, points)
        rng = np.random.default_rng(5)
        band = rng.standard_normal((dim,) + grid.band_shape) + 1j * rng.standard_normal(
            (dim,) + grid.band_shape)
        expected = 1j * grid.band_kmesh[:, None] * band
        got = sp.gradient_array(band, grid.band_ik)
        assert got.shape == (dim, dim) + grid.band_shape
        assert got.tobytes() == expected.tobytes()

    def test_grid_mismatch_rejected(self, grid16, grid32):
        f16 = sp.zero_field(grid16)
        f32 = sp.zero_field(grid32)
        with pytest.raises(ValueError):
            VectorField((f16, f32))
        with pytest.raises(ValueError, match="grid mismatch: "):
            sp.l2_inner(f16, f32)
        with pytest.raises(ValueError, match="grid mismatch: "):
            sp.write_snapshot(os.devnull, [f16, f32])


class TestFieldShapes:
    def test_scalar_shape_must_match_its_grid(self, grid16):
        with pytest.raises(ValueError, match=r"coefficient shape \(8, 8\) does not match grid \(16, 16\)"):
            SpectralField(grid16, np.zeros((8, 8), dtype=np.complex128))

    def test_vector_needs_one_component_per_axis(self, grid16):
        with pytest.raises(ValueError, match="expected 2 components, got 3"):
            VectorField([sp.zero_field(grid16)] * 3)

    def test_vector_array_must_hold_one_field_per_axis(self, grid16):
        with pytest.raises(ValueError, match=r"array shape \(3, 16, 16\) does not hold 2 fields on "):
            VectorField.from_array(grid16, np.zeros((3, 16, 16), dtype=np.complex128))

    def test_real_coefficients_are_stored_complex(self, grid16):
        coeffs = np.random.default_rng(3).standard_normal(grid16.shape)
        field = SpectralField(grid16, coeffs)
        assert field.coeffs.dtype == np.complex128 and np.array_equal(field.coeffs, coeffs)


class TestLerayProjection:
    def test_annihilates_gradients(self, grid32):
        f = random_real_field(grid32, seed=4)
        out = sp.leray_project(sp.gradient(f))
        assert all(np.max(np.abs(c.coeffs)) < 1e-13 for c in out.components)

    def test_fixes_solenoidal_fields(self, grid32):
        psi = random_real_field(grid32, seed=5)
        stream = VectorField((
            SpectralField(grid32, -sp.gradient(psi).components[1].coeffs),
            sp.gradient(psi).components[0],
        ))
        out = sp.leray_project(stream)
        scale = max(np.max(np.abs(c.coeffs)) for c in stream.components)
        for got, expected in zip(out.components, stream.components):
            assert np.max(np.abs(got.coeffs - expected.coeffs)) <= 1e-12 * scale

    def test_idempotent_and_gradient_annihilation_corpus(self, grid16):
        for seed in range(100):
            v = VectorField(tuple(random_real_field(grid16, seed=100 + 3 * seed + c) for c in range(2)))
            once = sp.leray_project(v)
            twice = sp.leray_project(once)
            scale = max(1.0, max(np.max(np.abs(c.coeffs)) for c in once.components))
            for a, b in zip(once.components, twice.components):
                assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * scale
            assert sp.solenoidal_residual(once) <= 1e-12
            killed = sp.leray_project(sp.gradient(random_real_field(grid16, seed=7000 + seed)))
            assert all(np.max(np.abs(c.coeffs)) <= 1e-13 for c in killed.components)


class TestDealias:
    """The 2/3 rule is the band gather: `to_band` keeps what it keeps."""

    def test_low_band_unchanged(self):
        grid = sp.make_grid(2, 32)
        f = random_real_field(grid, seed=6, band=2.0)
        out = sp.from_band(sp.to_band(f.coeffs, grid), grid)
        assert np.array_equal(out, f.coeffs)

    def test_mode_outside_band_zeroed(self):
        grid = sp.make_grid(2, 16)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[7, 0] = 1.0  # k = points/2 - 1
        assert not np.any(sp.to_band(coeffs, grid))

    def test_product_matches_convolution_oracle(self):
        # the tendency's path: a pointwise product taken to the band by physical_to_band
        grid = sp.make_grid(2, 8)
        fs = []
        for seed in (21, 22):
            f = random_real_field(grid, seed=seed)
            keep = np.ones(grid.shape, dtype=bool)
            for j in range(2):
                keep &= np.abs(grid.kmesh[j]) <= 2
            fs.append(SpectralField(grid, f.coeffs * keep))
        f, g = fs
        band = sp.physical_to_band(sp.to_physical(f) * sp.to_physical(g), grid)
        product = sp.from_band(band, grid)
        oracle = convolution_oracle(f.coeffs, g.coeffs, grid) * grid.dealias_mask
        assert np.max(np.abs(product - oracle)) < 1e-13


class TestNorms:
    def test_zero_field(self, grid16):
        z = sp.zero_field(grid16)
        for p in (1, 2, np.inf):
            assert sp.lp_norm(z, p) == 0.0
        assert sp.hs_norm(z, 1.5) == 0.0

    def test_cosine_l2(self, grid32):
        x = grid32.coordinates()[0]
        f = sp.forward_transform(np.cos(x), grid32)
        assert abs(sp.lp_norm(f, 2) - np.sqrt(2.0 * np.pi**2)) < 1e-12

    def test_unsupported_p_rejected(self, grid16):
        with pytest.raises(ValueError):
            sp.lp_norm(sp.zero_field(grid16), 3)

    def test_l2_spectral_matches_physical(self, grid32):
        f = random_real_field(grid32, seed=9)
        samples = sp.inverse_transform(f)
        physical = np.sqrt(np.sum(samples**2) * grid32.cell_volume)
        assert abs(sp.lp_norm(f, 2) - physical) <= 1e-12 * physical

    def test_h1_matches_gradient_l2(self, grid32):
        f = random_real_field(grid32, seed=10)
        grad = sp.gradient(f)
        combined = np.sqrt(sum(sp.lp_norm(c, 2) ** 2 for c in grad.components))
        assert abs(sp.hs_norm(f, 1.0) - combined) <= 1e-12 * combined


class TestSnapshots(object):
    def test_round_trip(self, tmp_path, grid16):
        for grid in (grid16, sp.make_grid(3, 8)):
            fields = [random_real_field(grid, seed=s) for s in (1, 2, 3)]
            path = str(tmp_path / f"state{grid.dim}.lmhd")
            sp.write_snapshot(path, fields)
            back = sp.read_snapshot(path)
            assert len(back) == 3
            for a, b in zip(fields, back):
                assert a.grid == b.grid
                assert np.array_equal(a.coeffs, b.coeffs)
                assert b.coeffs.dtype == np.complex128 and b.coeffs.dtype.isnative
                assert b.coeffs.flags.writeable

    def test_no_fields_rejected(self, tmp_path):
        path = tmp_path / "state.lmhd"
        with pytest.raises(ValueError, match="snapshot requires at least one field"):
            sp.write_snapshot(str(path), [])
        assert not path.exists()

    def test_header(self, tmp_path, grid16):
        path = str(tmp_path / "state.lmhd")
        f = sp.zero_field(grid16)
        f.coeffs[1, 2] = 0.25 - 1.5j
        sp.write_snapshot(path, [f])
        raw = open(path, "rb").read()
        assert raw[:4] == b"LMHD"
        version, dim, points, count = np.frombuffer(raw[4:20], dtype="<u4")
        assert (version, dim, points, count) == (1, 2, 16, 1)
        assert len(raw) == 20 + 16 * 16 * 16
        # row-major (re, im) float64 pairs: coefficient [1, 2] has flat index 18
        payload = bytearray(16 * 16 * 16)
        payload[16 * 18:16 * 19] = struct.pack("<dd", 0.25, -1.5)
        assert raw[20:] == payload

    @pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
    def test_payload_is_the_stacked_coefficients(self, tmp_path, dim, points):
        # written field by field, the payload is still the bytes of the stacked
        # little-endian coefficients, also for coefficients not C-contiguous
        grid = sp.make_grid(dim, points)
        fields = [random_real_field(grid, seed=s) for s in (1, 2)]
        fields.append(SpectralField(grid, np.asfortranarray(random_real_field(grid, seed=3).coeffs)))
        fields.append(SpectralField(grid, random_real_field(grid, seed=4).coeffs[..., ::-1]))
        assert not any(f.coeffs.flags.c_contiguous for f in fields[2:])
        path = tmp_path / "state.lmhd"
        sp.write_snapshot(str(path), fields)
        stacked = np.stack([f.coeffs for f in fields]).astype("<c16").tobytes()
        assert path.read_bytes() == b"LMHD" + struct.pack("<IIII", 1, dim, points, 4) + stacked

    def test_rewrite_keeps_the_file_and_cuts_its_old_tail(self, tmp_path, grid16):
        # a snapshot written through a symlink over a longer file: the bytes of a fresh
        # write, on the same inode, with the file's own mode
        fields = [random_real_field(grid16, seed=s) for s in (1, 2)]
        fresh, old, link = tmp_path / "fresh.lmhd", tmp_path / "old.lmhd", tmp_path / "link.lmhd"
        sp.write_snapshot(str(fresh), fields)
        old.write_bytes(b"x" * (3 * fresh.stat().st_size))
        old.chmod(0o640)
        link.symlink_to(old)
        inode = old.stat().st_ino
        sp.write_snapshot(str(link), fields)
        assert old.read_bytes() == fresh.read_bytes()
        assert old.stat().st_ino == inode and stat.S_IMODE(old.stat().st_mode) == 0o640
        assert link.is_symlink()

    def test_write_in_place_cuts_the_file_where_a_write_failed(self, tmp_path):
        path = tmp_path / "out"
        path.write_bytes(b"old contents")

        def chunks():
            yield b"new"
            raise OSError("no space left on device")

        with pytest.raises(OSError):
            sp.write_in_place(str(path), chunks())
        assert path.read_bytes() == b"new"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lmhd"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValueError):
            sp.read_snapshot(str(path))

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:10],
        lambda raw: raw + b"\0" * 4,
        lambda raw: raw[:16] + struct.pack("<I", 0),
        lambda raw: raw[:4] + struct.pack("<IIII", 1, 3, 4096, 1),
        lambda raw: raw[:-16],
        lambda raw: raw[:-8],
    ], ids=["truncated_header", "trailing_bytes", "zero_count", "forged_3d_4096",
            "one_coefficient_short", "8_bytes_short"])
    def test_malformed_rejected(self, tmp_path, grid16, corrupt):
        path = tmp_path / "state.lmhd"
        sp.write_snapshot(str(path), [sp.zero_field(grid16)])
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError):
            sp.read_snapshot(str(path))

    def test_short_read_rejected(self, tmp_path, grid16, monkeypatch):
        # a payload that passes the size check but comes up one coefficient short on reading
        path = tmp_path / "state.lmhd"
        sp.write_snapshot(str(path), [sp.zero_field(grid16)])
        path.write_bytes(path.read_bytes()[:-16])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 16))
        with pytest.raises(ValueError, match="snapshot size does not match its header"):
            sp.read_snapshot(str(path))

"""Sphere quadrature, harmonics, per-degree kernels, spherical reconstruction."""

import math

import numpy as np
import pytest
from scipy.special import eval_legendre, sph_harm_y

from polyshannon.shannon1d import SamplingGrid, synthesize_kernel
from polyshannon.spectrum import radial_operator_poly, radial_spectrum
from polyshannon.spherical import (
    BoundaryTailWarning,
    PolysplineField,
    ShannonPolysplineKernel,
    SphereGrid,
    analyze_sphere,
    decay_check,
    mode_count,
    mode_degree,
    radial_kernel,
    random_polyspline_field,
    reconstruct_spherical,
    reconstruct_spherical_integral,
    sph_harm,
    sph_harm_degree,
    sph_index,
    synthesize_directions,
    synthesize_sphere,
    zonal,
)


def _random_directions(rng, count):
    d = rng.normal(size=(count, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# --------------------------------------------------------------------------
# harmonics and quadrature
# --------------------------------------------------------------------------

def test_constant_harmonic_normalization():
    d = np.array([0.3, -0.5, 0.81])
    d /= np.linalg.norm(d)
    assert abs(sph_harm(0, 1, d) - 1.0 / math.sqrt(4.0 * math.pi)) < 1e-15


def test_degree_harmonics_match_scipy_complex_route():
    rng = np.random.default_rng(3)
    d = _random_directions(rng, 400)
    theta = np.arccos(d[:, 2])
    phi = np.arctan2(d[:, 1], d[:, 0])
    for k in range(17):
        got = sph_harm_degree(k, d)
        assert got.shape == (2 * k + 1, 400)
        for m in range(-k, k + 1):
            y = sph_harm_y(k, abs(m), theta, phi)
            want = y.real if m == 0 else math.sqrt(2.0) * (y.real if m > 0 else y.imag)
            assert np.max(np.abs(got[m + k] - want)) < 1e-12, (k, m)
            assert np.array_equal(sph_harm(k, m + k + 1, d), got[m + k])


def test_degree_one_harmonics_near_the_poles():
    # Y_1 = sqrt(3/4pi) (-y, z, -x) for ell = 1, 2, 3, to roundoff even where
    # cos(theta) rounds to +-1 and the sectoral values are ~1e-12
    c = math.sqrt(3.0 / (4.0 * math.pi))
    for d in ([1e-9, 2e-9, 1.0], [3e-12, -1e-12, -1.0], [0.0, 0.0, 2.0]):
        x, y, z = np.asarray(d) / np.linalg.norm(d)
        got = sph_harm_degree(1, d)
        want = c * np.array([-y, z, -x])
        assert np.max(np.abs(got - want)) < 1e-15
    north = sph_harm_degree(1, [1e-9, 2e-9, 1.0])
    assert abs(north[2] / (-c * 1e-9) - 1.0) < 1e-14
    assert sph_harm_degree(0, np.zeros((4, 2, 3))).shape == (1, 4, 2)


def test_mode_indexing_roundtrip():
    for k in range(6):
        for ell in range(1, 2 * k + 2):
            assert mode_degree(sph_index(k, ell)) == (k, ell)
    assert mode_count(8) == 81
    with pytest.raises(ValueError):
        sph_index(2, 6)


def test_quadrature_orthonormality():
    grid = SphereGrid(8)
    pts = grid.points()
    w = grid.quad_weights()
    n_modes = mode_count(8)
    flat = pts.reshape(-1, 3)
    ys = np.empty((n_modes, flat.shape[0]))
    for idx in range(n_modes):
        k, ell = mode_degree(idx)
        ys[idx] = sph_harm(k, ell, flat)
    gram = (ys * w.reshape(1, -1)) @ ys.T
    assert np.max(np.abs(gram - np.eye(n_modes))) < 1e-10


def test_addition_theorem_matches_legendre():
    rng = np.random.default_rng(7)
    a = _random_directions(rng, 5)
    b = _random_directions(rng, 5)
    for k in (1, 3, 6):
        total = np.zeros(5)
        for ell in range(1, 2 * k + 2):
            total += sph_harm(k, ell, a) * sph_harm(k, ell, b)
        cosg = np.sum(a * b, axis=1)
        want = (2 * k + 1) / (4.0 * math.pi) * eval_legendre(k, cosg)
        assert np.max(np.abs(total - want)) < 1e-12


def test_zonal_frozen_values():
    assert abs(zonal(0, 0.37) - 1.0 / (4.0 * math.pi)) < 1e-15
    assert abs(zonal(1, 1.0) - 3.0 / (4.0 * math.pi)) < 1e-15


def test_zonal_reproduces_harmonics():
    grid = SphereGrid(6)
    pts = grid.points()
    w = grid.quad_weights()
    rng = np.random.default_rng(3)
    psi = _random_directions(rng, 1)[0]
    for k, ell in ((2, 1), (4, 7), (6, 13)):
        cosg = np.tensordot(pts, psi, axes=(2, 0))
        integral = float(np.sum(w * zonal(k, cosg) * sph_harm(k, ell, pts.reshape(-1, 3)).reshape(pts.shape[:2])))
        assert abs(integral - sph_harm(k, ell, psi)) < 1e-9


def test_analyze_synthesize_roundtrip():
    grid = SphereGrid(8)
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1.0, 1.0, size=mode_count(8))
    values = synthesize_sphere(grid, coeffs)
    back = analyze_sphere(grid, values)
    assert np.max(np.abs(back - coeffs)) < 1e-9


def test_analyze_constant_field():
    grid = SphereGrid(4)
    values = np.ones((5, 10))
    coeffs = analyze_sphere(grid, values)
    assert abs(coeffs[0] - math.sqrt(4.0 * math.pi)) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_analyze_picks_out_single_harmonic():
    grid = SphereGrid(8)
    pts = grid.points()
    values = sph_harm(3, 2, pts.reshape(-1, 3)).reshape(pts.shape[:2])
    coeffs = analyze_sphere(grid, values)
    want = np.zeros(mode_count(8))
    want[sph_index(3, 2)] = 1.0
    assert np.max(np.abs(coeffs - want)) < 1e-12


def test_synthesize_directions_agrees_with_grid():
    grid = SphereGrid(5)
    rng = np.random.default_rng(19)
    coeffs = rng.uniform(-1.0, 1.0, size=mode_count(5))
    values = synthesize_sphere(grid, coeffs)
    pts = grid.points().reshape(-1, 3)
    direct = synthesize_directions(coeffs, pts).reshape(values.shape)
    assert np.max(np.abs(direct - values)) < 1e-12


# --------------------------------------------------------------------------
# radial channel kernels
# --------------------------------------------------------------------------

def test_radial_spectrum_low_degree():
    assert radial_spectrum(0, 3, 1).expand() == (-1.0, 0.0)


def test_radial_kernel_is_cardinal():
    tab = radial_kernel(0, 3, 1)
    for j in range(-4, 5):
        want = 1.0 if j == 0 else 0.0
        assert abs(tab(float(j)) - want) < 1e-12


def test_confluent_radial_kernel():
    # n = 2 collapses the two exponent families onto each other
    sv = radial_spectrum(0, 2, 2)
    assert sv.entries == ((0.0, 2), (2.0, 2))
    tab = radial_kernel(0, 2, 2)
    for j in range(-3, 4):
        want = 1.0 if j == 0 else 0.0
        assert abs(tab(float(j)) - want) < 1e-11


def test_radial_operator_annihilates_channel_exponentials():
    for k, n, p in ((0, 3, 1), (4, 3, 2), (2, 2, 2), (7, 4, 1)):
        poly = radial_operator_poly(k, p, n)
        scale = np.sum(np.abs(poly.coeffs))
        for lam, _ in radial_spectrum(k, n, p).entries:
            assert abs(poly(lam)) < 1e-8 * scale * max(1.0, abs(lam)) ** poly.degree


def test_decay_rows_match_plain_kernels():
    rows = decay_check(3, 1, 2)
    assert [row.degree for row in rows] == [0, 1, 2]
    sv = radial_spectrum(0, 3, 1)
    tab = synthesize_kernel(sv, SamplingGrid(16, 24))
    assert rows[0].sup_time == float(np.max(np.abs(tab.values)))


def test_decay_trend_small_sweep():
    rows = decay_check(3, 1, 12)
    prods = [row.degree * row.sup_fourier for row in rows if row.degree >= 6]
    assert max(prods) / min(prods) < 4.0
    sups = [row.sup_time for row in rows]
    assert max(sups) / np.median(sups) < 3.0


def test_decay_check_rejects_beyond_cap():
    with pytest.raises(ValueError):
        decay_check(3, 1, 40)


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def test_single_mode_field_reduces_to_1d():
    # radial profile = one basis spline, constant-direction channel
    rng = np.random.default_rng(0)
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=2, j_min=-4,
                                  j_max=4, active=[])
    coeffs = gen.coeffs.copy()
    coeffs[sph_index(0, 1), 2] = 1.0  # profile Q(v - i), one-hot
    gen = type(gen)(gen.dimension, gen.smoothness, gen.degree_max, gen.i_min,
                    coeffs)
    fld = gen.sphere_field(-4, 4)
    rng2 = np.random.default_rng(5)
    r = np.exp(rng2.uniform(-1.5, 1.5, size=40))
    d = _random_directions(rng2, 40)
    got = reconstruct_spherical(fld, r, d)
    want = gen.eval(r, d)
    assert np.max(np.abs(got - want)) < 1e-5


def test_zero_field_reconstructs_to_zero():
    fld = PolysplineField(3, 1, 2, -3, np.zeros((7, mode_count(2))))
    r = np.array([0.7, 1.0, 2.1])
    d = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
    assert np.max(np.abs(reconstruct_spherical(fld, r, d))) == 0.0


def test_mode_decoupling_leakage():
    rng = np.random.default_rng(23)
    active = [sph_index(2, 3)]
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=4, j_min=-5,
                                  j_max=5, active=active)
    fld = gen.sphere_field(-5, 5)
    grid = SphereGrid(4)
    pts = grid.points().reshape(-1, 3)
    r = np.full(pts.shape[0], math.exp(0.3))
    values = reconstruct_spherical(fld, r, pts).reshape(grid.points().shape[:2])
    coeffs = analyze_sphere(grid, values)
    scale = float(np.max(np.abs(coeffs)))
    mask = np.ones_like(coeffs, dtype=bool)
    mask[active[0]] = False
    assert np.max(np.abs(coeffs[mask])) < 1e-9 * max(1.0, scale)


def test_random_field_roundtrip_moderate():
    rng = np.random.default_rng(31)
    gen = random_polyspline_field(rng, n=3, p=2, degree_max=4, j_min=-5,
                                  j_max=5)
    fld = gen.sphere_field(-5, 5)
    rng2 = np.random.default_rng(37)
    r = np.exp(rng2.uniform(-1.0, 1.0, size=100))
    d = _random_directions(rng2, 100)
    got = reconstruct_spherical(fld, r, d)
    want = gen.eval(r, d)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < 1e-6 * scale


def test_integral_route_matches_mode_wise():
    rng = np.random.default_rng(41)
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=4, j_min=-4,
                                  j_max=4)
    fld = gen.sphere_field(-4, 4)
    kernel = ShannonPolysplineKernel.build(4, n=3, p=1)
    grid = SphereGrid(4)
    rng2 = np.random.default_rng(43)
    r = np.exp(rng2.uniform(-0.8, 0.8, size=12))
    d = _random_directions(rng2, 12)
    via_modes = reconstruct_spherical(fld, r, d)
    via_integral = reconstruct_spherical_integral(fld, kernel, grid, r, d)
    scale = max(1.0, float(np.max(np.abs(via_modes))))
    assert np.max(np.abs(via_modes - via_integral)) < 1e-7 * scale


def test_kernel_eval_consistency_with_zonal_projection():
    kernel = ShannonPolysplineKernel.build(4, n=3, p=1)
    grid = SphereGrid(4)
    pts = grid.points()
    w = grid.quad_weights()
    rng = np.random.default_rng(47)
    psi = _random_directions(rng, 1)[0]
    r = 1.37
    for k, ell in ((1, 2), (3, 4)):
        cosg = np.tensordot(pts, psi, axes=(2, 0))
        vals = kernel.eval(np.full(cosg.shape, r), cosg)
        y = sph_harm(k, ell, pts.reshape(-1, 3)).reshape(cosg.shape)
        integral = float(np.sum(w * vals * y))
        want = kernel.tables[k](math.log(r)) * sph_harm(k, ell, psi)
        assert abs(integral - want) < 1e-8


def test_kernel_eval_at_unit_radius():
    kernel = ShannonPolysplineKernel.build(3, n=3, p=1)
    cosg = 0.42
    want = sum(zonal(k, cosg) for k in range(4))
    assert abs(kernel.eval(1.0, cosg) - want) < 1e-10


def test_boundary_warning():
    fld = PolysplineField(3, 1, 1, -3, np.ones((7, mode_count(1))))
    d = np.array([[0.0, 0.0, 1.0]])
    with pytest.warns(BoundaryTailWarning):
        reconstruct_spherical(fld, np.array([math.exp(2.9)]), d)


def test_non_finite_samples_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        samples = np.ones((7, mode_count(1)))
        samples[3, 2] = bad
        fld = PolysplineField(3, 1, 1, -3, samples)
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_spherical(fld, np.array([1.0]), np.array([[0.0, 0.0, 1.0]]))
    # radii whose log is not finite are queries off every sphere, not zeros
    fld = PolysplineField(3, 1, 1, -3, np.ones((7, mode_count(1))))
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_spherical(fld, np.array([1.0, bad]),
                                  np.array([[0.0, 0.0, 1.0]] * 2))


def test_kernel_source_selects_the_tables():
    rng = np.random.default_rng(29)
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=3, j_min=-5,
                                  j_max=5, active=[0, 1, 2, 3, 9, 11])
    fld = gen.sphere_field(-5, 5)
    r = np.exp(rng.uniform(-1.0, 1.0, size=60))
    d = _random_directions(rng, 60)
    default = reconstruct_spherical(fld, r, d)

    # the default tables: the paper's series, agreeing with the default
    # coefficient route to the tables' interpolation error
    explicit = reconstruct_spherical(fld, r, d, kernel=synthesize_kernel)
    assert np.max(np.abs(explicit - default)) < 1e-6 * np.max(np.abs(default))

    asked = []

    def coarse(sv):
        asked.append(sv)
        return synthesize_kernel(sv, SamplingGrid(16, 24))

    got = reconstruct_spherical(fld, r, d, kernel=coarse)
    # one table per degree with a nonzero channel (degree 2 has none)
    assert asked == [radial_spectrum(k, 3, 1) for k in (0, 1, 3)]
    assert not np.array_equal(got, default)
    assert np.max(np.abs(got - default)) < 1e-4 * np.max(np.abs(default))


def test_degree_cap_holds_on_both_routes():
    samples = np.zeros((7, mode_count(33)))
    samples[:, 33 * 33] = 1.0  # one channel of degree 33
    fld = PolysplineField(3, 1, 33, -3, samples)
    r, d = np.array([1.0]), np.array([[0.0, 0.0, 1.0]])
    for kernel in (None, synthesize_kernel):
        with pytest.raises(ValueError, match="cancellation guard 32"):
            reconstruct_spherical(fld, r, d, kernel=kernel)


# --------------------------------------------------------------------------
# field files
# --------------------------------------------------------------------------

def test_field_text_roundtrip(tmp_path):
    rng = np.random.default_rng(53)
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=3, j_min=-4,
                                  j_max=4)
    fld = gen.sphere_field(-4, 4)
    path = tmp_path / "field.txt"
    fld.save_text(path)
    back = PolysplineField.load_text(path)
    assert back.dimension == 3 and back.smoothness == 1
    assert back.degree_max == 3 and back.j_min == -4
    assert np.array_equal(back.samples, fld.samples)


def test_field_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(59)
    gen = random_polyspline_field(rng, n=3, p=2, degree_max=2, j_min=-5,
                                  j_max=5)
    fld = gen.sphere_field(-5, 5)
    path = tmp_path / "field.pspf"
    fld.save_binary(path)
    back = PolysplineField.load_binary(path)
    assert (back.dimension, back.smoothness, back.degree_max, back.j_min) == (
        3, 2, 2, -5,
    )
    assert np.array_equal(back.samples, fld.samples)


def test_field_load_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.txt"
    bad.write_text("hello world\n1 2 3\n")
    with pytest.raises(ValueError):
        PolysplineField.load_text(bad)
    badb = tmp_path / "junk.bin"
    badb.write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError):
        PolysplineField.load_binary(badb)


def _same_field(a: PolysplineField, b: PolysplineField) -> bool:
    return (a.dimension, a.smoothness, a.degree_max, a.j_min) == (
        b.dimension, b.smoothness, b.degree_max, b.j_min,
    ) and np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_truncated_field_files_fail_cleanly(tmp_path, fmt):
    # random samples: every row, the last included, is nonzero throughout
    rng = np.random.default_rng(61)
    fld = PolysplineField(3, 2, 1, -2, rng.uniform(-1.0, 1.0, size=(5, 4)))
    path = tmp_path / "field"
    getattr(fld, f"save_{fmt}")(path)
    raw = path.read_bytes()
    load = getattr(PolysplineField, f"load_{fmt}")
    assert _same_field(load(path), fld)
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        try:
            back = load(path)
        except ValueError:
            continue
        assert _same_field(back, fld), size
    path.write_bytes(raw + (b"0 " if fmt == "text" else b"\0"))
    with pytest.raises(ValueError):
        load(path)
    for bad in (math.nan, math.inf, -math.inf):
        samples = fld.samples.copy()
        samples[4, 3] = bad
        getattr(PolysplineField(3, 2, 1, -2, samples), f"save_{fmt}")(path)
        with pytest.raises(ValueError, match="NaN or infinite"):
            load(path)


def test_sphere_fields_need_dimension_3(tmp_path):
    rng = np.random.default_rng(67)
    for n in (2, 4):
        with pytest.raises(ValueError, match="n = 3"):
            random_polyspline_field(rng, n=n, p=1, degree_max=1)
        with pytest.raises(ValueError, match="n = 3"):
            PolysplineField(n, 1, 1, -3, np.ones((7, mode_count(1))))
    # the loaders build through the constructor, so they inherit the check
    fld = PolysplineField(3, 1, 1, -3, np.ones((7, mode_count(1))))
    text, binary = tmp_path / "f.txt", tmp_path / "f.pspf"
    fld.save_text(text)
    text.write_text(text.read_text().replace("\nn 3\n", "\nn 2\n"))
    with pytest.raises(ValueError, match="n = 3"):
        PolysplineField.load_text(text)
    fld.save_binary(binary)
    raw = bytearray(binary.read_bytes())
    raw[8:12] = (4).to_bytes(4, "little")
    binary.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="n = 3"):
        PolysplineField.load_binary(binary)


def test_text_field_row_count_must_match_header(tmp_path):
    fld = PolysplineField(3, 1, 1, -3, np.arange(28.0).reshape(7, 4))
    path = tmp_path / "field.txt"
    fld.save_text(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))  # one sphere row short
    with pytest.raises(ValueError, match="7 rows"):
        PolysplineField.load_text(path)

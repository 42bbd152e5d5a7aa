"""Sphere quadrature, harmonics, per-degree kernels, spherical reconstruction."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_legendre, sph_harm_y

from polyshannon.shannon1d import SamplingGrid, synthesize_kernel
from polyshannon.spectrum import radial_spectrum
from polyshannon.spherical import (
    DEGREE_CAP,
    BoundaryTailWarning,
    PolysplineField,
    ShannonPolysplineKernel,
    SphereGrid,
    SyntheticPolyspline,
    analyze_sphere,
    decay_check,
    mode_count,
    radial_kernel,
    random_polyspline_field,
    reconstruct_spherical,
    reconstruct_spherical_integral,
    sph_harm,
    sph_harm_degree,
    sph_index,
    synthesize_directions,
    synthesize_sphere,
    _harmonic_stream,
    _order_block,
    _zonal_stream,
)


def _random_directions(rng, count):
    d = rng.normal(size=(count, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _channel_field(rng, p, degree_max, j_min, j_max, rows):
    """A generator populated only in the flat harmonic ``rows``, each drawn
    from ``rng`` in that order as :func:`random_polyspline_field` draws."""
    n_i = j_max - 2 * p - j_min + 1
    coeffs = np.zeros((mode_count(degree_max), n_i))
    for idx in rows:
        coeffs[idx] = rng.uniform(-1.0, 1.0, size=n_i)
    return SyntheticPolyspline(3, p, j_min, coeffs)


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
    for k in range(DEGREE_CAP + 1):
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


def test_stream_azimuthal_table_matches_mpmath():
    # sqrt(2) cos(m phi) and sqrt(2) sin(m phi), m <= 64, against phi =
    # atan2(y, x) at 40 digits, for directions of any length
    import mpmath

    rng = np.random.default_rng(89)
    d = rng.normal(size=(60, 3)) * rng.uniform(1e-3, 1e3, (60, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, (_, cos_m, sin_m) = next(_harmonic_stream(d, 64))
    assert cos_m.shape == sin_m.shape == (64, 60)
    root2 = math.sqrt(2.0)
    with mpmath.workdps(40):
        for p, (x, y, _) in enumerate(d):
            phi = mpmath.atan2(x=mpmath.mpf(x), y=mpmath.mpf(y))
            for m in range(1, 65):
                assert abs(cos_m[m - 1, p] / root2 - float(mpmath.cos(m * phi))) < 2e-14
                assert abs(sin_m[m - 1, p] / root2 - float(mpmath.sin(m * phi))) < 2e-14


def test_stream_conventions_on_the_axis_at_zero_and_for_one_direction():
    # on the z-axis phi = 0, at the zero vector theta = 0 too, as arctan2
    # gives them; lengths are normalised; no warning anywhere
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (0, 1, 4, 9):
            zonal_k = math.sqrt((2 * k + 1) / (4.0 * math.pi))
            north = sph_harm_degree(k, [0.0, 0.0, 3.0])
            south = sph_harm_degree(k, [0.0, 0.0, -0.5])
            want = np.zeros(2 * k + 1)
            want[k] = zonal_k
            assert np.max(np.abs(north - want)) < 1e-14 * zonal_k
            want[k] = zonal_k * (-1) ** k
            assert np.max(np.abs(south - want)) < 1e-14 * zonal_k
            assert np.array_equal(sph_harm_degree(k, np.zeros(3)), north)
            _, (_, cos_m, sin_m) = next(_harmonic_stream(np.zeros((2, 3)), k))
            assert np.all(cos_m == math.sqrt(2.0)) and np.all(sin_m == 0.0)
            d = np.array([[0.3, -0.5, 0.81], [-2.0, 0.1, 0.0]])
            batch = sph_harm_degree(k, d)
            for row, direction in enumerate(d):
                one = sph_harm_degree(k, direction)
                assert one.shape == (2 * k + 1,)
                assert np.array_equal(one, batch[:, row])
                scaled = sph_harm_degree(k, 1e3 * direction)
                assert np.max(np.abs(scaled - one)) < 1e-14


def _fresh_array_stream(directions, degree_max):
    """The harmonic stream as it was with a fresh array per degree and
    fresh square-root factors per step: the bit reference of the buffered
    one."""
    d = np.asarray(directions, dtype=float)
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    rho = np.hypot(x, y)
    length = np.hypot(rho, z)
    cos_theta = np.divide(z, length, out=np.ones_like(z), where=length > 0)
    sin_theta = np.divide(rho, length, out=np.zeros_like(z), where=length > 0)
    cos_phi = np.divide(x, rho, out=np.ones_like(x), where=rho > 0)
    sin_phi = np.divide(y, rho, out=np.zeros_like(y), where=rho > 0)
    cos_m, sin_m = np.empty((2, degree_max) + cos_phi.shape)
    np.multiply(cos_phi, math.sqrt(2.0), out=cos_m[:1])
    np.multiply(sin_phi, math.sqrt(2.0), out=sin_m[:1])
    term = np.empty_like(cos_phi)
    for m in range(1, degree_max):
        np.multiply(cos_m[m - 1], cos_phi, out=cos_m[m, ...])
        cos_m[m] -= np.multiply(sin_m[m - 1], sin_phi, out=term)
        np.multiply(sin_m[m - 1], cos_phi, out=sin_m[m, ...])
        sin_m[m] += np.multiply(cos_m[m - 1], sin_phi, out=term)
    axes = (1,) * cos_theta.ndim
    prev = None
    legendre = np.full((1,) + cos_theta.shape, 0.5 / math.sqrt(math.pi))
    for k in range(degree_max + 1):
        if k:
            older, prev = prev, legendre
            legendre = np.empty((k + 1,) + cos_theta.shape)
            if k >= 2:
                m = np.arange(k - 1).reshape((-1,) + axes)
                lower = legendre[: k - 1]
                np.multiply(prev[: k - 1], cos_theta, out=lower)
                lower *= np.sqrt((4 * k * k - 1) / ((k - m) * (k + m)))
                older *= np.sqrt(
                    (2 * k + 1) * (k + m - 1) * (k - m - 1)
                    / ((k - m) * (k + m) * (2 * k - 3))
                )
                lower -= older
            legendre[k - 1] = math.sqrt(2 * k + 1) * cos_theta * prev[k - 1]
            legendre[k] = -math.sqrt((2 * k + 1) / (2 * k)) * sin_theta * prev[k - 1]
        yield k, (legendre, cos_m, sin_m)


def test_buffered_stream_keeps_the_bits_of_fresh_arrays():
    rng = np.random.default_rng(97)
    for d in (rng.normal(size=(20000, 3)), rng.normal(size=3)):
        steps = zip(_harmonic_stream(d, 8), _fresh_array_stream(d, 8), strict=True)
        for (k, got), (want_k, want) in steps:
            assert k == want_k
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and np.array_equal(a, b)


def test_mode_indexing_is_one_to_one():
    for degree_max in range(6):
        flat = [sph_index(k, ell)
                for k in range(degree_max + 1) for ell in range(1, 2 * k + 2)]
        assert sorted(flat) == list(range(mode_count(degree_max)))
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
    for k in range(9):
        for ell in range(1, 2 * k + 2):
            ys[sph_index(k, ell)] = sph_harm(k, ell, flat)
    gram = (ys * w.reshape(1, -1)) @ ys.T
    assert np.max(np.abs(gram - np.eye(n_modes))) < 1e-10


def test_harmonic_table_is_orthonormal_at_the_grid_cap():
    # the streamed recurrence at degree 64, the largest SphereGrid: the
    # quadrature Gram matrix of all 4225 harmonics (285 MB tabulated here,
    # block by block from the stream), a row slab at a time (upper triangle
    # only) to bound the working set
    grid = SphereGrid(64)
    pts = grid.points()
    flat = np.empty((mode_count(64), pts.shape[0] * pts.shape[1]))
    for k, factors in _harmonic_stream(pts, 64):
        flat[k * k : (k + 1) ** 2] = _order_block(factors).reshape(2 * k + 1, -1)
    w = grid.quad_weights().ravel()
    worst = 0.0
    for lo in range(0, len(flat), 512):
        rows = flat[lo : lo + 512]
        gram = (rows * w) @ flat[lo:].T
        gram[:, : len(rows)] -= np.eye(len(rows))
        worst = max(worst, float(np.max(np.abs(gram))))
    assert worst < 1e-12


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


def _zonal(k, cos_gamma):
    """Z_k alone: the last value of :func:`_zonal_stream` up to degree k."""
    for _, values in _zonal_stream(cos_gamma, k):
        pass
    return values


def test_zonal_frozen_values():
    assert abs(_zonal(0, 0.37) - 1.0 / (4.0 * math.pi)) < 1e-15
    assert abs(_zonal(1, 1.0) - 3.0 / (4.0 * math.pi)) < 1e-15


@pytest.mark.parametrize("k, cos_gamma", [
    (-1, 0.3),                     # negative degree
    (2.5, 0.3),                    # non-integer degree
    (2, 1.5),                      # beyond [-1, 1] by more than roundoff
    (2, -1.5),
    (2, math.nan),
    (2, math.inf),
    (2, np.array([0.1, math.nan])),
])
def test_zonal_rejects_bad_inputs(k, cos_gamma):
    # the degree is checked where the zonal kernel is built, cos(gamma) where
    # its zonal harmonics are stepped
    with pytest.raises(ValueError):
        ShannonPolysplineKernel.build(k, 3, 1).eval(1.0, cos_gamma)


def test_zonal_matches_scipy_legendre():
    x = np.concatenate([
        np.linspace(-1.0, 1.0, 2001),  # holds -1, 0 and 1
        np.random.default_rng(61).uniform(-1.0, 1.0, 2000),
    ])
    # within 1e-12 of +-1 eval_legendre itself errs by up to eps |P_k'| <=
    # eps k(k+1)/2 relative; the mpmath test below holds zonal to 2e-13 there
    gaps = np.logspace(-16, -12, 50)
    ends = np.concatenate([1.0 - gaps, gaps - 1.0])
    for k in range(65):
        scale = (2 * k + 1) / (4.0 * math.pi)
        err = np.abs(_zonal(k, x) - scale * eval_legendre(k, x))
        assert np.max(err) <= 1e-13 * scale, k
        err = np.abs(_zonal(k, ends) - scale * eval_legendre(k, ends))
        assert np.max(err) <= (1e-13 + 2.3e-16 * k * (k + 1) / 2) * scale, k


def test_zonal_ends_match_mpmath_legendre():
    # the 100 points within 1e-12 of +-1, against an exact reference
    import mpmath

    gaps = np.logspace(-16, -12, 50)
    ends = np.concatenate([1.0 - gaps, gaps - 1.0])
    with mpmath.workdps(40):
        for k in range(65):
            scale = (2 * k + 1) / (4.0 * math.pi)
            want = np.array([scale * float(mpmath.legendre(k, mpmath.mpf(x))) for x in ends])
            assert np.max(np.abs(_zonal(k, ends) - want)) <= 2e-13 * scale, k


def test_kernel_eval_matches_scipy_legendre_sum():
    kernel = ShannonPolysplineKernel.build(8, 3, 2)
    rng = np.random.default_rng(67)
    r = np.exp(rng.uniform(-2.0, 2.0, 500))
    cosg = np.concatenate([rng.uniform(-1.0, 1.0, 497), [-1.0, 0.0, 1.0]])
    want = sum(
        tab(np.log(r)) * (2 * k + 1) / (4.0 * math.pi) * eval_legendre(k, cosg)
        for k, tab in enumerate(kernel.tables)
    )
    got = kernel.eval(r, cosg)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_zonal_reproduces_harmonics():
    grid = SphereGrid(6)
    pts = grid.points()
    w = grid.quad_weights()
    rng = np.random.default_rng(3)
    psi = _random_directions(rng, 1)[0]
    for k, ell in ((2, 1), (4, 7), (6, 13)):
        cosg = np.tensordot(pts, psi, axes=(2, 0))
        integral = float(np.sum(w * _zonal(k, cosg) * sph_harm(k, ell, pts.reshape(-1, 3)).reshape(pts.shape[:2])))
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
    # a last degree given in part counts as zero-filled
    part = coeffs[: mode_count(4) + 3]
    full = np.concatenate([part, np.zeros(len(coeffs) - len(part))])
    assert np.array_equal(synthesize_directions(part, pts), synthesize_directions(full, pts))


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
    coeffs = np.zeros((mode_count(2), 7))  # i = -4..2
    coeffs[sph_index(0, 1), 2] = 1.0  # profile Q(v - i), one-hot
    gen = SyntheticPolyspline(3, 1, -4, coeffs)
    fld = gen.sphere_field(-4, 4)
    rng2 = np.random.default_rng(5)
    r = np.exp(rng2.uniform(-1.5, 1.5, size=40))
    d = _random_directions(rng2, 40)
    got = reconstruct_spherical(fld, r, d)
    want = gen.eval(r, d)
    assert np.max(np.abs(got - want)) < 1e-5


def test_zero_field_reconstructs_to_zero():
    fld = PolysplineField(3, 1, -3, np.zeros((7, mode_count(2))))
    r = np.array([0.7, 1.0, 2.1])
    d = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
    assert np.max(np.abs(reconstruct_spherical(fld, r, d))) == 0.0


def test_mode_decoupling_leakage():
    rng = np.random.default_rng(23)
    active = [sph_index(2, 3)]
    gen = _channel_field(rng, p=1, degree_max=4, j_min=-5, j_max=5, rows=active)
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
    # directions need not be unit vectors; queries off the sphere set fail
    stretched = reconstruct_spherical_integral(fld, kernel, grid, r, 2.5 * d)
    assert np.max(np.abs(stretched - via_integral)) < 1e-12 * scale
    for bad_r, bad_d in ((0.0, d[0]), (math.inf, d[0]), (1.0, [math.nan, 0.0, 1.0]),
                         (1.0, [0.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            reconstruct_spherical_integral(fld, kernel, grid, [bad_r], [bad_d])


def _literal_formula(fld, kernel, grid, r, directions):
    """sum_j sum_g w_g f(e^j theta_g) S(r e^{-j}, theta_g.psi), one query and
    one sphere at a time, through ShannonPolysplineKernel.eval."""
    pts = grid.points().reshape(-1, 3)
    w = grid.quad_weights().reshape(-1)
    sphere_values = [synthesize_directions(row, pts) for row in fld.samples]
    r = np.atleast_1d(np.asarray(r, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    out = np.zeros(len(r))
    for q in range(len(r)):
        psi = d[q] / np.linalg.norm(d[q])
        for j, values in enumerate(sphere_values, start=fld.j_min):
            out[q] += np.sum(w * values * kernel.eval(r[q] * math.exp(-j), pts @ psi))
    return out


@pytest.mark.parametrize("degree, p, j_max, queries", [(4, 1, 4, 20), (8, 2, 6, 8)])
def test_integral_route_is_the_literal_formula(degree, p, j_max, queries):
    rng = np.random.default_rng(53 + degree)
    fld = random_polyspline_field(rng, n=3, p=p, degree_max=degree, j_min=-j_max,
                                  j_max=j_max).sphere_field(-j_max, j_max)
    kernel = ShannonPolysplineKernel.build(degree, 3, p)
    grid = SphereGrid(degree)
    r = np.exp(rng.uniform(-1.5, 1.5, size=queries))
    d = 1.7 * _random_directions(rng, queries)
    want = _literal_formula(fld, kernel, grid, r, d)
    scale = np.max(np.abs(want))
    got = reconstruct_spherical_integral(fld, kernel, grid, r, d)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    one = reconstruct_spherical_integral(fld, kernel, grid, r[0], d[0])
    assert one.shape == (1,)
    assert abs(one[0] - _literal_formula(fld, kernel, grid, r[0], d[0])[0]) <= 1e-12 * scale


def _integral_case():
    rng = np.random.default_rng(59)
    fld = random_polyspline_field(rng, n=3, p=2, degree_max=3, j_min=-5,
                                  j_max=5).sphere_field(-5, 5)
    r = np.exp(rng.uniform(-1.0, 1.0, size=6))
    return fld, r, _random_directions(rng, 6)


def test_integral_route_refuses_a_kernel_of_another_order():
    fld, r, d = _integral_case()
    with pytest.raises(ValueError, match="p = 2"):
        reconstruct_spherical_integral(
            fld, ShannonPolysplineKernel.build(3, 3, 1), SphereGrid(3), r, d)


def test_integral_route_refuses_a_kernel_short_of_the_field_degree():
    fld, r, d = _integral_case()
    with pytest.raises(ValueError, match=r"degrees 0\.\.1 .* degrees 0\.\.3"):
        reconstruct_spherical_integral(
            fld, ShannonPolysplineKernel.build(1, 3, 2), SphereGrid(3), r, d)


def test_integral_route_sums_only_the_field_degrees():
    fld, r, d = _integral_case()
    exact = reconstruct_spherical_integral(
        fld, ShannonPolysplineKernel.build(3, 3, 2), SphereGrid(3), r, d)
    longer = reconstruct_spherical_integral(
        fld, ShannonPolysplineKernel.build(6, 3, 2), SphereGrid(3), r, d)
    assert np.array_equal(longer, exact)


def test_integral_route_refuses_a_grid_below_the_field_degree():
    fld, r, d = _integral_case()
    with pytest.raises(ValueError, match="degree-2 sphere grid .* degree-3 field"):
        reconstruct_spherical_integral(
            fld, ShannonPolysplineKernel.build(3, 3, 2), SphereGrid(2), r, d)


def test_integral_route_accepts_a_finer_grid():
    fld, r, d = _integral_case()
    kernel = ShannonPolysplineKernel.build(3, 3, 2)
    exact = reconstruct_spherical_integral(fld, kernel, SphereGrid(3), r, d)
    finer = reconstruct_spherical_integral(fld, kernel, SphereGrid(5), r, d)
    assert np.max(np.abs(finer - exact)) <= 1e-12 * np.max(np.abs(exact))


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
    want = sum(z for _, z in _zonal_stream(cosg, 3))
    assert abs(kernel.eval(1.0, cosg) - want) < 1e-10


def test_kernel_evaluators_reject_bad_queries():
    # a NaN or infinite log-radius coordinate, r <= 0, and cos(gamma) that
    # is NaN or beyond [-1, 1] by more than roundoff
    with pytest.raises(ValueError, match="NaN or infinite"):
        radial_kernel(1, 3, 1)(np.array([math.nan, math.inf, 0.5]))
    kernel = ShannonPolysplineKernel.build(2, 3, 1)
    with pytest.raises(ValueError, match="NaN or infinite"):
        kernel.eval([0.0, -1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        kernel.eval(1.0, 1.5)
    with pytest.raises(ValueError, match="NaN or infinite"):
        kernel.eval(1.0, math.nan)
    for edge in (1.0, -1.0):  # roundoff beyond the edge is accepted
        got = kernel.eval(1.0, edge * (1.0 + 1e-13))
        assert got == pytest.approx(kernel.eval(1.0, edge), rel=1e-11)


def test_boundary_warning():
    fld = PolysplineField(3, 1, -3, np.ones((7, mode_count(1))))
    d = np.array([[0.0, 0.0, 1.0]])
    with pytest.warns(BoundaryTailWarning):
        reconstruct_spherical(fld, np.array([math.exp(2.9)]), d)


def test_non_finite_samples_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        samples = np.ones((7, mode_count(1)))
        samples[3, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            PolysplineField(3, 1, -3, samples)
        # the arrays stay mutable, so the reconstruction checks them again
        fld = PolysplineField(3, 1, -3, np.ones((7, mode_count(1))))
        fld.samples[3, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_spherical(fld, np.array([1.0]), np.array([[0.0, 0.0, 1.0]]))
    # radii whose log is not finite are queries off every sphere, not zeros
    fld = PolysplineField(3, 1, -3, np.ones((7, mode_count(1))))
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_spherical(fld, np.array([1.0, bad]),
                                  np.array([[0.0, 0.0, 1.0]] * 2))
    # so are directions with a NaN or infinite coordinate, and a zero vector
    # has no direction at all
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_spherical(fld, np.ones(2),
                                  np.array([[0.0, 0.0, 1.0], [0.6, bad, 0.8]]))
    with pytest.raises(ValueError, match="nonzero length"):
        reconstruct_spherical(fld, np.ones(2), np.array([[0.0, 0.0, 1.0], [0.0] * 3]))


@pytest.mark.parametrize("width", [2, 4])
def test_directions_need_three_coordinates(width):
    rng = np.random.default_rng(71)
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=2, j_min=-4, j_max=4)
    fld = gen.sphere_field(-4, 4)
    zero = PolysplineField(3, 1, -4, np.zeros_like(fld.samples))
    r, d = np.ones(3), np.ones((3, width))
    for call in (
        lambda: reconstruct_spherical(fld, r, d),
        lambda: reconstruct_spherical(zero, r, d),
        lambda: gen.eval(r, d),
        lambda: synthesize_directions(gen.coeffs[:, 0], d),
    ):
        with pytest.raises(ValueError, match="3 coordinates"):
            call()


def test_kernel_source_selects_the_tables():
    rng = np.random.default_rng(29)
    gen = _channel_field(rng, p=1, degree_max=3, j_min=-5, j_max=5,
                         rows=[0, 1, 2, 3, 9, 11])
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


def test_kernel_route_calls_each_degree_table_once():
    rng = np.random.default_rng(31)
    fld = random_polyspline_field(rng, n=3, p=2, degree_max=4).sphere_field(-6, 6)
    r = np.exp(rng.uniform(-2.0, 2.0, size=150))
    d = _random_directions(rng, 150)
    calls = {}

    def counting(sv):
        tab = synthesize_kernel(sv)

        def table(t):
            calls[sv] = calls.get(sv, 0) + 1
            return tab(t)

        return table

    reconstruct_spherical(fld, r, d, kernel=counting)
    assert calls == {radial_spectrum(k, 3, 2): 1 for k in range(5)}


def test_degree_cap_holds_on_both_routes():
    samples = np.zeros((7, mode_count(33)))
    samples[:, 33 * 33] = 1.0  # one channel of degree 33
    fld = PolysplineField(3, 1, -3, samples)
    r, d = np.array([1.0]), np.array([[0.0, 0.0, 1.0]])
    for kernel in (None, synthesize_kernel):
        with pytest.raises(ValueError, match="cancellation guard 32"):
            reconstruct_spherical(fld, r, d, kernel=kernel)
    gen = SyntheticPolyspline(3, 1, -3, samples.T.copy())
    with pytest.raises(ValueError, match="cancellation guard 32"):
        gen.eval(r, d)


def test_sphere_fields_need_dimension_3():
    rng = np.random.default_rng(67)
    for n in (2, 4):
        with pytest.raises(ValueError, match="n = 3"):
            random_polyspline_field(rng, n=n, p=1, degree_max=1)
        with pytest.raises(ValueError, match="n = 3"):
            PolysplineField(n, 1, -3, np.ones((7, mode_count(1))))

"""Acceptance battery: one test per shipped guarantee, tolerances pinned.

Each test prints a single summary line with the measured extremes (visible
with ``pytest -s`` and in failure reports), so a run of this module doubles
as a numerical scorecard for the library.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import BSpline

from polyshannon import (
    SamplingGrid,
    SphereGrid,
    SpectrumVector,
    analyze_sphere,
    cardinal_series,
    decay_check,
    ef_zeros,
    euler_frobenius,
    euler_spline,
    euler_spline_resolvent,
    radial_spectrum,
    random_polyspline_field,
    random_strip_field,
    reconstruct_spherical,
    reconstruct_strip,
    sph_index,
    strip_kernel,
    strip_spectrum,
    synthesize_dual,
    synthesize_kernel,
    tb_exact,
    tb_integer_values,
    tb_tabulate,
)
from polyshannon.cli import main
from polyshannon.spherical import SyntheticPolyspline, synthesize_directions
from polyshannon.strip import synthesize_torus

SEED = 20260822

SV = SpectrumVector.from_frequencies


def _full_battery():
    classical = [SV([0.0] * (2 * p)) for p in (1, 2, 3, 4)]
    strips = [strip_spectrum(float(k), p) for p in (1, 2) for k in range(9)]
    radial = [radial_spectrum(k, 3, p) for p in (1, 2) for k in range(17)]
    return classical, strips, radial


def test_euler_frobenius_zero_structure():
    classical, strips, radial = _full_battery()
    battery = classical + strips + radial
    t0 = time.perf_counter()
    worst_pair = 0.0
    for sv in battery:
        zeros = ef_zeros(sv)
        assert len(zeros) == sv.order - 2
        assert np.all(zeros < 1e-8), f"non-negative zero for {sv}"
        if sv.is_symmetric() and len(zeros) > 0:
            prods = zeros * zeros[::-1]
            worst_pair = max(worst_pair, float(np.max(np.abs(prods - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst_pair <= 1e-8
    assert elapsed < 5.0
    print(f"acceptance[zero structure]: {len(battery)} spectra, "
          f"worst reciprocal pairing {worst_pair:.2e}, {elapsed:.2f}s")


def test_cubic_zeros_closed_form():
    zeros = ef_zeros(SV([0.0, 0.0, 0.0, 0.0]))
    want = np.array([-2.0 - math.sqrt(3.0), -2.0 + math.sqrt(3.0)])
    dev = float(np.max(np.abs(zeros - want)))
    assert dev <= 1e-10
    print(f"acceptance[cubic zeros]: deviation from -2 +/- sqrt(3) is {dev:.2e}")


def test_symbol_polynomial_circle_bounds():
    classical, strips, _ = _full_battery()
    xi = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    ring = np.exp(1j * xi)
    worst = 0.0
    for sv in classical + strips:
        if sv.order < 2:
            continue
        poly = euler_frobenius(sv)
        on_circle = np.abs(poly(ring))
        lo, hi = abs(poly(-1.0)), abs(poly(1.0))
        scale = max(1.0, hi)
        worst = max(
            worst,
            float(np.max(lo - on_circle)) / scale,
            float(np.max(on_circle - hi)) / scale,
        )
    assert worst <= 1e-10
    print(f"acceptance[circle bounds]: worst bound violation {worst:.2e}")


def test_functional_equation_cross_routes():
    # The pole/residue closed form and the finite TB sum are independent
    # algorithms; each identity is checked with one side per route, scaled
    # by the all-positive sum at |lambda| (which majorizes both sides).
    classical, strips, radial = _full_battery()
    battery = classical + strips + radial
    rng = np.random.default_rng(SEED)
    shift = half = recip = 0.0
    for sv in battery:
        n = sv.order
        # draw x, then lam, per sample; each TB sum then runs once per spectrum
        x, lam = np.array([
            (float(rng.uniform(0.0, 1.0)),
             float(rng.uniform(0.2, 5.0)) * (-1.0) ** rng.integers(0, 2))
            for _ in range(20)
        ]).T
        a = np.array([euler_spline_resolvent(sv, xi, li)
                      for xi, li in zip(x + 1.0, lam)])
        b = lam * euler_spline(sv, x, lam)
        den = euler_spline(sv, x + 1.0, np.abs(lam))
        shift = max(shift, np.max(np.abs(a - b) / den))
        if sv.is_symmetric():
            c = np.array([euler_spline_resolvent(sv, n / 2.0, li) for li in lam])
            d = lam ** (n // 2) * euler_spline(sv, 0.0, lam)
            den2 = euler_spline(sv, n / 2.0, np.abs(lam))
            half = max(half, np.max(np.abs(c - d) / den2))
            e = euler_spline(sv, n / 2.0, 1.0 / lam)
            recip = max(recip, np.max(np.abs(c - e) / den2))
    assert shift <= 1e-9
    assert half <= 1e-9
    assert recip <= 1e-9
    print(f"acceptance[functional equations]: shift {shift:.2e}, "
          f"half-period {half:.2e}, reciprocal {recip:.2e}")


def test_pointwise_values_against_oracles():
    rng = np.random.default_rng(SEED)
    # classical orders against the B-spline recursion (scipy builds the
    # basis element by Cox-de Boor)
    worst_classical = 0.0
    for n in (2, 4, 6, 8):
        sv = SV([0.0] * n)
        basis = BSpline.basis_element(np.arange(n + 1.0), extrapolate=False)
        ts = rng.uniform(0.01, n - 0.01, size=50)
        worst_classical = max(
            worst_classical, float(np.max(np.abs(tb_exact(sv, ts) - basis(ts))))
        )
    assert worst_classical <= 1e-10

    # stiff radial spectra against the Fourier-side tabulation, which never
    # cancels and so cross-checks the escalated Green's-function sum; compare
    # at the table's own nodes -- off-node evaluation adds interpolation
    # error of order (lambda/per_unit)^6 that has nothing to do with either route
    worst_radial = 0.0
    for p in (1, 2):
        for k in range(17):
            sv = radial_spectrum(k, 3, p)
            table = tb_tabulate(sv)
            ts = np.arange(len(table.values)) / table.per_unit
            exact = tb_exact(sv, ts)
            scale = float(np.max(np.abs(exact)))
            worst_radial = max(
                worst_radial, float(np.max(np.abs(table.values - exact))) / scale
            )
    assert worst_radial <= 1e-7
    print(f"acceptance[pointwise oracles]: classical {worst_classical:.2e}, "
          f"radial vs tabulation at nodes {worst_radial:.2e}")


def test_cardinal_reconstruction_battery():
    classical, strips, radial = _full_battery()
    battery = classical + strips + radial
    rng = np.random.default_rng(SEED)
    grid = np.linspace(-3.0, 3.0, 61)
    shifts = np.arange(-8, 9)
    t0 = time.perf_counter()
    worst = 0.0
    for sv in battery:
        n = sv.order
        tab = synthesize_kernel(sv)
        qmat = np.stack([tb_exact(sv, grid - i) for i in shifts])
        qint = np.asarray(tb_integer_values(sv))
        jm = np.arange(-40, 41)
        smat = np.zeros((len(shifts), len(jm)))
        for a, i in enumerate(shifts):
            d = jm - i
            mask = (d >= 1) & (d <= n - 1)
            smat[a, mask] = qint[d[mask] - 1]
        coeffs = rng.uniform(-1.0, 1.0, size=(20, len(shifts)))
        truth = coeffs @ qmat
        samples = coeffs @ smat
        for f in range(20):
            rebuilt = cardinal_series(tab, -40, samples[f], grid)
            err = float(np.max(np.abs(rebuilt - truth[f])))
            worst = max(worst, err / max(1.0, float(np.max(np.abs(truth[f])))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 30.0
    print(f"acceptance[cardinal reconstruction]: {len(battery)} spectra x 20 "
          f"fields, worst grid error {worst:.2e}, {elapsed:.1f}s")


def test_reproducing_kernel_cardinal_pairings():
    # q(., 0) = sum_m Q(m) dual(. + m) is the reproducing kernel at the
    # origin; pairing its shifts with the interpolant's shifts must return
    # the Kronecker delta, computed here by per-unit Gauss panels so the
    # check exercises both synthesized tables rather than the algebra.
    nodes, wts = leggauss(12)
    worst = 0.0
    for freqs in ([0.0] * 4, [-1.0, 0.0, 0.0, 1.0], [3.0, -3.0]):
        sv = SV(freqs)
        n = sv.order
        s0 = synthesize_kernel(sv)
        dual = synthesize_dual(sv)
        qint = np.asarray(tb_integer_values(sv))
        panels = np.arange(-26, 26)
        xs = np.concatenate([0.5 * (nodes + 1.0) + a for a in panels])
        ws = np.tile(0.5 * wts, len(panels))
        for j in range(-2, 3):
            q0j = np.zeros_like(xs)
            for m in range(1, n):
                q0j += qint[m - 1] * dual(xs - j + m)
            for k in range(-2, 3):
                val = float(np.sum(ws * q0j * s0(xs - k)))
                worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    assert worst <= 1e-5
    print(f"acceptance[reproducing pairings]: worst delta deviation {worst:.2e}")


def test_radial_shannon_kernel_uniform_bounds():
    lines = []
    for p in (1, 2):
        rows = [r for r in decay_check(3, p, 32) if 8 <= r.degree <= 32]
        prods = [r.degree * r.sup_fourier for r in rows]
        sups = [r.sup_time for r in rows]
        f_ratio = max(prods) / min(prods)
        t_ratio = max(sups) / float(np.median(sups))
        assert f_ratio <= 4.0
        assert t_ratio <= 3.0
        lines.append(f"p={p}: fourier ratio {f_ratio:.3f}, time ratio {t_ratio:.3f}")
    print(f"acceptance[radial kernel bounds]: {'; '.join(lines)}")


def test_spherical_field_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    gen = random_polyspline_field(rng, n=3, p=2, degree_max=8, j_min=-6, j_max=6)
    fld = gen.sphere_field(-6, 6)
    r = np.exp(rng.uniform(-2.0, 2.0, size=1000))
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    got = reconstruct_spherical(fld, r, dirs)
    want = gen.eval(r, dirs)
    scale = float(np.max(np.abs(want)))
    rel = float(np.max(np.abs(got - want))) / scale
    assert rel <= 1e-4

    # a single active harmonic channel must not leak into any other channel
    idx0 = sph_index(3, 4)
    coeffs = np.zeros((81, 9))  # degree <= 8; i = -6..2
    coeffs[idx0] = np.random.default_rng(5).uniform(-1.0, 1.0, size=9)
    lone = SyntheticPolyspline(3, 2, -6, coeffs)
    grid = SphereGrid(8)
    pts = grid.points().reshape(-1, 3)
    vals = reconstruct_spherical(
        lone.sphere_field(-6, 6), np.full(len(pts), math.exp(0.3)), pts
    ).reshape(grid.points().shape[:2])
    coeff = analyze_sphere(grid, vals)
    own = abs(float(coeff[idx0]))
    others = np.abs(np.delete(coeff, idx0))
    leak = float(np.max(others)) / max(1.0, own)
    assert leak <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"acceptance[sphere reconstruction]: rel error {rel:.2e}, "
          f"leakage {leak:.2e}, {elapsed:.1f}s")


def test_strip_field_reconstruction():
    rng = np.random.default_rng(SEED)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=4, j_min=-8, j_max=8)
    fld = gen.plane_field(-8, 8)
    t = rng.uniform(-3.0, 3.0, size=400)
    ys = rng.uniform(0.0, 2.0 * np.pi, size=(400, 2))
    got = reconstruct_strip(fld, t, ys)
    want = gen.eval(t, ys)
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-5

    # the zero-frequency torus mode must ride the classical kernel, same bits
    shared = strip_kernel(0.0, 1)
    classic = synthesize_kernel(SV([0.0, 0.0]))
    assert np.array_equal(shared.values, classic.values)
    print(f"acceptance[strip reconstruction]: max error {err:.2e}, "
          f"zero-mode kernel bit-identical")


def test_v0_fields_reconstruct_to_roundoff():
    # complete cardinal data of V_0 fields: the default coefficient route is
    # exact up to roundoff, where the tables stop at their interpolation error
    rng = np.random.default_rng(SEED)
    gen = random_polyspline_field(rng, n=3, p=2, degree_max=16, j_min=-6, j_max=6)
    r = np.exp(rng.uniform(-2.0, 2.0, size=400))
    dirs = rng.normal(size=(400, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    want = gen.eval(r, dirs)
    got = reconstruct_spherical(gen.sphere_field(-6, 6), r, dirs)
    sphere = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
    assert sphere <= 1e-13

    sgen = random_strip_field(rng, dimension=2, p=2, cutoff=8, j_min=-6, j_max=6)
    t = rng.uniform(-3.0, 3.0, size=400)
    ys = rng.uniform(0.0, 2.0 * np.pi, size=(400, 2))
    swant = sgen.eval(t, ys)
    sgot = reconstruct_strip(sgen.plane_field(-6, 6), t, ys)
    strip = float(np.max(np.abs(sgot - swant))) / float(np.max(np.abs(swant)))
    assert strip <= 1e-13
    print(f"acceptance[V_0 reconstruction]: sphere K=16 {sphere:.2e}, "
          f"strip cutoff 8 {strip:.2e}")


@pytest.mark.parametrize("kernel", [None, synthesize_kernel],
                         ids=["coefficients", "tables"])
@pytest.mark.parametrize("seed", range(5))
def test_reconstructions_interpolate_the_sample_nodes(seed, kernel):
    # at r = e^j (t = j) both reconstructions return the data of sphere
    # (plane) j, on either route
    rng = np.random.default_rng(seed)
    js = np.repeat(np.arange(-4, 5), 12)
    gen = random_polyspline_field(rng, n=3, p=2, degree_max=6, j_min=-6, j_max=6)
    fld = gen.sphere_field(-6, 6)
    d = rng.normal(size=(len(js), 3))
    got = reconstruct_spherical(fld, np.exp(js.astype(float)), d, kernel=kernel)
    want = np.concatenate([
        synthesize_directions(fld.samples[j - fld.j_min], d[js == j])
        for j in range(-4, 5)
    ])
    sphere = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))

    sgen = random_strip_field(rng, dimension=2, p=2, cutoff=4, j_min=-6, j_max=6)
    sfld = sgen.plane_field(-6, 6)
    ys = rng.uniform(0.0, 2.0 * np.pi, size=(len(js), 2))
    sgot = reconstruct_strip(sfld, js.astype(float), ys, kernel=kernel)
    swant = np.concatenate([
        synthesize_torus(sfld, j, ys[js == j]) for j in range(-4, 5)
    ])
    strip = float(np.max(np.abs(sgot - swant))) / float(np.max(np.abs(swant)))
    assert sphere <= 1e-13 and strip <= 1e-13
    print(f"acceptance[interpolation at the nodes]: sphere {sphere:.2e}, "
          f"strip {strip:.2e}")


def test_cli_reports_and_kernel_files_are_stable(tmp_path):
    for sub in ("a", "b"):
        assert main(["verify", "--out", str(tmp_path / sub)]) == 0
    ra = (tmp_path / "a" / "verify-report.csv").read_bytes()
    rb = (tmp_path / "b" / "verify-report.csv").read_bytes()
    assert ra == rb
    ta = (tmp_path / "a" / "verify-report.txt").read_bytes()
    tb = (tmp_path / "b" / "verify-report.txt").read_bytes()
    assert ta == tb

    tab = synthesize_kernel(SV([3.0, -3.0]), SamplingGrid(32, 20))
    path = tmp_path / "kernel.pskt"
    tab.save(path)
    back = type(tab).load(path)
    assert back.spectrum == tab.spectrum
    assert back.per_unit == tab.per_unit
    assert back.t_min == tab.t_min
    assert np.array_equal(back.values, tab.values)
    print("acceptance[cli stability]: reports byte-identical, "
          "kernel file round-trip bit-exact")

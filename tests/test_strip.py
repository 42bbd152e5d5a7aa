"""Torus modes, strip kernels, hyperplane analysis, strip reconstruction."""

import itertools
import math

import numpy as np
import pytest

from polyshannon import shannon1d, strip
from polyshannon.shannon1d import (
    SamplingGrid,
    cardinal_series,
    channel_series,
    check_channel_queries,
    spline_series,
    synthesize_kernel,
    tb_superposition,
)
from polyshannon.spectrum import SpectrumVector, strip_spectrum
from polyshannon.spherical import BoundaryTailWarning
from polyshannon.strip import (
    StripField,
    SyntheticStripField,
    _TorusPhases,
    analyze_torus,
    random_strip_field,
    reconstruct_strip,
    strip_kernel,
    synthesize_torus,
    torus_modes,
)


def test_torus_mode_set_structure():
    modes = torus_modes(2, 4)
    assert modes[0] == (0, 0)
    as_set = set(modes)
    assert all(tuple(-c for c in kappa) in as_set for kappa in modes)
    assert all(sum(c * c for c in kappa) <= 16 for kappa in modes)
    brute = sum(
        1
        for a in range(-4, 5)
        for b in range(-4, 5)
        if a * a + b * b <= 16
    )
    assert len(modes) == brute


def test_torus_modes_match_the_filtered_cube():
    # the ball built axis by axis equals the cube filter, tuple for tuple
    for dim in range(1, 5):
        for cutoff in range(7):
            cube = [
                kappa
                for kappa in itertools.product(range(-cutoff, cutoff + 1), repeat=dim)
                if sum(c * c for c in kappa) <= cutoff * cutoff
            ]
            cube.sort(key=lambda kappa: (sum(c * c for c in kappa), kappa))
            assert torus_modes(dim, cutoff) == tuple(cube), (dim, cutoff)
    # a high-dimensional ball stays small: 2 dim + 1 modes at cutoff 1
    assert len(torus_modes(30, 1)) == 61


def test_torus_modes_validation():
    with pytest.raises(ValueError):
        torus_modes(0, 3)
    with pytest.raises(ValueError):
        torus_modes(2, -1)


def test_kernel_shared_between_equal_norms():
    a = strip_kernel(math.hypot(3.0, 4.0), 2)
    b = strip_kernel(math.hypot(5.0, 0.0), 2)
    assert a is b  # same cache slot: |kappa|^2 = 25 for both
    assert np.array_equal(a.values, b.values)


def test_zero_mode_kernels_match_classical():
    cubic = synthesize_kernel(SpectrumVector.from_frequencies([0.0] * 4))
    assert np.array_equal(strip_kernel(0.0, 2).values, cubic.values)
    linear = synthesize_kernel(SpectrumVector.from_frequencies([0.0, 0.0]))
    assert np.array_equal(strip_kernel(0.0, 1).values, linear.values)


def test_hat_kernel_closed_form():
    tab = strip_kernel(0.0, 1)
    t = np.linspace(-2.0, 2.0, 161)
    assert np.max(np.abs(tab(t) - np.clip(1.0 - np.abs(t), 0.0, None))) < 1e-10


def test_irrational_frequency_kernel_is_cardinal():
    tab = strip_kernel(math.sqrt(2.0), 1)
    assert tab.spectrum.expand() == (-math.sqrt(2.0), math.sqrt(2.0))
    for j in range(-4, 5):
        want = 1.0 if j == 0 else 0.0
        assert abs(tab(float(j)) - want) < 1e-12


# --------------------------------------------------------------------------
# torus analysis
# --------------------------------------------------------------------------

def test_analyze_constant_field():
    values = np.ones((3, 16, 16))
    fld = analyze_torus(values, 2, 4, 1, j_min=-1)
    zero_col = fld.modes.index((0, 0))
    assert np.max(np.abs(fld.samples[:, zero_col] - 1.0)) < 1e-12
    others = np.delete(fld.samples, zero_col, axis=1)
    assert np.max(np.abs(others)) < 1e-12


def test_analyze_cosine_mode():
    g = 16
    ys = 2.0 * math.pi * np.arange(g) / g
    yy1, yy2 = np.meshgrid(ys, ys, indexing="ij")
    trace = np.cos(2.0 * yy1 + 1.0 * yy2)
    fld = analyze_torus(trace[None, :, :], 2, 4, 1, j_min=0)
    plus = fld.modes.index((2, 1))
    minus = fld.modes.index((-2, -1))
    assert abs(fld.samples[0, plus] - 0.5) < 1e-12
    assert abs(fld.samples[0, minus] - 0.5) < 1e-12
    rest = [i for i in range(len(fld.modes)) if i not in (plus, minus)]
    assert np.max(np.abs(fld.samples[0, rest])) < 1e-12


def test_analyze_synthesize_roundtrip():
    rng = np.random.default_rng(61)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=3, j_min=-4, j_max=4)
    # the traces of the planes j = -4..4 on a 16 x 16 torus grid
    ys = 2.0 * math.pi * np.arange(16) / 16
    yy1, yy2 = np.meshgrid(ys, ys, indexing="ij")
    pts = np.column_stack([yy1.ravel(), yy2.ravel()])
    js = np.arange(-4.0, 5.0)
    values = gen.eval(np.repeat(js, len(pts)), np.tile(pts, (len(js), 1)))
    values = values.reshape(len(js), 16, 16)
    fld = analyze_torus(values, 2, 3, 1, j_min=-4)
    direct = gen.plane_field(-4, 4)
    assert fld.modes == direct.modes
    assert np.max(np.abs(fld.samples - direct.samples)) < 1e-10
    # and back out to torus points
    resynth = synthesize_torus(fld, 0, pts).reshape(16, 16)
    assert np.max(np.abs(resynth - values[4])) < 1e-10


def test_analyze_rejects_bad_grids():
    with pytest.raises(ValueError):
        analyze_torus(np.ones((2, 12, 12)), 2, 4, 1, 0)  # 12 not a power of 2
    with pytest.raises(ValueError):
        analyze_torus(np.ones((2, 8, 8)), 2, 4, 1, 0)  # below 2K+2
    with pytest.raises(ValueError):
        analyze_torus(np.ones((2, 16, 8)), 2, 3, 1, 0)  # anisotropic


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def test_strip_field_conjugate_symmetry():
    rng = np.random.default_rng(67)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=3, j_min=-5, j_max=5)
    fld = gen.plane_field(-5, 5)
    # f_{-kappa} = conj(f_kappa) for every mode, to 1e-12 of max(1, max|f|)
    mirror = [fld.modes.index(tuple(-c for c in kappa)) for kappa in fld.modes]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(fld.samples))))
    assert np.max(np.abs(fld.samples[:, mirror] - np.conj(fld.samples))) <= tol


def test_reconstruction_matches_generator():
    rng = np.random.default_rng(71)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=3, j_min=-6, j_max=6)
    fld = gen.plane_field(-6, 6)
    rng2 = np.random.default_rng(73)
    t = rng2.uniform(-2.0, 2.0, size=120)
    ys = rng2.uniform(0.0, 2.0 * math.pi, size=(120, 2))
    got = reconstruct_strip(fld, t, ys)
    want = gen.eval(t, ys)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < 1e-6 * scale


def test_reconstruction_is_real_for_symmetric_fields():
    rng = np.random.default_rng(79)
    gen = random_strip_field(rng, dimension=2, p=2, cutoff=2, j_min=-6, j_max=6)
    fld = gen.plane_field(-6, 6)
    t = np.linspace(-1.5, 1.5, 31)
    ys = np.column_stack([np.linspace(0, 5.0, 31), np.linspace(1.0, 4.0, 31)])
    acc = channel_series(fld, *check_channel_queries(t, ys))
    assert np.max(np.abs(acc.imag)) < 1e-9 * max(1.0, np.max(np.abs(acc.real)))


def test_zero_field_and_boundary_warning():
    fld = StripField(2, 1, 1, -3, np.zeros((7, len(torus_modes(2, 1))), complex))
    t = np.array([0.0, 0.5])
    ys = np.zeros((2, 2))
    assert np.max(np.abs(reconstruct_strip(fld, t, ys))) == 0.0
    with pytest.warns(BoundaryTailWarning):
        reconstruct_strip(fld, np.array([2.7]), np.zeros((1, 2)))


def test_far_query_is_zero_with_a_warning():
    rng = np.random.default_rng(109)
    gen = random_strip_field(rng, dimension=2, p=2, cutoff=2, j_min=-6, j_max=6)
    fld = gen.plane_field(-6, 6)
    with pytest.warns(BoundaryTailWarning):
        got = reconstruct_strip(fld, np.array([fld.j_max + 1e6]), np.ones((1, 2)))
    assert got.tolist() == [0.0]


def test_torus_phases_match_direct_exponentials():
    rng = np.random.default_rng(113)
    for dim, cutoff in ((1, 5), (2, 8), (3, 3)):
        ys = rng.uniform(0.0, 2.0 * math.pi, size=(300, dim))
        modes = torus_modes(dim, cutoff)
        got = _TorusPhases(ys, dim, cutoff)(modes)
        want = np.exp(1j * (ys @ np.asarray(modes).T)).T
        assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("width", [1, 3])
def test_torus_points_need_dimension_coordinates(width):
    rng = np.random.default_rng(89)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-4, j_max=4)
    fld = gen.plane_field(-4, 4)
    zero = StripField(2, 1, 2, -4, np.zeros_like(fld.samples))
    t, ys = np.zeros(3), np.ones((3, width))
    for call in (
        lambda: reconstruct_strip(fld, t, ys),
        lambda: reconstruct_strip(zero, t, ys),
        lambda: gen.eval(t, ys),
        lambda: synthesize_torus(fld, 0, ys),
    ):
        with pytest.raises(ValueError, match="2 coordinates"):
            call()


def test_single_cubic_profile_zero_mode():
    # kappa = 0 channel alone: reduces to classical cubic 1-D exactness
    rng = np.random.default_rng(83)
    modes = torus_modes(2, 2)
    n_i = 13 - 4
    coeffs = np.zeros((len(modes), n_i), dtype=complex)
    coeffs[modes.index((0, 0))] = rng.uniform(-1.0, 1.0, size=n_i)
    from polyshannon.strip import SyntheticStripField

    gen = SyntheticStripField(2, 2, 2, -6, coeffs)
    fld = gen.plane_field(-6, 6)
    t = np.linspace(-2.5, 2.5, 101)
    ys = np.zeros((101, 2))
    got = reconstruct_strip(fld, t, ys)
    want = gen.eval(t, ys)
    assert np.max(np.abs(got - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def test_generator_groups_match_per_mode_profiles():
    rng = np.random.default_rng(101)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=3, j_min=-5, j_max=5)
    t = rng.uniform(-4.0, 4.0, size=50)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(50, 2))
    want = np.zeros(50, dtype=complex)
    for coeffs, kappa in zip(gen.coeffs, gen.modes):
        sv = strip_spectrum(math.hypot(*kappa), gen.smoothness)
        want += tb_superposition(sv, gen.i_min, coeffs, t) * np.exp(
            1j * (ys @ np.asarray(kappa))
        )
    assert np.max(np.abs(gen.eval(t, ys) - want.real)) < 1e-13 * np.max(np.abs(want))
    fld = gen.plane_field(-5, 5)
    kappa = gen.modes.index((2, -1))
    sv = strip_spectrum(math.sqrt(5.0), gen.smoothness)
    col = tb_superposition(sv, gen.i_min, gen.coeffs[kappa], np.arange(-5.0, 6.0))
    assert np.max(np.abs(fld.samples[:, kappa] - col)) < 1e-14


def test_non_finite_samples_are_rejected():
    modes = torus_modes(2, 1)
    for bad in (math.nan, complex(0.0, math.inf)):
        samples = np.ones((7, len(modes)), dtype=complex)
        samples[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            StripField(2, 1, 1, -3, samples)
        # the arrays stay mutable, so the reconstruction checks them again
        fld = StripField(2, 1, 1, -3, np.ones((7, len(modes)), dtype=complex))
        fld.samples[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_strip(fld, np.array([0.0]), np.zeros((1, 2)))
    fld = StripField(2, 1, 1, -3, np.ones((7, len(modes)), dtype=complex))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_strip(fld, np.array([0.0, bad]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="NaN or infinite"):
            reconstruct_strip(fld, np.zeros(2), np.array([[0.0, 1.0], [bad, 0.5]]))


def test_kernel_source_selects_the_tables():
    rng = np.random.default_rng(103)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-6, j_max=6)
    fld = gen.plane_field(-6, 6)
    t = rng.uniform(-2.0, 2.0, size=50)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(50, 2))
    default = reconstruct_strip(fld, t, ys)

    # the default tables: the paper's series, agreeing with the default
    # coefficient route to the tables' interpolation error
    explicit = reconstruct_strip(fld, t, ys, kernel=synthesize_kernel)
    assert np.max(np.abs(explicit - default)) < 1e-6 * np.max(np.abs(default))

    asked = []

    def coarse(sv):
        asked.append(sv)
        return synthesize_kernel(sv, SamplingGrid(16, 24))

    got = reconstruct_strip(fld, t, ys, kernel=coarse)
    # one table per distinct |kappa|: 0, 1, sqrt 2, 2
    assert asked == [strip_spectrum(math.sqrt(k), 1) for k in (0, 1, 2, 4)]
    assert not np.array_equal(got, default)
    assert np.max(np.abs(got - default)) < 1e-4 * np.max(np.abs(default))


def _complex_rows(rng, modes, count, kind):
    """(modes, count) complex rows: random and not conjugate-symmetric, only
    one member of some +-kappa pairs nonzero, kappa = 0 only (complex, so
    Im c_0 must drop out), or zero."""
    rows = np.zeros((len(modes), count), dtype=complex)
    if kind == "random":
        rows[:] = rng.uniform(-1.0, 1.0, rows.shape) + 1j * rng.uniform(-1.0, 1.0, rows.shape)
    elif kind == "one-sided":
        for kappa in ((1, 0), (-2, 1), (0, -3), (1, 1)):
            rows[modes.index(kappa)] = rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(
                -1.0, 1.0, count
            )
    elif kind == "zero-mode":
        rows[0] = rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
    return rows


def _mode_sum(modes, ys, profile):
    """sum_kappa profile(i, kappa) e^{i y.kappa}, mode by mode, complex."""
    acc = np.zeros(len(ys), dtype=complex)
    for i, kappa in enumerate(modes):
        acc += profile(i, kappa) * np.exp(1j * (ys @ np.asarray(kappa, dtype=float)))
    return acc


def _close(got, want):
    assert got.dtype == np.float64
    if not np.any(want):
        assert not np.any(got)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["random", "symmetric", "one-sided", "zero-mode", "zero"])
def test_real_basis_is_exact_for_any_complex_rows(kind):
    # the cos/sin pairing equals Re of the complex mode sum, conjugate
    # symmetry or not, against a mode-by-mode np.exp reference
    rng = np.random.default_rng(127)
    p, cutoff = 2, 3
    modes = torus_modes(2, cutoff)
    t = rng.uniform(-2.0, 2.0, size=60)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(60, 2))
    if kind == "symmetric":
        gen = random_strip_field(rng, dimension=2, p=p, cutoff=cutoff, j_min=-7, j_max=7)
        fld = gen.plane_field(-7, 7)
    else:
        gen = SyntheticStripField(2, p, cutoff, -7, _complex_rows(rng, modes, 11, kind))
        fld = StripField(2, p, cutoff, -7, _complex_rows(rng, modes, 15, kind).T)

    def spectrum(kappa):
        return strip_spectrum(math.hypot(*kappa), p)

    series = _mode_sum(
        modes, ys, lambda i, k: spline_series(spectrum(k), -7, fld.samples[:, i], t)
    )
    tables = _mode_sum(
        modes, ys,
        lambda i, k: cardinal_series(synthesize_kernel(spectrum(k)), -7, fld.samples[:, i], t),
    )
    values = _mode_sum(
        modes, ys, lambda i, k: tb_superposition(spectrum(k), -7, gen.coeffs[i], t)
    )
    _close(reconstruct_strip(fld, t, ys), series.real)
    _close(reconstruct_strip(fld, t, ys, kernel=synthesize_kernel), tables.real)
    _close(gen.eval(t, ys), values.real)
    if kind in ("symmetric", "zero"):
        # real fields: the complex sum's imaginary part is roundoff
        for want in (series, tables, values):
            assert np.max(np.abs(want.imag)) <= 1e-14 * max(1.0, np.max(np.abs(want.real)))


def test_strip_series_and_phases_run_real(monkeypatch):
    rng = np.random.default_rng(131)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=4, j_min=-6, j_max=6)
    fld = gen.plane_field(-6, 6)
    t = rng.uniform(-2.0, 2.0, size=40)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(40, 2))
    dtypes, asked = [], []

    sums, series = shannon1d._translate_sums, shannon1d.cardinal_series

    def summed(terms, t):
        dtypes.extend(("_translate_sums", rows.dtype) for _, _, rows in terms)
        return sums(terms, t)

    def tabled(table, j_min, coeffs, t):
        dtypes.append(("cardinal_series", np.asarray(coeffs).dtype))
        return series(table, j_min, coeffs, t)

    monkeypatch.setattr(shannon1d, "_translate_sums", summed)
    monkeypatch.setattr(shannon1d, "cardinal_series", tabled)
    phases = strip._TorusPhases.__call__

    def counted(self, modes):
        asked[-1] += len(modes)
        return phases(self, modes)

    monkeypatch.setattr(strip._TorusPhases, "__call__", counted)
    for run in (
        lambda: reconstruct_strip(fld, t, ys),
        lambda: reconstruct_strip(fld, t, ys, kernel=synthesize_kernel),
        lambda: gen.eval(t, ys),
    ):
        asked.append(0)
        run()
        assert 0 < asked[-1] <= (len(fld.modes) + 1) // 2
    assert {name for name, _ in dtypes} == {"_translate_sums", "cardinal_series"}
    assert all(dtype == np.float64 for _, dtype in dtypes), dtypes

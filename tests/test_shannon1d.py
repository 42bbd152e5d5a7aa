"""Shannon-type kernels: symbols, synthesis, duals, cardinal reconstruction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from polyshannon import shannon1d, tbspline
from polyshannon.shannon1d import (
    BoundaryTailWarning,
    KernelTable,
    NarrowGridError,
    NotSamplableError,
    SamplingGrid,
    cardinal_series,
    channel_samples,
    channel_series,
    channel_values,
    kernel_fourier,
    sampled_symbol,
    spline_series,
    symbol_margin,
    synthesize_dual,
    synthesize_kernel,
    tb_superposition,
)
from polyshannon.shannon1d import FormatError
from polyshannon.spectrum import SpectrumVector
from polyshannon.spherical import (
    PolysplineField,
    ShannonPolysplineKernel,
    SphereGrid,
    random_polyspline_field,
    reconstruct_spherical,
    reconstruct_spherical_integral,
)
from polyshannon.strip import StripField, random_strip_field, reconstruct_strip
from polyshannon.tbspline import tb_chebyshev, tb_exact, tb_fourier

CUBIC = SpectrumVector.from_frequencies([0.0, 0.0, 0.0, 0.0])
LINEAR = SpectrumVector.from_frequencies([0.0, 0.0])
SYM4 = SpectrumVector.from_frequencies([-1.0, 0.0, 0.0, 1.0])
EXP2 = SpectrumVector.from_frequencies([3.0, -3.0])
SKEW = SpectrumVector.from_frequencies([0.5, -1.3])

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


def _gl(f, a, b):
    x = 0.5 * (b - a) * _GL_X + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(_GL_W, f(x)))


# --------------------------------------------------------------------------
# symbols and margins
# --------------------------------------------------------------------------

def test_cubic_margin_is_one_third():
    m = symbol_margin(CUBIC)
    assert abs(m.min_abs - 1.0 / 3.0) < 1e-12
    assert abs(m.max_abs - 1.0) < 1e-12


def test_linear_margin_is_flat_one():
    m = symbol_margin(LINEAR)
    assert abs(m.min_abs - 1.0) < 1e-12
    assert abs(m.max_abs - 1.0) < 1e-12


def test_cubic_kernel_transform_at_pi():
    val = kernel_fourier(CUBIC, math.pi)
    assert abs(abs(val) - 48.0 / math.pi**4) < 1e-12


def test_symbol_is_two_pi_periodic():
    xi = np.linspace(-3.0, 3.0, 17)
    a = sampled_symbol(SYM4, xi)
    b = sampled_symbol(SYM4, xi + 2.0 * math.pi)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))


def test_odd_order_classical_not_samplable():
    with pytest.raises(NotSamplableError):
        synthesize_kernel(SpectrumVector.from_frequencies([0.0, 0.0, 0.0]))


def test_first_order_not_samplable():
    with pytest.raises(NotSamplableError):
        synthesize_kernel(SpectrumVector.from_frequencies([0.7]))


# --------------------------------------------------------------------------
# synthesized interpolation kernels
# --------------------------------------------------------------------------

def test_kernel_is_cardinal_at_integers():
    for sv in (CUBIC, SYM4, EXP2):
        tab = synthesize_kernel(sv)
        for j in range(-5, 6):
            got = tab(float(j))
            want = 1.0 if j == 0 else 0.0
            assert abs(got - want) < 1e-12, (sv, j, got)


def test_linear_kernel_is_the_hat():
    tab = synthesize_kernel(LINEAR)
    t = np.linspace(-2.5, 2.5, 401)
    hat = np.clip(1.0 - np.abs(t), 0.0, None)
    assert np.max(np.abs(tab(t) - hat)) < 1e-10


def test_second_order_kernel_is_shifted_tb():
    # for N = 2 the sampled symbol is a pure phase, so S_0(t) = Q(t+1)/Q(1)
    tab = synthesize_kernel(EXP2)
    t = np.linspace(-0.999, 0.999, 211)
    q1 = tb_exact(EXP2, 1.0)
    want = tb_exact(EXP2, t + 1.0) / q1
    assert np.max(np.abs(tab(t) - want)) < 1e-9
    assert abs(tab(1.7)) < 1e-12 and abs(tab(-1.7)) < 1e-12


def test_kernel_decays_by_half_width():
    tab = synthesize_kernel(CUBIC)
    edge = np.max(np.abs(tab(np.array([-29.5, 29.5]))))
    assert edge < 1e-14


def test_wider_table_agrees_on_the_default_range():
    # half_width 100 deconvolves on a 512-point lattice circle, the default
    # on 256 points: the taps' periodization must not show
    for sv in (CUBIC, EXP2):
        tab = synthesize_kernel(sv)
        wide = synthesize_kernel(sv, SamplingGrid(half_width=100))
        start = (tab.t_min - wide.t_min) * tab.per_unit
        inner = wide.values[start : start + len(tab.values)]
        assert np.max(np.abs(inner - tab.values)) < 1e-14 * np.max(np.abs(tab.values))


def test_cardinal_reconstruction_is_exact_on_v0():
    rng = np.random.default_rng(2026)
    grid = np.linspace(-3.0, 3.0, 601)
    for sv in (CUBIC, SYM4, EXP2):
        tab = synthesize_kernel(sv)
        coeffs = rng.uniform(-1.0, 1.0, size=17)  # translates j in [-8, 8]
        exact = tb_superposition(sv, -8, coeffs, grid)
        peak = np.max(np.abs(exact))
        samples = tb_superposition(sv, -8, coeffs, np.arange(-40.0, 41.0))
        rebuilt = cardinal_series(tab, -40, samples, grid)
        assert np.max(np.abs(rebuilt - exact)) < 1e-8 * max(1.0, peak), str(sv)


def test_cardinal_series_rows_match_single_series():
    tab = synthesize_kernel(EXP2)
    rng = np.random.default_rng(11)
    t = rng.uniform(-4.0, 4.0, size=300)
    real = rng.uniform(-1.0, 1.0, size=(5, 21))
    both = real + 1j * rng.uniform(-1.0, 1.0, size=real.shape)
    for rows in (real, both):
        rows[:, [0, 7, 20]] = 0.0  # shifts every row skips
        rows[3] = 0.0  # a row that is zero throughout
        got = cardinal_series(tab, -10, rows, t)
        assert got.shape == (5, 300) and got.dtype == rows.dtype
        for row, series in zip(rows, got):
            want = cardinal_series(tab, -10, row, t)
            assert np.max(np.abs(series - want)) <= 1e-14 * max(
                1e-300, float(np.max(np.abs(want)))
            )
        assert np.all(got[3] == 0.0)


def test_cardinal_series_evaluates_live_shifts_only():
    tab = synthesize_kernel(CUBIC)
    calls = []

    def kernel(t):
        calls.append(t.copy())
        return tab(t)

    grid = np.linspace(-2.0, 2.0, 41)
    coeffs = np.zeros((3, 9))
    coeffs[0, 2] = 1.0
    coeffs[2, 5] = -2.0
    got = cardinal_series(kernel, -4, coeffs, grid)
    # one call, on the blocks t - j of j = -2 and j = 1 only
    assert len(calls) == 1
    assert np.array_equal(calls[0], [grid + 2.0, grid - 1.0])
    assert np.array_equal(got[1], np.zeros(41))
    assert isinstance(cardinal_series(tab, -4, coeffs[0], 0.5), float)


def _per_shift_series(table, j_min, coeffs, t):
    """The cardinal series with one kernel call per live shift: the reference
    for the batched evaluation of :func:`cardinal_series`."""
    c = np.asarray(coeffs)
    if not np.iscomplexobj(c):
        c = c.astype(float)
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.reshape(-1)
    live = np.flatnonzero(np.any(c.reshape(-1, c.shape[-1]) != 0, axis=0))
    weights = np.empty((len(live), flat.size))
    for row, offset in zip(weights, live):
        row[:] = table(flat - (j_min + offset))
    out = (c[..., live] @ weights).reshape(c.shape[:-1] + t_arr.shape)
    return out.item() if out.ndim == 0 else out


@pytest.mark.parametrize("sv", [EXP2, SKEW])
def test_cardinal_series_keeps_the_bits_of_the_per_shift_loop(sv):
    rng = np.random.default_rng(41)
    real = rng.uniform(-1.0, 1.0, size=(4, 13))
    real[:, [0, 5, 12]] = 0.0  # shifts every row skips
    real[2] = 0.0  # a row that is zero throughout
    both = real + 1j * rng.uniform(-1.0, 1.0, size=real.shape) * (real != 0)
    queries = (0.37, rng.uniform(-5.0, 5.0, size=(7, 9)), np.empty(0))
    for kernel in (synthesize_kernel(sv), tb_chebyshev(sv)):
        for rows in (real, both, real[0], np.zeros((3, 13))):
            for t in queries:
                got = cardinal_series(kernel, -6, rows, t)
                want = _per_shift_series(kernel, -6, rows, t)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.array_equal(got, want), (kernel, rows.shape, np.shape(t))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cardinal_series_rejects_non_finite_queries_without_live_shifts(bad):
    t = np.array([0.5, bad])
    for series in (
        lambda rows: cardinal_series(synthesize_kernel(CUBIC), 0, rows, t),
        lambda rows: cardinal_series(tb_chebyshev(CUBIC), 0, rows, t),
        lambda rows: spline_series(CUBIC, 0, rows, t),
    ):
        with pytest.raises(ValueError, match="query coordinates contain NaN or infinite"):
            series(np.zeros((2, 8)))


def test_cardinal_series_checks_coefficients_as_spline_series_does():
    tab = synthesize_kernel(CUBIC)
    t = np.array([[0.5, 1.5], [2.5, 3.5]])
    # no shifts at all: zeros of the series' shape, from both routes
    for rows in (np.zeros((3, 0)), np.zeros((3, 0), complex)):
        for got in (cardinal_series(tab, 0, rows, t), spline_series(CUBIC, 0, rows, t)):
            assert got.shape == (3, 2, 2) and got.dtype == rows.dtype
            assert np.all(got == 0.0)
    # 0-d coefficients name no shift: a typed error from both routes
    for call in (lambda: cardinal_series(tab, 0, 1.0, t),
                 lambda: spline_series(CUBIC, 0, 1.0, t)):
        with pytest.raises(ValueError, match="last axis"):
            call()


def test_spline_series_is_exact_on_v0():
    rng = np.random.default_rng(2027)
    t = rng.uniform(-6.0, 6.0, size=500)
    for sv in (CUBIC, SYM4, EXP2, SKEW):
        coeffs = rng.uniform(-1.0, 1.0, size=(3, 9))  # translates j in [-4, 4]
        exact = tb_superposition(sv, -4, coeffs, t)
        samples = tb_superposition(sv, -4, coeffs, np.arange(-8.0, 9.0))
        got = spline_series(sv, -8, samples, t)
        assert got.shape == (3, 500) and got.dtype == float
        assert np.max(np.abs(got - exact)) < 1e-14 * np.max(np.abs(exact)), str(sv)
        # the paper's series on the default table is the same function
        tables = cardinal_series(synthesize_kernel(sv), -8, samples, t)
        assert np.max(np.abs(tables - got)) < 1e-7 * np.max(np.abs(exact)), str(sv)


def test_spline_series_rows_and_shapes():
    rng = np.random.default_rng(13)
    rows = rng.uniform(-1.0, 1.0, size=(4, 15)) + 1j * rng.uniform(-1.0, 1.0, (4, 15))
    t = rng.uniform(-7.0, 7.0, size=(6, 5))
    got = spline_series(EXP2, -7, rows, t)
    assert got.shape == (4, 6, 5) and got.dtype == complex
    for row, series in zip(rows, got):
        want = spline_series(EXP2, -7, row.real, t) + 1j * spline_series(
            EXP2, -7, row.imag, t
        )
        assert np.max(np.abs(series - want)) < 1e-14 * np.max(np.abs(want))
    assert isinstance(spline_series(EXP2, -7, rows[0].real, 0.5), float)
    assert spline_series(EXP2, -7, rows.real, np.empty(0)).shape == (4, 0)


def test_spline_series_stops_at_the_table_support():
    samples = np.ones(9)  # j = 0..8
    hw = SamplingGrid().half_width
    far = np.array([8.0 + 1e6, -1e6, 8.0 + hw + CUBIC.order])
    assert np.all(spline_series(CUBIC, 0, samples, far) == 0.0)
    # the last coefficient kept is c_{8 + hw}: live up to t = 8 + hw + N
    assert spline_series(CUBIC, 0, samples, 8.0 + hw + 0.5) != 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spline_series_rejects_non_finite_queries(bad):
    t = np.array([3.5, bad])
    with pytest.raises(ValueError, match="query coordinates contain NaN or infinite"):
        spline_series(CUBIC, 0, np.ones(8), t)
    # a sum of TB translates is 0 there, as Q_N is
    assert np.array_equal(tb_superposition(CUBIC, 0, np.ones(8), t[1:]), [0.0])


def test_spline_series_rejects_unsamplable_spaces(monkeypatch):
    odd = SpectrumVector.from_frequencies([0.0, 0.0, 0.0])
    with pytest.raises(NotSamplableError):
        spline_series(odd, 0, np.ones(8), np.array([3.5]))
    with pytest.raises(NotSamplableError):
        spline_series(SpectrumVector.from_frequencies([0.0]), 0, np.ones(8), 3.5)
    # a divisor that is not finite fails by name, in both lattice inversions
    monkeypatch.setattr(
        "polyshannon.shannon1d.tb_integer_values",
        lambda sv: (math.nan,) * (sv.order - 1),
    )
    with pytest.raises(NotSamplableError, match="not finite"):
        synthesize_kernel(CUBIC)
    with pytest.raises(NotSamplableError, match="not finite"):
        spline_series(CUBIC, 0, np.ones(8), np.array([3.5]))


def test_lattice_taps_are_cached_and_read_only():
    y, t = np.arange(8.0), np.array([3.5, 4.25])
    first = spline_series(CUBIC, 0, y, t)
    before = shannon1d._lattice_taps.cache_info()
    assert np.array_equal(spline_series(CUBIC, 0, y, t), first)
    after = shannon1d._lattice_taps.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    taps = shannon1d._lattice_inverse(CUBIC, "interp", 8)
    assert not taps.flags.writeable
    with pytest.raises(ValueError):
        taps[0] = 1.0


def test_fourier_route_matches_table():
    # invert S_0^ by brute-force panel quadrature at a few points
    sv = SYM4
    tab = synthesize_kernel(sv)
    edges = np.linspace(-200.0, 200.0, 101)
    for t in (0.3, 1.25, -2.6):
        val = sum(
            _gl(
                lambda xi: (kernel_fourier(sv, xi) * np.exp(1j * xi * t)).real,
                edges[k], edges[k + 1],
            )
            for k in range(len(edges) - 1)
        ) / (2.0 * math.pi)
        # |S_0^| ~ xi^-4 here, so the [-200, 200] window truncates at ~2e-6
        assert abs(val - tab(t)) < 1e-5


# --------------------------------------------------------------------------
# Gram symbol, autocorrelation, duality
# --------------------------------------------------------------------------

def test_squared_modulus_identity():
    xi = np.linspace(-9.0, 9.0, 25)
    for sv in (SYM4, SKEW, EXP2):
        lhs = np.abs(tb_fourier(sv, xi)) ** 2
        doubled = sv.symmetrized()
        rhs = (
            np.exp(1j * sv.order * xi)
            * math.exp(-sv.freq_sum())
            * tb_fourier(doubled, xi)
        ).real
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(lhs)


def test_gram_symbol_matches_truncated_fold():
    # G(xi) = sum_k |Q^(xi + 2 pi k)|^2 from the "dual" divisor coefficients
    xi = np.linspace(0.0, 2.0 * math.pi, 33)
    for sv in (LINEAR, SKEW):
        fold = np.zeros_like(xi)
        for k in range(-40, 41):
            fold += np.abs(tb_fourier(sv, xi + 2.0 * math.pi * k)) ** 2
        gram = shannon1d._divisor(sv, "dual").items()
        got = sum(c * np.exp(-1j * xi * m) for m, c in gram)
        assert np.max(np.abs(got.imag)) < 1e-12 * np.max(got.real)
        got = got.real
        assert np.max(np.abs(fold - got)) < 1e-6 * np.max(got)
        assert np.min(got) > 0.0


def _autocorrelation(sv, tau):
    """<Q, Q(. - tau)>: a coefficient of the "dual" divisor G."""
    return shannon1d._divisor(sv, "dual").get(tau, 0.0)


def test_autocorrelation_against_quadrature():
    for sv in (CUBIC, SKEW):
        n = sv.order
        for tau in range(-n + 1, n):
            direct = 0.0
            for m in range(n):  # integrate Q(t) Q(t - tau) piece by piece
                direct += _gl(
                    lambda t: tb_exact(sv, t) * tb_exact(sv, t - tau),
                    float(m), float(m + 1),
                )
            assert abs(direct - _autocorrelation(sv, tau)) < 1e-12 * max(
                1.0, abs(direct)
            ), (sv, tau)
        assert _autocorrelation(sv, n) == 0.0


def test_autocorrelation_matrix_is_positive_definite():
    for sv in (CUBIC, SKEW, EXP2):
        n = sv.order
        taus = np.arange(-6, 7)
        rho = np.array([_autocorrelation(sv, int(t)) for t in taus])
        mat = np.array([[rho[6 + j - k] if abs(j - k) <= 6 else 0.0
                         for k in range(7)] for j in range(7)])
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() > 1e-12 * eig.max()


def test_dual_table_biorthogonality():
    for sv in (CUBIC, SYM4, EXP2):
        n = sv.order
        dual = synthesize_dual(sv)
        for tau in range(-4, 5):
            acc = 0.0
            for m in range(n):
                acc += _gl(
                    lambda t: dual(t) * tb_exact(sv, t - tau),
                    float(tau + m), float(tau + m + 1),
                )
            want = 1.0 if tau == 0 else 0.0
            assert abs(acc - want) < 1e-7, (sv, tau, acc)


def test_dual_table_decays():
    # the dual inherits the slower geometric rate of the doubled-order
    # symbol's zeros (~0.54 per unit here), so expect ~1e-8 at the edge
    dual = synthesize_dual(SYM4)
    near = abs(dual(0.5))
    far = np.max(np.abs(dual(np.array([-28.5, 28.5]))))
    assert far < 1e-6
    assert far < 1e-5 * near


# --------------------------------------------------------------------------
# table plumbing
# --------------------------------------------------------------------------

def test_kernel_table_roundtrip_is_bit_exact(tmp_path):
    tab = synthesize_kernel(SYM4)
    path = tmp_path / "kernel.pskt"
    tab.save(path)
    back = KernelTable.load(path)
    assert back.spectrum == tab.spectrum
    assert back.kind == tab.kind
    assert back.per_unit == tab.per_unit
    assert back.t_min == tab.t_min
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, tab.values)
    t = np.linspace(-3.0, 3.0, 97)
    assert np.array_equal(back(t), tab(t))


def test_dual_table_roundtrip(tmp_path):
    tab = synthesize_dual(EXP2, grid=SamplingGrid(per_unit=32, half_width=20))
    path = tmp_path / "dual.pskt"
    tab.save(path)
    back = KernelTable.load(path)
    assert back.kind == "dual"
    assert np.array_equal(back.values, tab.values)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pskt"
    path.write_bytes(b"not a kernel table at all, sorry" * 4)
    with pytest.raises(FormatError):
        KernelTable.load(path)


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:20],                      # short header
    lambda raw: raw[:4] + b"\x02\x00" + raw[6:],  # unknown version
    lambda raw: raw[:6] + b"\x07" + raw[7:],    # unknown kind index
    lambda raw: raw[:-8],                      # short body
    lambda raw: raw + b"\x00",                 # trailing byte
    lambda raw: b"",
    lambda raw: raw[:-8] + np.array([np.nan], dtype="<f8").tobytes(),  # NaN value
    lambda raw: raw[:-8] + np.array([-np.inf], dtype="<f8").tobytes(),  # inf value
    lambda raw: raw[:12] + bytes(4) + raw[16:],  # per_unit field set to 0
    # value count and body cut to match, 257 -> 40 values: short of the grid
    lambda raw: raw[:20] + (40).to_bytes(8, "little") + raw[28 : -8 * 217],
])
def test_load_rejects_malformed_tables_with_value_error(tmp_path, damage):
    tab = synthesize_kernel(CUBIC, grid=SamplingGrid(per_unit=16, half_width=8))
    path = tmp_path / "kernel.pskt"
    tab.save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FormatError):
        KernelTable.load(path)


def test_sampling_grid_validation():
    with pytest.raises(ValueError):
        SamplingGrid(per_unit=4)
    with pytest.raises(ValueError):
        SamplingGrid(half_width=0)
    with pytest.raises(NarrowGridError):
        synthesize_kernel(CUBIC, SamplingGrid(half_width=2))


# --------------------------------------------------------------------------
# the channel core
# --------------------------------------------------------------------------

def _entry_points():
    """(call, point width) of both oracles, both reconstructions and the
    sphere integral route."""
    sgen = random_polyspline_field(np.random.default_rng(5), p=1, degree_max=2,
                                   j_min=-4, j_max=4)
    sfld = sgen.sphere_field(-4, 4)
    tgen = random_strip_field(np.random.default_rng(5), dimension=2, p=1,
                              cutoff=2, j_min=-4, j_max=4)
    tfld = tgen.plane_field(-4, 4)
    return {
        "sphere oracle": (sgen.eval, 3),
        "sphere reconstruction": (lambda r, d: reconstruct_spherical(sfld, r, d), 3),
        "strip oracle": (tgen.eval, 2),
        "strip reconstruction": (lambda t, ys: reconstruct_strip(tfld, t, ys), 2),
        "sphere integral": (lambda r, d: reconstruct_spherical_integral(
            sfld, ShannonPolysplineKernel.build(2), SphereGrid(2), r, d), 3),
    }


@pytest.mark.parametrize("coords", [1, 3])
@pytest.mark.parametrize("entry", [
    "sphere oracle", "sphere reconstruction", "strip oracle", "strip reconstruction",
    "sphere integral",
])
def test_every_entry_point_refuses_a_query_count_mismatch(entry, coords):
    call, width = _entry_points()[entry]
    with pytest.raises(ValueError) as info:
        call(np.ones(coords), np.full((5, width), 0.5))
    assert str(info.value) == f"need one angular point per query: 5 for {coords}"


def _edge_routes():
    """Each reconstruction route, called at a query beyond the safe band."""
    sfld = PolysplineField(3, 1, -3, np.ones((7, 4)))
    r, d = np.array([math.exp(2.9)]), np.array([[0.0, 0.0, 1.0]])
    tfld = StripField(2, 1, 1, -3, np.ones((7, 5), dtype=complex))
    t, ys = np.array([2.7]), np.zeros((1, 2))
    return {
        "sphere coefficients": lambda: reconstruct_spherical(sfld, r, d),
        "sphere tables": lambda: reconstruct_spherical(sfld, r, d, synthesize_kernel),
        "sphere integral": lambda: reconstruct_spherical_integral(
            sfld, ShannonPolysplineKernel.build(1), SphereGrid(1), r, d),
        "strip coefficients": lambda: reconstruct_strip(tfld, t, ys),
        "strip tables": lambda: reconstruct_strip(tfld, t, ys, synthesize_kernel),
    }


@pytest.mark.parametrize("route", [
    "sphere coefficients", "sphere tables", "sphere integral",
    "strip coefficients", "strip tables",
])
def test_boundary_warning_points_at_the_caller(route):
    call = _edge_routes()[route]
    with pytest.warns(BoundaryTailWarning) as record:
        call()
    assert [w.filename for w in record if w.category is BoundaryTailWarning] == [__file__]


def _per_group_series(fld, t, points):
    """channel_series' coefficient route with one series call per group."""
    rows, blocks = fld.channels(fld.samples.T)
    return fld.contract(
        blocks,
        lambda n: spline_series(fld.spectrum(blocks[n][0]), fld.j_min, rows[blocks[n][1]], t),
        points,
    )


def test_stacked_groups_match_per_group_series():
    # one product per cell over the stacked rows of all groups rounds by its
    # shape: within 2 ulps of max|f| of the per-group series, and the same
    # bits from two identical calls
    rng = np.random.default_rng(71)
    t = rng.uniform(-4.0, 3.0, size=300)
    sfld = random_polyspline_field(rng, p=2, degree_max=3, j_min=-6, j_max=6).sphere_field(-6, 6)
    samples = sfld.samples.copy()
    samples[:, 4:9] = 0.0  # degree 2 drops out
    sfld = dataclasses.replace(sfld, samples=samples)
    d = rng.normal(size=(len(t), 3))
    tfld = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-6, j_max=6).plane_field(-6, 6)
    samples = tfld.samples.copy()
    samples[:, [i for i, mode in enumerate(tfld.modes) if sum(map(abs, mode)) == 1]] = 0.0
    tfld = dataclasses.replace(tfld, samples=samples)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(len(t), 2))
    # the strip's |kappa| = 0 group is one row; |kappa| = 1 is all zero
    assert [len(idx) for ksq, idx in tfld.groups(tfld.samples.T) if ksq == 0] == [1]
    assert 1 not in dict(tfld.groups(tfld.samples.T))

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 2.0 * np.spacing(np.max(np.abs(want)))

    for fld, points in ((sfld, d), (tfld, ys)):
        got = channel_series(fld, t, points)
        close(got, _per_group_series(fld, t, points))
        assert np.array_equal(channel_series(fld, t, points), got)
    # one query; and a second query past the coefficient range
    beyond = 6 + SamplingGrid().half_width + 1.5
    for few, warns in ((t[:1], False), (np.array([t[0], beyond]), True)):
        for fld, points in ((sfld, d[: len(few)]), (tfld, ys[: len(few)])):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore" if warns else "error", BoundaryTailWarning)
                got = channel_series(fld, few, points)
                close(got, _per_group_series(fld, few, points))
                assert np.array_equal(channel_series(fld, few, points), got)


def _chunk_cells(v, first, last):
    """Per chunk of the queries sorted by cell, the distinct cells in
    first..last that its queries occupy."""
    cells = np.sort(np.floor(v))
    cells = cells[(cells >= first) & (cells <= last)]
    return [np.unique(cells[s : s + tbspline._BASIS_CHUNK])
            for s in range(0, len(cells), tbspline._BASIS_CHUNK)]


def test_one_basis_per_chunk_and_one_product_per_cell(monkeypatch):
    rng = np.random.default_rng(73)
    gen = random_polyspline_field(rng, p=2, degree_max=3, j_min=-6, j_max=6)
    fld = gen.sphere_field(-6, 6)
    # two chunks and a bit; the last two queries reach fewer of the
    # generator's cells, and -6.5 none
    v = np.concatenate([rng.uniform(-4.0, 3.0, 2 * tbspline._BASIS_CHUNK + 40), [-6.5, 5.5]])
    d = rng.normal(size=(len(v), 3))
    bases, products = [], []
    basis, matmul = tbspline._chebyshev_basis, np.matmul
    monkeypatch.setattr(
        tbspline, "_chebyshev_basis",
        lambda x, k: bases.append(x.size) or basis(x, k))
    monkeypatch.setattr(
        np, "matmul",
        lambda a, b, **kw: products.append(a.shape) or matmul(a, b, **kw))
    blocks = fld.channels(fld.samples.T)[1]
    order = fld.spectrum(0).order
    assert len(blocks) == 4
    with pytest.warns(BoundaryTailWarning):
        channel_series(fld, v, d)
    # every query is in a cell of the series: one basis per chunk, one
    # product per (chunk, cell) of all 16 rows
    chunks = _chunk_cells(v, math.floor(v.min()) - order + 1, math.floor(v.max()))
    assert len(chunks) == 3 and len(chunks[0]) > 1
    assert bases == [min(len(v) - s, tbspline._BASIS_CHUNK)
                     for s in range(0, len(v), tbspline._BASIS_CHUNK)]
    assert len(products) == sum(map(len, chunks))
    assert all(shape[0] == 16 for shape in products)
    bases.clear()
    products.clear()
    gen.eval(np.exp(v), d)
    chunks = _chunk_cells(v, gen.i_min, gen.i_min + gen.coeffs.shape[1] + order - 2)
    assert sum(map(len, chunks)) > len(chunks)
    assert bases == [min(len(v) - 1 - s, tbspline._BASIS_CHUNK)  # v = -6.5 is in no cell
                     for s in range(0, len(v) - 1, tbspline._BASIS_CHUNK)]
    assert len(products) == sum(map(len, chunks))
    assert all(shape[0] == 16 for shape in products)


def test_channel_samples_are_the_node_values():
    # at a node j the translate sum is sum_m c_{j-m} Q_N(m): against tb_exact
    # per channel, and the resummed field against the generator's own
    # values at t = j within 4 ulps of its scale
    rng = np.random.default_rng(79)
    sgen = random_polyspline_field(rng, p=2, degree_max=3, j_min=-5, j_max=5)
    tgen = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-5, j_max=5)
    nodes = np.arange(-7, 8)
    directions, ys = rng.normal(size=(50, 3)), rng.uniform(0.0, 2.0 * math.pi, (50, 2))
    for gen, points in ((sgen, directions), (tgen, ys)):
        samples = channel_samples(gen, -7, 7)
        assert samples.shape == (len(nodes), len(gen.coeffs))
        assert samples.dtype == np.result_type(gen.coeffs, float)
        for key, idx in gen.groups(gen.coeffs):
            sv = gen.spectrum(key)
            want = sum(np.multiply.outer(tb_exact(sv, nodes - i), gen.coeffs[idx, n])
                       for n, i in enumerate(range(gen.i_min, gen.i_min + gen.coeffs.shape[1])))
            assert np.max(np.abs(samples[:, idx] - want)) <= 1e-13 * np.max(np.abs(want))
        rows, blocks = gen.channels(samples.T.copy())
        field = [gen.contract(blocks, lambda n: row[blocks[n][1], None], points)
                 for row in rows.T]
        values = [channel_values(gen, np.full(len(points), float(j)), points) for j in nodes]
        err = np.max(np.abs(np.subtract(field, values)))
        assert err <= 4.0 * np.spacing(np.max(np.abs(values)))

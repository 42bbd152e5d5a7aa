"""Shannon-type kernels: symbols, synthesis, duals, cardinal reconstruction."""

import math

import numpy as np
import pytest

from polyshannon.shannon1d import (
    KernelTable,
    NarrowGridError,
    NotSamplableError,
    SamplingGrid,
    autocorrelation,
    cardinal_series,
    dual_fourier,
    gram_symbol,
    kernel_fourier,
    sampled_symbol,
    spline_series,
    symbol_margin,
    synthesize_dual,
    synthesize_kernel,
    tb_superposition,
)
from polyshannon.spectrum import SpectrumVector
from polyshannon.tbspline import tb_exact, tb_fourier

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
    shifts_seen = []

    def kernel(t):
        shifts_seen.append(float(t[0] - grid[0]))
        return tab(t)

    grid = np.linspace(-2.0, 2.0, 41)
    coeffs = np.zeros((3, 9))
    coeffs[0, 2] = 1.0
    coeffs[2, 5] = -2.0
    got = cardinal_series(kernel, -4, coeffs, grid)
    assert sorted(shifts_seen) == [-1.0, 2.0]  # t - j for j = -2 and j = 1
    assert np.array_equal(got[1], np.zeros(41))
    assert isinstance(cardinal_series(tab, -4, coeffs[0], 0.5), float)


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
    xi = np.linspace(0.0, 2.0 * math.pi, 33)
    for sv in (LINEAR, SKEW):
        fold = np.zeros_like(xi)
        for k in range(-40, 41):
            fold += np.abs(tb_fourier(sv, xi + 2.0 * math.pi * k)) ** 2
        got = gram_symbol(sv, xi)
        assert np.max(np.abs(fold - got)) < 1e-6 * np.max(got)
        assert np.min(got) > 0.0


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
            assert abs(direct - autocorrelation(sv, tau)) < 1e-12 * max(
                1.0, abs(direct)
            ), (sv, tau)
        assert autocorrelation(sv, n) == 0.0


def test_autocorrelation_matrix_is_positive_definite():
    for sv in (CUBIC, SKEW, EXP2):
        n = sv.order
        taus = np.arange(-6, 7)
        rho = np.array([autocorrelation(sv, int(t)) for t in taus])
        mat = np.array([[rho[6 + j - k] if abs(j - k) <= 6 else 0.0
                         for k in range(7)] for j in range(7)])
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() > 1e-12 * eig.max()


def test_dual_fourier_consistency():
    xi = np.linspace(-7.0, 7.0, 15)
    for sv in (SYM4, EXP2):
        lhs = dual_fourier(sv, xi) * gram_symbol(sv, xi)
        rhs = tb_fourier(sv, xi)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


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
    with pytest.raises(ValueError):
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
])
def test_load_rejects_malformed_tables_with_value_error(tmp_path, damage):
    tab = synthesize_kernel(CUBIC, grid=SamplingGrid(per_unit=16, half_width=8))
    path = tmp_path / "kernel.pskt"
    tab.save(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError):
        KernelTable.load(path)


def test_sampling_grid_validation():
    with pytest.raises(ValueError):
        SamplingGrid(per_unit=4)
    with pytest.raises(ValueError):
        SamplingGrid(half_width=0)
    with pytest.raises(NarrowGridError):
        synthesize_kernel(CUBIC, SamplingGrid(half_width=2))

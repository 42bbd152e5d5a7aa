"""TB-spline evaluation routes checked against independent oracles.

The oracles deliberately avoid the library's own Green's-function algebra:

* ``conv_oracle``   -- builds Q_{Lambda + [lam]} by numerically convolving a
  lower-order TB-spline with the first-order kernel (Gauss-Legendre on the
  smooth pieces), which is the defining recursion;
* scipy's ``BSpline.basis_element`` -- the classical polynomial B-spline,
  which Q_N must reduce to for the zero spectrum;
* ``scipy.integrate.quad`` with Fourier weights -- direct numerical inversion
  of the symbol.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline

from polyshannon.cli import _battery
from polyshannon.shannon1d import tb_superposition
from polyshannon.spectrum import SpectrumVector
from polyshannon import tbspline as tbs
from polyshannon.tbspline import (
    CancellationError,
    ConditioningError,
    ContourDomainError,
    ConvergenceError,
    ef_contour,
    ef_zeros,
    euler_frobenius,
    euler_spline,
    euler_spline_resolvent,
    green_power_sum,
    tb_chebyshev,
    tb_exact,
    tb_fourier,
    tb_integer_values,
    tb_tabulate,
)

SV = SpectrumVector.from_frequencies

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _gl(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES))


def conv_oracle(base: SpectrumVector, lam: float, t: float) -> float:
    """Q_{base + [lam]}(t) = e^{-lam} int_0^1 e^{lam s} Q_base(t - s) ds."""

    def integrand(s):
        return np.exp(lam * s) * tb_exact(base, t - s)

    frac = t - math.floor(t)
    total = 0.0
    if 0.0 < frac < 1.0:
        total += _gl(integrand, 0.0, frac) + _gl(integrand, frac, 1.0)
    else:
        total += _gl(integrand, 0.0, 1.0)
    return math.exp(-lam) * total


# --- frozen reference values --------------------------------------------------

def test_fourier_frozen_values():
    assert tb_fourier(SV([-1.0, 1.0]), 0.0).real == pytest.approx(
        (1.0 - math.exp(-1.0)) * (math.e - 1.0), abs=1e-14
    )
    assert tb_fourier(SV([0.0] * 4), math.pi).real == pytest.approx(
        16.0 / math.pi**4, abs=1e-14
    )
    # symbol at 0 is the integral of Q
    assert tb_fourier(SV([0.0] * 3), 0.0) == pytest.approx(1.0)


def test_exact_frozen_values():
    assert tb_exact(SV([0.0, 0.0]), 1.0) == pytest.approx(1.0, abs=1e-14)
    assert tb_exact(SV([0.0] * 4), 2.0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert tb_exact(SV([0.0] * 4), 1.0) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_first_order_closed_form():
    lam = -0.8
    sv = SV([lam])
    ts = np.linspace(0.0, 0.999, 21)
    assert np.allclose(tb_exact(sv, ts), np.exp(lam * (ts - 1.0)), atol=1e-14)
    assert tb_exact(sv, 1.0) == 0.0
    assert tb_exact(sv, -0.01) == 0.0


def test_green_power_sum_frozen():
    assert green_power_sum(SV([0.0]), 0.0, -1.0) == pytest.approx(0.5, abs=1e-14)
    assert green_power_sum(SV([-1.0, 1.0]), 0.0, -1.0) == pytest.approx(
        -0.2310585786300049, abs=1e-12
    )


# --- defining recursion oracle ------------------------------------------------

def test_recursion_oracle_quadratic_exponential():
    base = SV([0.5, -1.0])
    lam = 2.0
    full = SV([0.5, -1.0, 2.0])
    for t in np.linspace(0.05, 2.95, 30):
        assert tb_exact(full, t) == pytest.approx(
            conv_oracle(base, lam, t), abs=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(
    lams=st.lists(
        st.floats(-2.5, 2.5).map(lambda x: round(x, 3)), min_size=1, max_size=2
    ),
    new_lam=st.floats(-2.5, 2.5).map(lambda x: round(x, 3)),
    t=st.floats(0.05, 2.9),
)
def test_recursion_oracle_property(lams, new_lam, t):
    base = SV(lams)
    full = SV(list(lams) + [new_lam])
    if full.order != base.order + 1:
        return  # merged into a multiplicity; recursion still holds but sv differs
    t = min(t, base.order + 0.95)
    scale = max(1.0, abs(tb_fourier(full, 0.0).real))
    assert abs(tb_exact(full, t) - conv_oracle(base, new_lam, t)) < 1e-11 * scale


def test_recursion_oracle_close_frequencies():
    # nearly coincident frequencies blow up the partial fractions, so the
    # Green's-function sum must leave float64 for them
    for lams, new_lam in (([0.0, 0.003], 0.0), ([0.0, 0.001], 0.0), ([1.0], 1.002)):
        base = SV(lams)
        full = SV(lams + [new_lam])
        for t in np.linspace(0.05, base.order + 0.95, 9):
            assert tb_exact(full, t) == pytest.approx(
                conv_oracle(base, new_lam, t), abs=1e-12
            )


def test_classical_matches_scipy_bspline():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 6, 8):
        sv = SV([0.0] * n)
        b = BSpline.basis_element(np.arange(n + 1.0), extrapolate=False)
        ts = rng.uniform(0.01, n - 0.01, size=50)
        ours = tb_exact(sv, ts)
        ref = b(ts)
        assert np.max(np.abs(ours - ref)) < 1e-10


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quadrature_oracle():
    # invert the symbol directly with scipy's oscillatory quadrature; stay off
    # the knots, where the cycle-acceleration of QAWF breaks down (N = 2 means
    # Q is only C^0 there and the half-line integrals converge too slowly)
    sv = SV([2.0, -3.0])

    def re_qhat(xi):
        return tb_fourier(sv, xi).real

    def im_qhat(xi):
        return tb_fourier(sv, xi).imag

    for t in (0.3, 0.7, 1.4, 1.9):
        cos_part, cos_err = quad(re_qhat, 0.0, np.inf, weight="cos", wvar=t, limlst=400)
        sin_part, sin_err = quad(im_qhat, 0.0, np.inf, weight="sin", wvar=t, limlst=400)
        ref = (cos_part - sin_part) / math.pi
        tol = max(1e-6, 5.0 * (cos_err + sin_err))
        assert tb_exact(sv, t) == pytest.approx(ref, abs=tol)


# --- structural properties ----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    lams=st.lists(
        st.floats(-3.0, 3.0).map(lambda x: round(x, 3)), min_size=1, max_size=4
    )
)
def test_support_and_positivity(lams):
    sv = SV(lams)
    n = sv.order
    peak = np.max(tb_exact(sv, np.linspace(0.0, n, 50)))
    assert peak > 0.0
    inner = np.linspace(0.05, n - 0.05, 40)
    assert np.all(tb_exact(sv, inner) > -1e-12 * peak)
    outside = np.array([-0.5, -1e-9, n + 1e-9, n + 2.0])
    assert np.allclose(tb_exact(sv, outside), 0.0, atol=1e-11 * peak)


def test_integral_equals_symbol_at_zero():
    for freqs in ([0.0, 0.0, 0.0], [1.0, -2.0], [0.5, 0.5, -1.5, 2.0]):
        sv = SV(freqs)
        cheb = tb_chebyshev(sv)
        total = sum(_gl(cheb, m, m + 1.0) for m in range(sv.order))
        assert total == pytest.approx(tb_fourier(sv, 0.0).real, rel=1e-12)


def test_chebyshev_matches_exact():
    sv = SV([2.0, -3.0, 0.0])
    ts = np.linspace(-0.5, 3.5, 201)
    assert np.max(np.abs(tb_chebyshev(sv)(ts) - tb_exact(sv, ts))) < 1e-12


@pytest.mark.parametrize("freqs", [
    [0.0, 0.0, 0.0, 0.0],
    [1.0, 1.0, -2.0],
    [-1.5, -1.5, 1.5, 1.5, 0.0],
    [-0.7],
])
def test_chebyshev_matches_exact_with_multiplicities(freqs):
    sv = SV(freqs)
    ts = np.linspace(-0.5, sv.order + 0.5, 301)
    ref = tb_exact(sv, ts)
    assert np.max(np.abs(tb_chebyshev(sv)(ts) - ref)) < 1e-12 * np.max(np.abs(ref))


def test_smoothness_at_knots():
    # C^{N-2} joins; the (N-1)st derivative jumps by beta_0 = prod e^{-lam} at 0
    sv = SV([1.0, -0.5, 0.0, 0.25])
    pieces = tb_chebyshev(sv).coeffs
    cheb = np.polynomial.chebyshev

    def deriv(m, order, x):
        # piece m of d^order Q / dt^order at x = 2u - 1; dx/dt = 2
        return 2.0**order * cheb.chebval(x, cheb.chebder(pieces[m], order))

    for order in range(sv.order - 1):
        for knot in range(1, sv.order):
            left = deriv(knot - 1, order, 1.0)
            right = deriv(knot, order, -1.0)
            assert right - left == pytest.approx(0.0, abs=1e-5)
    jump = deriv(0, sv.order - 1, -1.0) - 0.0
    assert jump == pytest.approx(math.exp(-sv.freq_sum()), rel=1e-5)


def test_fourier_consistency_with_time_domain():
    sv = SV([1.5, -1.0, 0.0])
    cheb = tb_chebyshev(sv)
    for xi in (0.3, 1.0, 2.7, 6.0):
        ref = sum(
            _gl(lambda t: cheb(t) * np.cos(xi * t), m, m + 1.0)
            - 1j * _gl(lambda t: cheb(t) * np.sin(xi * t), m, m + 1.0)
            for m in range(sv.order)
        )
        assert tb_fourier(sv, xi) == pytest.approx(ref, abs=1e-12)


def test_symmetric_spectrum_gives_symmetric_bump():
    sv = SV([-1.5, 1.5, 0.0, 0.0])
    n = sv.order
    ts = np.linspace(0.1, n - 0.1, 57)
    assert np.allclose(tb_exact(sv, ts), tb_exact(sv, n - ts), atol=1e-12)


# --- precision escalation -----------------------------------------------------

def test_exact_precision_matches_50_digit_sum():
    sv = SV([-7.0, 7.0])  # severity 28: the escalated precision must suffice
    ts = np.linspace(0.1, 1.9, 19)
    exact = tb_exact(sv, ts)
    hp_vals = tbs._qn_hp_arr(sv, ts.copy(), 50)
    assert np.max(np.abs(exact - hp_vals)) < 1e-13 * np.max(np.abs(hp_vals))


def test_stiff_spectrum_uses_hp_and_stays_positive():
    sv = SV([16.0, -17.0])  # severity 34
    ts = np.linspace(0.05, 1.95, 39)
    vals = tb_exact(sv, ts)
    assert np.all(vals > 0.0)


def test_cancellation_cap():
    with pytest.raises(CancellationError):
        tb_exact(SV([41.0, -41.0]), 1.0)


def test_near_coincident_frequencies_rejected():
    with pytest.raises(ConditioningError):
        tb_exact(SV([0.0, 1e-10]), 0.5)


# --- piecewise Chebyshev -----------------------------------------------------

def test_chebyshev_matches_mpmath_green_sum_on_battery():
    # the independent reference is the mpmath Green's-function sum at the
    # precision tb_exact escalates to, whatever the spectrum's stiffness
    classical, strips, radial = _battery()
    rng = np.random.default_rng(5)
    worst = 0.0
    for sv in classical + strips + radial:
        t = rng.uniform(0.0, sv.order, 200)
        ref = tbs._qn_hp_arr(sv, t, tbs._hp_dps(tbs.cancellation_severity(sv)))
        err = np.max(np.abs(tb_chebyshev(sv)(t) - ref)) / np.max(np.abs(ref))
        worst = max(worst, err)
    assert worst <= 1e-13


def test_chebyshev_edge_conventions():
    for freqs in ([0.0, 0.0], [2.0, -3.0, 0.5], [-8.0, 8.0, 0.0, 0.0]):
        sv = SV(freqs)
        n = sv.order
        cheb = tb_chebyshev(sv)
        peak = np.max(np.abs(cheb(np.linspace(0.0, n, 101))))
        outside = np.array(
            [-1.0, -1e-12, n, n + 1e-9, n + 3.0, np.nan, np.inf, -np.inf]
        )
        assert np.array_equal(cheb(outside), np.zeros(8))
        assert np.array_equal(cheb.translates(0, 1, outside), np.zeros((1, 8)))
        # left-closed, continuous for N >= 2
        assert abs(cheb(0.0)) <= 1e-15 * peak
        assert abs(cheb.translates(0, 1, 0.0)[0, 0]) <= 1e-15 * peak
        assert isinstance(cheb(0.5), float)
        assert cheb(np.zeros((2, 3))).shape == (2, 3)
        assert cheb.translates(-1, 4, np.zeros((2, 3))).shape == (4, 6)
    lam = -0.8
    first = tb_chebyshev(SV([lam]))
    assert first(0.0) == pytest.approx(math.exp(-lam), rel=1e-15)
    assert first.translates(0, 1, 0.0)[0, 0] == pytest.approx(math.exp(-lam), rel=1e-15)
    assert first(1.0) == 0.0
    assert first.translates(0, 1, 1.0)[0, 0] == 0.0
    ts = np.linspace(0.0, 0.999, 21)
    assert np.allclose(first(ts), np.exp(lam * (ts - 1.0)), rtol=1e-15, atol=0.0)
    assert np.allclose(first.translates(0, 1, ts)[0], np.exp(lam * (ts - 1.0)),
                       rtol=1e-15, atol=0.0)


def test_translates_match_exact_translates():
    sv = SV([2.0, -3.0, 0.5])
    # rows i = -1..4 clip the live translates of the first and last points;
    # integer t puts every point on a knot, 1e6 and 1e300 are far outside
    t = np.concatenate([
        np.linspace(-4.0, 9.0, 131), np.arange(-4.0, 10.0), [-1e300, -1e6, 1e6, 1e300],
    ])
    got = tb_chebyshev(sv).translates(-1, 6, t)
    want = np.stack([tb_exact(sv, t - i) for i in range(-1, 5)])
    assert got.shape == (6, len(t))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got[:, :20] == 0.0) and np.all(got[:, -4:] == 0.0)


def test_chebyshev_is_cached_per_spectrum():
    assert tb_chebyshev(SV([1.0, -1.0])) is tb_chebyshev(SV([-1.0, 1.0]))


def test_chebyshev_unresolved_degree_raises(monkeypatch):
    tb_chebyshev.cache_clear()
    monkeypatch.setattr(tbs, "_CHEB_MAX", tbs._CHEB_FIRST)
    try:
        with pytest.raises(ConvergenceError):
            tb_chebyshev(SV([9.0, -9.0]))
    finally:
        tb_chebyshev.cache_clear()


def test_chebyshev_rejects_near_coincident_frequencies():
    with pytest.raises(ConditioningError):
        tb_chebyshev(SV([0.0, 1e-10, 3.0, -3.0]))


@pytest.mark.parametrize("freqs", [[800.0, -800.0], [700.0, 700.0, -700.0, -700.0]])
def test_values_beyond_float64_fail_by_name(freqs):
    # |lambda| of about 710 puts Q_N or its samples beyond the float64 range
    for build in (tb_integer_values, tb_chebyshev):
        with pytest.raises(ConditioningError, match="overflow float64"):
            build(SV(freqs))


def test_superposition_complex_equals_real_plus_imaginary():
    sv = SV([-2.0, 2.0])
    rng = np.random.default_rng(9)
    c = rng.uniform(-1.0, 1.0, 9) + 1j * rng.uniform(-1.0, 1.0, 9)
    t = np.linspace(-5.0, 6.0, 157)
    got = tb_superposition(sv, -4, c, t)
    want = tb_superposition(sv, -4, c.real, t) + 1j * tb_superposition(sv, -4, c.imag, t)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    rows = tb_superposition(sv, -4, np.stack([c, 2.0 * c]), t)
    assert rows.shape == (2, len(t))
    assert np.max(np.abs(rows[0] - got)) <= 1e-15 * np.max(np.abs(got))
    assert np.max(np.abs(rows[1] - 2.0 * got)) <= 1e-15 * np.max(np.abs(got))
    assert isinstance(tb_superposition(sv, -4, c.real, 0.3), float)
    assert isinstance(tb_superposition(sv, -4, c, 0.3), complex)


def test_superposition_matches_exact_translates():
    sv = SV([16.0, -17.0])  # severity 34: tb_exact runs in mpmath
    c = np.random.default_rng(4).uniform(-1.0, 1.0, 6)
    t = np.linspace(-3.0, 5.0, 81)
    want = sum(ci * tb_exact(sv, t - (-2 + i)) for i, ci in enumerate(c))
    got = tb_superposition(sv, -2, c, t)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- tabulation ---------------------------------------------------------------

def test_tabulate_matches_exact_moderate():
    for freqs in ([0.0] * 4, [-1.0, 1.0], [2.0, -3.0]):
        sv = SV(freqs)
        tab = tb_tabulate(sv)
        ref = tb_exact(sv, tab.grid)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(tab.values - ref)) < 1e-9 * scale


def test_tabulate_matches_exact_stiff():
    # the whole point of the FFT route: no cancellation where tb_exact needs mpmath
    for freqs in ([16.0, -17.0], [16.0, 18.0, -17.0, -15.0]):
        sv = SV(freqs)
        tab = tb_tabulate(sv)
        ref = tb_exact(sv, tab.grid)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(tab.values - ref)) < 1e-7 * scale


def test_tabulate_interpolation_between_nodes():
    sv = SV([-1.0, 1.0])
    tab = tb_tabulate(sv)
    ts = np.linspace(0.013, 1.987, 101)
    assert np.max(np.abs(tab(ts) - tb_exact(sv, ts))) < 1e-9


def test_tabulate_rejects_first_order():
    with pytest.raises(ValueError):
        tb_tabulate(SV([0.0]))


# --- Euler splines: three routes against each other ---------------------------

def test_euler_spline_three_routes():
    sv = SV([0.5, -1.0, 0.0])
    for lam in (-1.0, -0.35, 2.0 + 1.5j, -0.2 - 0.8j):
        for x in (0.0, 0.4, 1.7, -0.3):
            direct = euler_spline(sv, x, lam)
            resolvent = euler_spline_resolvent(sv, x, lam)
            contour = ef_contour(sv, x, lam)
            assert abs(direct - resolvent) < 1e-9 * max(1.0, abs(direct))
            assert abs(direct - contour) < 1e-9 * max(1.0, abs(direct))


def test_contour_rejects_pole_on_axis():
    with pytest.raises(ContourDomainError):
        ef_contour(SV([0.0, 0.0]), 0.5, 2.0)


@settings(max_examples=20, deadline=None)
@given(
    lams=st.lists(
        st.floats(-2.0, 2.0).map(lambda x: round(x, 3)), min_size=2, max_size=3
    ),
    x=st.floats(0.0, 0.99),
    theta=st.floats(0.3, 5.9),
)
def test_resolvent_route_property(lams, x, theta):
    sv = SV(lams)
    lam = complex(math.cos(theta), math.sin(theta))
    direct = euler_spline(sv, x, lam)
    resolvent = euler_spline_resolvent(sv, x, lam)
    assert abs(direct - resolvent) < 1e-9 * max(1.0, abs(direct))


def test_functional_equation():
    sv = SV([1.0, -2.0])
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0)
        lam = complex(*rng.uniform(-1.5, 1.5, 2))
        if abs(lam) < 0.1:
            continue
        lhs = euler_spline(sv, x + 1.0, lam)
        rhs = lam * euler_spline(sv, x, lam)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_half_period_identity_symmetric():
    # Phi(N/2; lam) = lam^{N/2} Phi(0; lam) for symmetric spectra (even N)
    for freqs in ([0.0] * 4, [-1.0, 1.0], [-2.0, -0.5, 0.5, 2.0]):
        sv = SV(freqs)
        half = sv.order // 2
        rng = np.random.default_rng(11)
        for _ in range(10):
            lam = complex(*rng.uniform(-1.5, 1.5, 2))
            if abs(lam) < 0.2:
                continue
            lhs = euler_spline(sv, float(half), lam)
            rhs = lam**half * euler_spline(sv, 0.0, lam)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_symbol_reciprocity_symmetric():
    # z -> 1/z invariance of Phi(N/2; .) for symmetric spectra
    sv = SV([-1.0, 1.0, 0.0, 0.0])
    half = sv.order // 2
    for xi in np.linspace(0.1, 3.0, 12):
        z = complex(math.cos(xi), math.sin(xi)) * 1.3
        a = euler_spline(sv, float(half), z)
        b = euler_spline(sv, float(half), 1.0 / z)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


# --- Euler-Frobenius ----------------------------------------------------------

def test_ef_cubic_frozen():
    ef = euler_frobenius(SV([0.0] * 4))
    assert np.allclose(ef.coeffs, [-1.0 / 6.0, -4.0 / 6.0, -1.0 / 6.0], atol=1e-14)
    zeros = ef_zeros(SV([0.0] * 4))
    assert zeros == pytest.approx([-2.0 - math.sqrt(3.0), -2.0 + math.sqrt(3.0)], abs=1e-12)


def test_ef_degree_and_zero_count():
    for freqs in ([0.0, 0.0], [0.0] * 6, [-3.0, 3.0], [1.0, 3.0, -2.0, 0.0]):
        sv = SV(freqs)
        ef = euler_frobenius(sv)
        assert ef.degree == sv.order - 2
        zeros = ef_zeros(sv)
        assert len(zeros) == sv.order - 2
        assert np.all(zeros < 0.0)


def test_ef_reciprocal_pairing_symmetric():
    for freqs in ([0.0] * 6, [-2.0, 2.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 1.0]):
        sv = SV(freqs)
        zeros = ef_zeros(sv)
        prods = zeros * zeros[::-1]
        assert np.allclose(prods, 1.0, atol=1e-9)


def test_ef_matches_resolvent_at_random_points():
    sv = SV([1.0, -2.0, 0.5])
    ef = euler_frobenius(sv)
    n = sv.order
    sign = (-1.0) ** (n - 1)
    scale = math.exp(sv.freq_sum())
    for lam in (-0.5, -2.2, 1.0 + 1.0j):
        want = sign * scale * lam ** (n - 1) * euler_spline_resolvent(sv, 0.0, lam)
        assert ef(lam) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_ef_symbol_bounds_representative():
    # |P(-1)| <= |P(e^{i xi})| <= |P(1)| for symmetric spectra
    for freqs in ([0.0] * 4, [-1.5, 1.5, 0.0, 0.0], [0.0] * 8):
        ef = euler_frobenius(SV(freqs))
        xi = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
        vals = np.abs(ef(np.exp(1j * xi)))
        slack = 1e-10 * max(1.0, abs(ef(1.0)))
        assert np.all(vals >= abs(ef(-1.0)) - slack)
        assert np.all(vals <= abs(ef(1.0)) + slack)


def test_integer_values_sum_to_symbol_at_one():
    # sum_m Q(m) = Phi(0;1) * 1 = value of the symbol at xi = 0
    sv = SV([0.7, -0.7])
    q = tb_integer_values(sv)
    assert sum(q) == pytest.approx(abs(euler_spline(sv, 0.0, 1.0)), rel=1e-12)

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

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from scipy.integrate import quad
from scipy.interpolate import BSpline

from polyshannon.cli import ExperimentConfig, _battery, run_verify
from polyshannon.shannon1d import tb_superposition
from polyshannon.spectrum import SpectrumVector, radial_spectrum, strip_spectrum
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


def _masked_fourier(spectrum, xi):
    # the symbol as np.where over the whole array picks each factor's branch
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    z = np.exp(-1j * xi)
    out = np.ones(xi.shape, dtype=complex)
    for li, mult in spectrum.entries:
        el = math.exp(-li)
        w = 1j * xi - li
        small = np.abs(w) < 1e-6
        w_safe = np.where(small, 1.0, w)
        f = (el - z) / w_safe
        ws = np.where(small, w, 0.0)
        f = np.where(small, el * (1.0 - ws / 2 + ws * ws / 6 - ws * ws * ws / 24), f)
        for _ in range(mult):
            out *= f
    return out


@pytest.mark.parametrize("freqs", [[0.0, 0.0, 1.5], [4e-7, -2.0, -2.0], [0.3, -1.1]])
def test_fourier_taylor_branch_only_where_it_is_taken(freqs):
    # w = i xi - l is 0 at xi = l = 0, inside the Taylor disc at the tiny xi
    # (and for l = 4e-7 at xi = 0), generic elsewhere; the 2-D batch has none
    sv = SV(freqs)
    xi = np.array([0.0, 3e-7, -5e-7, 9e-7, 1e-6, 2e-6, 0.25, -1.3, 7.0, 40.0])
    assert np.array_equal(tb_fourier(sv, xi), _masked_fourier(sv, xi))
    grid = np.linspace(0.5, 30.0, 24).reshape(4, 6)
    assert np.array_equal(tb_fourier(sv, grid), _masked_fourier(sv, grid))
    assert tb_fourier(sv, 3e-7) == _masked_fourier(sv, 3e-7)[0]


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


def test_resolvent_frozen_values():
    # Phi(0; -1) = B(-1) sum_{j>=0} (-1)^j g(j), B(-1) = prod_j (1 + e^{-lambda_j});
    # the frozen sums are 1/2 and -0.2310585786300049
    assert euler_spline_resolvent(SV([0.0]), 0.0, -1.0) == pytest.approx(
        0.5 * 2.0, abs=1e-14
    )
    b = (1.0 + math.e) * (1.0 + 1.0 / math.e)
    assert euler_spline_resolvent(SV([-1.0, 1.0]), 0.0, -1.0) == pytest.approx(
        -0.2310585786300049 * b, abs=1e-12
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


def _long_coeffs(sv):
    """Every piece's Chebyshev coefficients to the length past which each
    basis function's own coefficients sum to at most 2**-wp of its
    maximum, wp = prec + _GUARD_BITS: an uncut reference, far longer than
    the series :func:`tbs._piece_coeffs` forms."""
    freqs, rows, prec = tbs._pieces(sv)
    wp = prec + tbs._GUARD_BITS
    count = max(m for _, m in freqs) + max(tbs._bessel_count(lam, wp) for lam, _ in freqs)
    basis = []
    for lam, mult in freqs:
        c = tbs._exp_coeffs(lam, count, wp)
        for _ in range(mult):
            basis.append(c)
            c = tbs._times_u(c)
    return np.array([[sum(a * b for a, b in zip(ints, column)) / (1 << 2 * wp)
                      for column in zip(*basis)] for ints in rows])


def _certified_spectra():
    """The verify battery, the radial p = 2 spectra k <= 8 of a K = 8 sphere
    and the strips {-+sqrt 29}, {-+sqrt 37} (p = 2)."""
    classical, strips, radial = _battery()
    dense = [radial_spectrum(k, 3, 2) for k in range(9)]
    extra = [strip_spectrum(math.sqrt(29.0), 2), strip_spectrum(math.sqrt(37.0), 2)]
    return classical + strips + radial + dense + extra


def test_chebyshev_cut_is_the_shortest_certified_prefix():
    # every series drops a tail sum |c_k| of at most eps * max|Q| and no
    # shorter prefix would, the tail read on a long reference; max|Q| is
    # read here on a fine uniform grid.  The strips {-+sqrt 29},
    # {-+sqrt 37} (p = 2) keep at most 23 coefficients
    classical, strips, radial = _battery()
    extra = [strip_spectrum(math.sqrt(29.0), 2), strip_spectrum(math.sqrt(37.0), 2)]
    eps = np.finfo(float).eps
    for sv in classical + strips + radial + extra:
        cheb = tb_chebyshev(sv)
        peak = np.max(np.abs(cheb(np.linspace(0.0, sv.order, 200 * sv.order + 1))))
        full = _long_coeffs(sv)
        for c, row in zip(cheb.coeffs, full):
            assert np.array_equal(c, row[: len(c)]), str(sv)
            assert np.sum(np.abs(row[len(c):])) <= eps * peak * 1.001, str(sv)
            if len(c) > 1:
                assert np.sum(np.abs(row[len(c) - 1:])) > eps * peak * 0.999, str(sv)
    for sv in extra:
        assert max(len(c) for c in tb_chebyshev(sv).coeffs) <= 23, str(sv)


def test_series_length_bound_covers_the_measured_tail():
    # past the length the proven bound gives, every piece's coefficients
    # of the long reference sum to at most 2**-_GUARD_BITS eps max|Q_N(m)|,
    # and the coefficients formed, from Miller's recurrence started at that
    # length, err from the reference's by a few times as much
    bound = 2.0**-tbs._GUARD_BITS * np.finfo(float).eps
    for sv in _certified_spectra():
        freqs, rows, prec = tbs._pieces(sv)
        count = tbs._series_length(freqs, rows, prec + tbs._GUARD_BITS)
        full = _long_coeffs(sv)
        assert count < full.shape[1], str(sv)
        peak = max(map(abs, tbs._knot_values(sv)))
        tails = np.sum(np.abs(full[:, count:]), axis=1)
        assert np.all(tails <= bound * peak), str(sv)
        errors = np.sum(np.abs(tbs._piece_coeffs(sv) - full[:, :count]), axis=1)
        assert np.all(errors <= 4 * bound * peak), str(sv)


def test_chebyshev_build_is_frozen():
    # SHA-256 of every series (its length, then its float64 coefficients,
    # little-endian) and of the integer values, over the spectra of
    # _certified_spectra: the bits of the mpmath assembly with uncut
    # series, which the fixed-point build with proven lengths must keep
    digest = hashlib.sha256()
    for sv in _certified_spectra():
        for row in tb_chebyshev(sv).coeffs:
            digest.update(len(row).to_bytes(4, "little"))
            digest.update(np.asarray(row, "<f8").tobytes())
        digest.update(np.asarray(tb_integer_values(sv), "<f8").tobytes())
    assert digest.hexdigest() == (
        "a4d66fc020b19b1415e39540d85764bf65ab75a9320dcae15337a0338dbca340")


def _local_coeffs(entries, beta, n: int) -> list:
    """Q_N's local coefficients on each [m, m+1), m = 0..n-1, in mpmath, one
    row per piece over the basis u^r e^{l u}: the Green translates
    beta_j g(t - j), j <= m, re-expanded about u = t - m."""
    growth = [[mp.exp(li * delta) for delta in range(n)] for li, _ in entries]
    pieces = []
    for m in range(n):
        row = []
        for (li, cvec), exps in zip(entries, growth):
            coeffs = [mp.mpf(0)] * len(cvec)
            for j in range(m + 1):
                delta = m - j
                w = beta[j] * exps[delta]
                for s, cs in enumerate(cvec):
                    for r in range(s + 1):
                        coeffs[r] += w * cs * math.comb(s, r) * delta ** (s - r)
            row.extend(coeffs)
        pieces.append(row)
    return pieces


def test_fixed_point_pieces_match_the_mpmath_assembly():
    # the fixed-point pieces against the mpmath Green's-function assembly at
    # 30 more digits: each row's coefficient errors, weighted by the basis
    # maxima e^{max(l, 0)}, sum to at most 2**-_GUARD_BITS eps max|Q_N(m)|.
    # Multiplicities, close frequencies and a stiff spectrum included
    classical, strips, radial = _battery()
    extra = [SV([2.0, 2.0, 2.0, -1.0, -1.0]), SV([0.0, 1e-6, 3.0, -3.0]),
             SV([0.0, 1e-7, 2e-7]), SV([40.0, -40.0, 5.0])]
    for sv in classical + strips + radial + extra:
        freqs, rows, prec = tbs._pieces(sv)
        fb = prec + tbs._GUARD_BITS
        peak = max(map(abs, tbs._knot_values(sv)))
        dps = tbs._exact_dps(sv) + 30
        entries, beta = tbs._system(sv, dps)
        with mp.workdps(dps):
            growth = [mp.exp(max(li, 0)) for li, cvec in entries for _ in cvec]
            for got, want in zip(rows, _local_coeffs(entries, beta, sv.order)):
                err = sum(abs(mp.mpf(g) / 2**fb - w) * e for g, w, e in zip(got, want, growth))
                assert err <= 2.0**-tbs._GUARD_BITS * np.finfo(float).eps * peak, str(sv)


@pytest.mark.parametrize("lam", [-37.5, -3.0, 0.0, 1e-3, 2.5, 40.0])
def test_exp_coefficients_match_mpmath_bessel(lam):
    # e^{lam u}, u = (1 + x)/2, has the T_k coefficients
    # (2 - [k = 0]) e^{lam/2} I_k(lam/2): mpmath's besseli at twice the
    # working precision checks the fixed-point Miller recurrence, to
    # 2**-prec of max e^{lam u} on [0, 1], up to the length past which every
    # coefficient is below 2**-wp of it
    with mp.workdps(40):
        prec = mp.prec
        lam_bin = tbs._binary(lam)
    wp = prec + tbs._GUARD_BITS
    count = tbs._bessel_count(lam_bin, wp) + 1
    got = tbs._exp_coeffs(lam_bin, count, wp)
    with mp.workprec(2 * wp):
        half = mp.mpf(lam) / 2
        scale = max(mp.mpf(1), mp.exp(lam))
        for k, c in enumerate(got):
            want = (1 if k == 0 else 2) * mp.exp(half) * mp.besseli(k, half)
            assert abs(mp.mpf(c) / 2**wp - want) <= 2.0**-prec * scale, k
        assert abs(want) <= 2.0**-wp * scale


def test_chebyshev_edge_conventions():
    # the callable, and a single translate summed by tb_superposition
    for freqs in ([0.0, 0.0], [2.0, -3.0, 0.5], [-8.0, 8.0, 0.0, 0.0]):
        sv = SV(freqs)
        n = sv.order
        cheb = tb_chebyshev(sv)
        peak = np.max(np.abs(cheb(np.linspace(0.0, n, 101))))
        outside = np.array(
            [-1.0, -1e-12, n, n + 1e-9, n + 3.0, np.nan, np.inf, -np.inf]
        )
        assert np.array_equal(cheb(outside), np.zeros(8))
        assert np.array_equal(tb_superposition(sv, 0, [1.0], outside), np.zeros(8))
        # left-closed, continuous for N >= 2
        assert abs(cheb(0.0)) <= 1e-15 * peak
        assert abs(tb_superposition(sv, 0, [1.0], 0.0)) <= 1e-15 * peak
        assert isinstance(cheb(0.5), float)
        assert cheb(np.zeros((2, 3))).shape == (2, 3)
        assert tb_superposition(sv, -1, np.ones((4, 4)), np.zeros((2, 3))).shape == (4, 2, 3)
        # no coefficients, no queries
        assert np.array_equal(tb_superposition(sv, 0, np.zeros(0), outside), np.zeros(8))
        assert np.array_equal(tb_superposition(sv, -1, np.ones((4, 4)), []), np.zeros((4, 0)))
    lam = -0.8
    first = tb_chebyshev(SV([lam]))
    assert first(0.0) == pytest.approx(math.exp(-lam), rel=1e-15)
    assert tb_superposition(SV([lam]), 0, [1.0], 0.0) == pytest.approx(math.exp(-lam), rel=1e-15)
    assert first(1.0) == 0.0
    assert tb_superposition(SV([lam]), 0, [1.0], 1.0) == 0.0
    ts = np.linspace(0.0, 0.999, 21)
    assert np.allclose(first(ts), np.exp(lam * (ts - 1.0)), rtol=1e-15, atol=0.0)
    assert np.allclose(tb_superposition(SV([lam]), 0, [1.0], ts), np.exp(lam * (ts - 1.0)),
                       rtol=1e-15, atol=0.0)


def test_translates_match_exact_translates():
    sv = SV([2.0, -3.0, 0.5])
    # unit coefficient rows i = -1..4 clip the live translates of the first
    # and last points; integer t puts every point on a knot, 1e6 and 1e300
    # are far outside
    t = np.concatenate([
        np.linspace(-4.0, 9.0, 131), np.arange(-4.0, 10.0), [-1e300, -1e6, 1e6, 1e300],
    ])
    got = tb_superposition(sv, -1, np.eye(6), t)
    want = np.stack([tb_exact(sv, t - i) for i in range(-1, 5)])
    assert got.shape == (6, len(t))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(got[:, :20] == 0.0) and np.all(got[:, -4:] == 0.0)


def _textbook_basis_sum(c, x):
    """sum_k c_k T_k(x), added in ascending k, T_k = 2x T_{k-1} - T_{k-2}."""
    acc, prev, cur = np.zeros_like(x), np.ones_like(x), x
    acc = acc + c[0] * prev
    for ck in c[1:]:
        acc = acc + ck * cur
        prev, cur = cur, 2.0 * x * cur - prev
    return acc


@pytest.mark.parametrize("points", [0, 1, 8, 20000, tbs._BASIS_CHUNK + 1])
@pytest.mark.parametrize("length", [1, 2, 25])
def test_clenshaw_matches_the_textbook_recurrence(length, points):
    # pieces of mixed lengths, zero-padded to the longest, in chunks whose
    # last may hold one point: each value has the bits of its own textbook
    # basis sum, and keeps them without the other pieces
    rng = np.random.default_rng(100 * length + points)
    c = rng.standard_normal(length)
    series = (c, rng.standard_normal(length + 3), c[:1])
    t = rng.integers(0, 3, points) + rng.uniform(0.0, 1.0, points)
    got = tbs.TbChebyshev(SV([0.0, 0.0, 0.0]), series)(t)
    assert got.shape == (points,)
    cell = np.floor(t)
    x = 2.0 * (t - cell) - 1.0
    for m, piece in enumerate(series):
        on = cell == m
        assert np.array_equal(got[on], _textbook_basis_sum(piece, x[on]))
    alone = tbs.TbChebyshev(SV([0.0]), series[:1])(t)
    assert np.array_equal(alone[cell == 0], got[cell == 0])


def test_pointwise_values_contract_each_point_once(monkeypatch):
    # one einsum per cell of a chunk, over that cell's points alone: its
    # rows x columns sum to the reached points, plus one for the doubled
    # column of each one-point cell (3.5 is alone in its cell)
    sv = SV([0.5, -1.0, 0.0, 2.0])
    cheb = tb_chebyshev(sv)
    rng = np.random.default_rng(67)
    t = np.concatenate([rng.uniform(-1.0, 3.0, 300), [3.5, -2.0, 7.0, math.nan]])
    reached = np.count_nonzero((t >= 0.0) & (t < sv.order))
    sizes, einsum = [], np.einsum
    monkeypatch.setattr(
        np, "einsum",
        lambda spec, a, b: sizes.append(a.shape[0] * b.shape[1]) or einsum(spec, a, b))
    cheb(t)
    assert len(sizes) == sv.order and sum(sizes) == reached + 1


def test_pointwise_pieces_are_the_textbook_sums_bit_for_bit():
    sv = SV([2.0, -3.0, 0.5])
    cheb = tb_chebyshev(sv)
    rng = np.random.default_rng(59)
    # dyadic points and integer knots keep t - i exact, so the callable at
    # t - i sees the piece and abscissa of translate i at t
    dyadic = np.concatenate([rng.integers(-5 * 1024, 10 * 1024, 150) / 1024.0,
                             np.arange(-4.0, 10.0)])
    far = np.array([-1e300, -1e6, 1e6, 1e300, math.nan, math.inf, -math.inf])
    t = np.concatenate([dyadic, far, rng.uniform(-5.0, 10.0, 50)])
    for i in range(-1, 5):
        got = cheb(t - i)
        assert got.shape == t.shape
        assert np.all(got[len(dyadic):len(dyadic) + len(far)] == 0.0)
        want = np.zeros(len(t))
        for p, tp in enumerate(t - i):
            m = math.floor(tp) if math.isfinite(tp) else -1
            if 0 <= m < sv.order:
                x = np.array([2.0 * (tp - m) - 1.0])
                want[p] = _textbook_basis_sum(cheb.coeffs[m], x)[0]
        assert np.array_equal(got, want)
        scalar = [cheb(float(tp - i)) for tp in t[:len(dyadic) + len(far)]]
        assert np.array_equal(got[:len(dyadic) + len(far)], scalar)
    assert np.array_equal(cheb(np.array([])), np.zeros(0))


def _exact_sum(sv, first, c, t):
    """sum_i c_i Q_N(t - i) from tb_exact, over the live translates only."""
    out = np.zeros(np.shape(c)[:-1] + t.shape, np.result_type(c, float))
    for i, ci in enumerate(np.moveaxis(np.asarray(c), -1, 0), start=first):
        live = (t - i >= 0.0) & (t - i < sv.order)
        out[..., live] += np.multiply.outer(ci, tb_exact(sv, t[live] - i))
    return out


def test_superposition_over_several_chunks_matches_exact_sums():
    # unsorted queries: more than one chunk of them in the cell [1, 2), the
    # others spread over cells on both sides of the coefficient range
    # (cells -2..5); real and complex coefficient rows
    sv = SV([2.0, -3.0, 0.5])
    rng = np.random.default_rng(61)
    t = np.concatenate([rng.uniform(1.0, 2.0, tbs._BASIS_CHUNK + 200),
                        rng.uniform(-6.0, 9.0, 300)])
    rng.shuffle(t)
    c = rng.uniform(-1.0, 1.0, (2, 6)) + 1j * rng.uniform(-1.0, 1.0, (2, 6))
    want = _exact_sum(sv, -2, c, t)
    for rows, ref in ((c.real, want.real), (c, want)):
        got = tb_superposition(sv, -2, rows, t)
        assert got.dtype == ref.dtype and got.shape == (2, len(t))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.all(got[:, (t < -2.0) | (t >= 6.0)] == 0.0)
        assert np.array_equal(tb_superposition(sv, -2, rows, t), got)


def test_superposition_is_zero_at_non_finite_queries():
    sv = SV([2.0, -3.0, 0.5])
    c = np.random.default_rng(62).uniform(-1.0, 1.0, 6)
    t = np.array([math.nan, 0.5, math.inf, -math.inf, 1.25])
    got = tb_superposition(sv, -2, c, t)
    assert np.array_equal(got[[0, 2, 3]], np.zeros(3))
    assert np.all(got[[1, 4]] != 0.0)
    assert tb_superposition(sv, -2, c, math.nan) == 0.0


def test_chebyshev_is_cached_per_spectrum():
    assert tb_chebyshev(SV([1.0, -1.0])) is tb_chebyshev(SV([-1.0, 1.0]))


def test_chebyshev_unresolved_degree_raises(monkeypatch):
    # {-9, 9} keeps 23 coefficients on each interval, past a limit of 16;
    # a spectrum whose coefficients overflow is named for that first
    tb_chebyshev.cache_clear()
    monkeypatch.setattr(tbs, "_CHEB_MAX", 16)
    try:
        with pytest.raises(ConvergenceError):
            tb_chebyshev(SV([9.0, -9.0]))
        with pytest.raises(ConditioningError, match="overflow float64"):
            tb_chebyshev(SV([800.0, -800.0]))
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


def test_values_beyond_float64_from_finite_coefficients_fail_by_name(monkeypatch):
    # Q_1 of {-711} is e^{711 (1 - t)}: its knot value e^711 is beyond
    # float64, and N = 1 has no integer values.  With the knot check off,
    # every Chebyshev coefficient is finite, about 47 times below e^711,
    # and the values they sum to still name the overflow
    sv = SV([-711.0])
    with pytest.raises(ConditioningError, match="overflow float64"):
        tb_chebyshev(sv)
    monkeypatch.setattr(tbs, "_knot_values", lambda spectrum: None)
    assert np.isfinite(tbs._piece_coeffs(sv)).all()
    with pytest.raises(ConditioningError, match="overflow float64"):
        tb_chebyshev(sv)


def test_overflow_is_named_before_the_bessel_recurrences(monkeypatch):
    # the series length and the recurrences cost more the larger |lambda|;
    # an overflowing knot value stops the build before either
    def recurrence(*args):
        raise AssertionError("Bessel recurrence ran")

    monkeypatch.setattr(tbs, "_bessel_count", recurrence)
    monkeypatch.setattr(tbs, "_miller", recurrence)
    monkeypatch.setattr(tbs, "_exp_coeffs", recurrence)
    for freqs in ([800.0, -800.0], [-1500.0, 1500.0], [-711.0]):
        with pytest.raises(ConditioningError, match="overflow float64"):
            tb_chebyshev(SV(freqs))


def test_integer_values_match_exact_green_sum_on_battery():
    # the pieces' constant terms against the independent pointwise Green's sum
    classical, strips, radial = _battery()
    for sv in classical + strips + radial:
        if tbs.cancellation_severity(sv) > tbs.SEVERITY_EXACT_MAX:
            continue
        got = np.asarray(tb_integer_values(sv))
        want = tb_exact(sv, np.arange(1.0, sv.order))
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), str(sv)


def _clear_tbspline_caches():
    for value in vars(tbs).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def test_pieces_are_built_once_per_spectrum(monkeypatch):
    sv = SV([1.5, -0.5, 0.0, 2.0])
    _clear_tbspline_caches()
    calls = []
    build = tbs._green_fixed

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(tbs, "_green_fixed", counted)
    try:
        coeffs = tb_chebyshev(sv).coeffs
        qm = tb_integer_values(sv)
        assert len(calls) == 1
        # a cold rebuild gives the same bits
        _clear_tbspline_caches()
        again = tb_chebyshev(sv).coeffs
        assert len(again) == len(coeffs)
        assert all(np.array_equal(a, b) for a, b in zip(again, coeffs))
        assert tb_integer_values(sv) == qm
        assert len(calls) == 2
    finally:
        _clear_tbspline_caches()


@pytest.mark.parametrize("dps", [30, 300])
@pytest.mark.parametrize("x", [-37.25, 700.5])
def test_mpmath_fixed_point_exp_api(dps, x):
    # the Chebyshev build's one mpmath internal, called once per positive
    # frequency: exp of a fixed-point integer with `prec` fraction bits,
    # returned with the same scaling.  The range reduction by ln 2 costs
    # about log2|x| bits, well inside the guard bits.
    from mpmath import mp
    from mpmath.libmp.libelefun import exp_fixed

    with mp.workdps(dps):
        prec = mp.prec
        got = mp.mpf(exp_fixed(int(mp.mpf(x) * 2**prec), prec)) / 2**prec
        want = mp.exp(x)
        assert abs(got - want) <= (4 + 2 * abs(x)) * 2.0**-prec * max(want, 1)


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
        ref = tb_exact(sv, np.arange(len(tab.values)) / tab.per_unit)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(tab.values - ref)) < 1e-9 * scale


def test_tabulate_matches_exact_stiff():
    # the whole point of the FFT route: no cancellation where tb_exact needs mpmath
    for freqs in ([16.0, -17.0], [16.0, 18.0, -17.0, -15.0]):
        sv = SV(freqs)
        tab = tb_tabulate(sv)
        ref = tb_exact(sv, np.arange(len(tab.values)) / tab.per_unit)
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


@pytest.mark.parametrize("lams", [
    np.array([-2.5, -0.35, 0.2, 1.0, 4.0]),
    np.array([2.0 + 1.5j, -0.2 - 0.8j, 1.3j, -1.0 + 0j, 0.6 - 0.1j]),
])
def test_euler_spline_array_equals_scalar_loop(lams):
    sv = SV([0.5, -1.0, 0.0, 2.0])
    xs = np.array([-3.7, -1.0, -0.25, 0.0, 0.4, 1.7, 2.999, 5.5])
    grid = euler_spline(sv, xs[:, None], lams[None, :])
    loop = np.array([[euler_spline(sv, x, lam) for lam in lams] for x in xs])
    assert grid.shape == (len(xs), len(lams))
    assert np.array_equal(grid, loop)
    # broadcasting a scalar against an array, both ways round
    assert np.array_equal(euler_spline(sv, 1.7, lams), loop[5])
    assert np.array_equal(euler_spline(sv, xs, lams[2]), loop[:, 2])


def test_euler_spline_scalar_call_returns_a_scalar():
    sv = SV([0.5, -1.0, 0.0])
    real = euler_spline(sv, 0.4, -0.35)
    cplx = euler_spline(sv, 0.4, 2.0 + 1.5j)
    assert np.ndim(real) == 0 and isinstance(real, float)
    assert np.ndim(cplx) == 0 and isinstance(cplx, complex)


def test_euler_spline_forms_one_basis_for_all_pieces(monkeypatch):
    # the N live translates at each x take the N pieces: one Chebyshev
    # basis, one column per entry, for the N entries per x
    sv = SV([0.5, -1.0, 0.0, 2.0])
    xs = np.array([-3.7, -1.0, 0.4, 2.999, 5.5])
    columns = []
    basis = tbs._chebyshev_basis
    monkeypatch.setattr(
        tbs, "_chebyshev_basis", lambda x, k: columns.append(x.size) or basis(x, k))
    euler_spline(sv, xs, 0.5)
    assert columns == [sv.order * len(xs)]
    # queries that no piece reaches form no basis
    far = tb_chebyshev(sv)(np.array([-5.0, 20.0, math.nan]))
    assert columns == [sv.order * len(xs)] and not np.any(far)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("route", [euler_spline, euler_spline_resolvent])
def test_euler_spline_routes_reject_non_finite_x(route, bad):
    with pytest.raises(ValueError, match="query coordinates contain NaN or infinite"):
        route(SV([0.5, -1.0, 0.0]), bad, 2.0)


def test_euler_spline_rejects_a_bad_element_anywhere():
    with pytest.raises(ValueError, match="lam must be nonzero"):
        euler_spline(SV([0.0, 0.0]), 0.5, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="NaN or infinite"):
        euler_spline(SV([0.0, 0.0]), np.array([0.5, math.nan]), 2.0)


def test_euler_spline_resolvent_array_equals_scalar_loop():
    # the array route against the scalar closed form on Python scalars, bit
    # for bit: real float64 draws run as one array pass, those within 1e-6
    # of a pole node included, complex lam stays scalar
    xs = np.array([-3.7, -3.0, -1.0, -0.25, 0.0, 0.4, 1.0, 1.7, 2.999, 5.5])

    def scalar(sv, x, lam):
        k = math.floor(x)
        return tbs._resolvent(sv, x - k, lam, None) * lam**k

    for sv in (SV([0.5, -1.0, 0.0, 2.0]), radial_spectrum(3, 3, 2), SV([0, 0, 0, 0])):
        nodes = [math.exp(li) for li, _ in sv.entries]
        lams = np.array([-4.0, -2.5, -0.35, 0.2, 1.3, 4.0]
                        + [e * (1.0 + d) for e in nodes for d in (1e-6, -1e-6)])
        grid = euler_spline_resolvent(sv, xs[:, None], lams[None, :])
        loop = np.array([[scalar(sv, float(x), float(lam)) for lam in lams] for x in xs])
        assert grid.shape == (len(xs), len(lams)) and grid.dtype == np.float64
        assert np.array_equal(grid, loop)
        # broadcasting a scalar against an array, both ways round
        assert np.array_equal(euler_spline_resolvent(sv, 1.7, lams), loop[7])
        assert np.array_equal(euler_spline_resolvent(sv, xs, lams[2]), loop[:, 2])
        cplx = np.array([2.0 + 1.5j, -0.2 - 0.8j, 1.3j, -1.0 + 0j])
        grid = euler_spline_resolvent(sv, xs[:, None], cplx[None, :])
        loop = np.array([[scalar(sv, float(x), complex(lam)) for lam in cplx] for x in xs])
        assert np.array_equal(grid, loop)

    # frozen values of the pole-free form, so that the route and its
    # reference cannot drift together, each within 16 eps of the all-positive
    # sum at |lam| from the closed form at 120 digits.  The first cancels:
    # its pole terms are about 13 times that sum, and it errs by 8.4 eps of
    # it, 1789 ulp of the value
    sv = SV([0.5, -1.0, 0.0, 2.0])
    for spectrum, x, lam, want in (
        (sv, -3.7, -2.5, "-0x1.71bde085f55e9p-16"),
        (radial_spectrum(3, 3, 2), 1.7, 0.35, "0x1.18db144e5093cp+2"),
        (SV([0, 0, 0, 0]), 2.3, -1.7, "-0x1.6e010cedcc9a4p-6"),
        (sv, 0.4, math.exp(2.0) * (1.0 + 1e-6), "0x1.2082077568a58p-5"),
    ):
        got = euler_spline_resolvent(spectrum, x, lam)
        assert type(got) is float and got.hex() == want
        k = math.floor(x)
        with mp.workdps(120):
            ref = tbs._power_sum_field(tbs._system(spectrum, 120)[0], mp.mpf(x - k),
                                       mp.mpf(lam), mp.exp) * mp.mpf(lam) ** k
            assert abs(got - ref) <= 16 * np.finfo(float).eps * euler_spline(spectrum, x, abs(lam))
    assert type(euler_spline_resolvent(sv, 0.4, 2.0 + 1.5j)) is complex


def test_euler_spline_resolvent_rejects_a_bad_element_anywhere():
    sv = SV([0.5, -1.0])
    with pytest.raises(ValueError, match="NaN or infinite"):
        euler_spline_resolvent(sv, np.array([0.5, math.nan]), 2.0)
    with pytest.raises(ValueError, match="lam must be nonzero"):
        euler_spline_resolvent(sv, 0.5, np.array([1.0, 0.0, 2.0]))
    node = math.exp(0.5)
    with pytest.raises(ValueError, match=f"lam = {node!r} sits on the pole"):
        euler_spline_resolvent(sv, 0.5, np.array([2.0, node, -1.0]))


@pytest.mark.parametrize("freqs, small", [([-710.0, 710.0], 2.0), ([-705.0, 705.0, 1.0], 1e-3)])
def test_euler_spline_resolvent_overflow_is_named(freqs, small):
    # e^{710}, or e^{705}/1e-3, overflows in the closed form, though Phi
    # itself is finite: an OverflowError of exp, or an inf in a product
    sv = SV(freqs)
    assert math.isfinite(euler_spline(sv, 0.5, small))
    for lam in (small, small + 1e-3j, np.array([small, -3.0]), np.array([small, 1.0j])):
        with pytest.raises(ConditioningError, match="overflows float64"):
            euler_spline_resolvent(sv, 0.5, lam)


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


def _ef_spectra():
    """The verify battery, then close frequencies, multiplicities, stiff
    spectra and a closed form that overflows float64 ({-+710})."""
    classical, strips, radial = _battery()
    extra = [SV([0.0, 1e-6, 3.0, -3.0]), SV([40.0, -40.0, 5.0]),
             SV([3.0, 3.0, -1.0, -1.0]), SV([-300.0, -1.0, 0.0, 2.0]),
             SV([-710.0, 710.0]), SV([-705.0, 705.0, 1.0]), SV([0.0, 1e-7, 2e-7])]
    return list(dict.fromkeys(classical + strips + radial)) + extra


def _ef_mpmath_passes(sv) -> bool:
    """The Euler-Frobenius cross-check decided on the resolvent in mpmath
    at _exact_dps: P(-1) from the coefficients within 1e-8 of their scale."""
    n = sv.order
    sign = -1.0 if n % 2 == 0 else 1.0
    scale = math.exp(sv.freq_sum())
    coeffs = [sign * scale * q for q in tbs.tb_integer_values(sv)]
    direct = float(np.polyval(np.asarray(coeffs), -1.0))
    phi = tbs._resolvent(sv, 0.0, -1.0, tbs._exact_dps(sv))
    return abs(direct - sign * scale * (-1.0) ** (n - 1) * phi) <= 1e-8 * max(
        1.0, sum(abs(c) for c in coeffs))


def _ef_passes(sv) -> bool:
    euler_frobenius.cache_clear()
    try:
        euler_frobenius(sv)
    except tbs.EFAccuracyError:
        return False
    finally:
        euler_frobenius.cache_clear()
    return True


@pytest.mark.parametrize("perturb", [0.0, 1e-5])
def test_ef_check_decides_as_mpmath(monkeypatch, perturb):
    # with the coefficients as built and with the largest Q(m) off by 1e-5
    # of itself, the float64 certificate and its mpmath fallback pass and
    # fail where the mpmath route alone does.  {0, 1e-7, 2e-7} passes: its
    # float64 closed form, taken without a bound, loses every digit to the
    # close frequencies
    values = tbs.tb_integer_values

    def perturbed(sv):
        q = list(values(sv))
        q[int(np.argmax(np.abs(q)))] *= 1.0 + perturb
        return tuple(q)

    monkeypatch.setattr(tbs, "tb_integer_values", perturbed)
    decisions = [(_ef_passes(sv), _ef_mpmath_passes(sv)) for sv in _ef_spectra()]
    assert all(got == want for got, want in decisions)
    assert all(want == (perturb == 0.0) for _, want in decisions)


def test_ef_float_bound_covers_its_error():
    # the running error bound of the float64 closed form at lam = -1
    # against the same form in mpmath at 60 digits or more; the value has
    # the bits of the float64 resolvent, and {-+710} overflows float64
    for sv in _ef_spectra():
        dps = max(60, tbs._exact_dps(sv) + 20)
        entries, _ = tbs._system(sv, dps)
        with mp.workdps(dps):
            exact = tbs._power_sum_field(entries, mp.mpf(0), mp.mpf(-1), mp.exp)
        if sv == SV([-710.0, 710.0]):
            with pytest.raises(OverflowError):
                tbs._ef_reference(sv)
            continue
        phi = tbs._ef_reference(sv)
        assert phi.value == tbs._resolvent(sv, 0.0, -1.0, None), str(sv)
        with mp.workdps(dps):
            assert abs(mp.mpf(phi.value) - exact) <= phi.bound(), str(sv)


def test_verify_builds_no_mpmath_system(monkeypatch):
    # every Euler-Frobenius check of the battery is certified in float64
    system = tbs._system

    def float_only(spectrum, dps=None):
        assert dps is None, f"mpmath system for {spectrum}"
        return system(spectrum)

    _clear_tbspline_caches()
    monkeypatch.setattr(tbs, "_system", float_only)
    try:
        assert run_verify(ExperimentConfig()).all_passed()
    finally:
        _clear_tbspline_caches()


def test_undecided_ef_check_reaches_mpmath(monkeypatch):
    # {0, 1e-6, -+3}: the close frequencies widen the bound past the
    # tolerance; {-+710}: the float64 closed form overflows.  A certified
    # spectrum asks mpmath nothing
    asked = []
    resolvent = tbs._resolvent

    def spy(spectrum, x, lam, dps):
        asked.append((spectrum, dps))
        return resolvent(spectrum, x, lam, dps)

    monkeypatch.setattr(tbs, "_resolvent", spy)
    for sv in (SV([0.0, 1e-6, 3.0, -3.0]), SV([-710.0, 710.0])):
        assert _ef_passes(sv)
        assert asked == [(sv, tbs._exact_dps(sv))]
        asked.clear()
    assert _ef_passes(radial_spectrum(16, 3, 2))
    assert asked == []


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

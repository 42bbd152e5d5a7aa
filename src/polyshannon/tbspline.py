"""TB-splines (exponential B-splines) and Euler-Frobenius polynomials.

For a frequency multiset Lambda = [l_1..l_N] (see :mod:`polyshannon.spectrum`)
the TB-spline Q_N is the inverse Fourier transform of

    Q^(xi) = prod_j (e^{-l_j} - e^{-i xi}) / (i xi - l_j),

equivalently the N-fold convolution of the first-order kernels
``e^{l_j (t-1)} 1_{[0,1)}``: a compactly supported bump on [0, N], positive on
the open interval, piecewise in the null space of prod_j (d/dt - l_j).  All
code in this module works with this *raw* normalization; sampling-kernel code
normalizes downstream as it sees fit.

Evaluation routes (deliberately redundant -- the tests play them against each
other):

* :func:`tb_exact`     -- finite Green's-function sum, the reference.  Exact
  formula, but the terms grow like e^{max|l| N} while the result stays
  bounded, so it always runs in mpmath, with the precision scaled to the
  digits that cancel, and refuses beyond ``SEVERITY_EXACT_MAX``
  (:class:`CancellationError`).  Point by point and slow: tests and checks
  only.
* :func:`tb_chebyshev` -- the one piecewise form: one chopped Chebyshev
  series per unit interval, sampled once per spectrum from the same data
  reorganized in mpmath as exponential polynomials per interval, and
  evaluated in float64 by Clenshaw.  No stiffness cap and no per-point mpmath
  work, so every library path that needs Q_N values runs on it: kernel
  grids and Euler splines through the callable, the series
  sum_i c_i Q_N(t - i) through :meth:`TbChebyshev.translates`, which maps
  each point to its N live translates.  :func:`tb_exact` stays the
  independent reference it is tested against.
* :func:`tb_tabulate`  -- FFT inversion of the Fourier form with an asymptotic
  correction for the truncated spectral tail.  No cancellation at any
  stiffness, which is exactly why it exists.
* :func:`tb_fourier`   -- the symbol itself.

On top of these sit the exponential Euler spline
``Phi(x; lam) = sum_m lam^m Q_N(x - m)`` (three independent routes again:
direct sum, one-sided resolvent continuation, contour integral) and the
generalized Euler-Frobenius polynomial, whose zero set drives the sampling
theory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from mpmath import mp

from .spectrum import SpectrumVector

__all__ = [
    "CancellationError",
    "ConditioningError",
    "ContourDomainError",
    "ConvergenceError",
    "EFAccuracyError",
    "EFStructureError",
    "EFPolynomial",
    "TbChebyshev",
    "TbTable",
    "cancellation_severity",
    "ef_contour",
    "ef_zeros",
    "euler_frobenius",
    "euler_spline",
    "euler_spline_resolvent",
    "green_power_sum",
    "tb_chebyshev",
    "tb_exact",
    "tb_fourier",
    "tb_integer_values",
    "tb_tabulate",
]

# stiffness s = max|lambda| * N controls how many digits the Green's-function
# algebra cancels away (up to s * log10(e)).  Below FLOAT_MAX float64 keeps
# ~10 clean digits even when the cancellation is fully realized (the float64
# resolvent behind the Euler-Frobenius cross-check relies on that); beyond
# EXACT_MAX the mpmath reference evaluator refuses.
SEVERITY_FLOAT_MAX = 12.0
SEVERITY_EXACT_MAX = 80.0

#: distinct frequencies closer than this make the partial-fraction system
#: numerically meaningless (they should have been merged into a multiplicity)
MIN_FREQ_GAP = 1e-8


class ConditioningError(ValueError):
    """The spectrum cannot be handled in float64: distinct frequencies too
    close together (merge them or separate them), or TB values beyond the
    float64 range (|lambda| of about 710 and more)."""


class CancellationError(ArithmeticError):
    """The requested evaluation would lose essentially every digit."""


class EFAccuracyError(ArithmeticError):
    """Euler-Frobenius coefficients failed their independent cross-check."""


class EFStructureError(ArithmeticError):
    """Computed Euler-Frobenius zeros violate the guaranteed structure."""


class ContourDomainError(ValueError):
    """No admissible contour rectangle for these parameters."""


class ConvergenceError(ArithmeticError):
    """An adaptive quadrature or Chebyshev series failed to settle."""


def cancellation_severity(spectrum: SpectrumVector) -> float:
    """max|lambda_j| * N, the digits-lost scale of the exact evaluator."""
    return spectrum.max_abs() * spectrum.order


# --------------------------------------------------------------------------
# field-generic series algebra
#
# The same partial-fraction / convolution algebra runs in float64 and in
# mpmath, so the helpers below work on plain Python lists of whatever scalar
# type they are handed ("one" supplies the field's multiplicative unit).
# --------------------------------------------------------------------------

def _shift_mul(coeffs: list, d, trunc: int) -> list:
    """Multiply the truncated power series ``coeffs`` (in u) by (u + d)."""
    zero = coeffs[0] * 0
    n = min(len(coeffs) + 1, trunc)
    out = [zero] * n
    for k, c in enumerate(coeffs):
        if k < n:
            out[k] = out[k] + c * d
        if k + 1 < n:
            out[k + 1] = out[k + 1] + c
    return out


def _series_invert(h: list, trunc: int) -> list:
    """Reciprocal of a power series with h[0] != 0, to ``trunc`` terms."""
    inv0 = 1 / h[0]
    out = [inv0]
    for k in range(1, trunc):
        acc = h[0] * 0
        for l in range(1, k + 1):
            if l < len(h):
                acc = acc + h[l] * out[k - l]
        out.append(-inv0 * acc)
    return out


def _green_terms(lams: Sequence, mults: Sequence[int], one) -> list:
    """Partial fractions of 1/prod_j (z - l_j)^{mu_j}.

    Returns ``[(l_i, [a_{i,0}, ..., a_{i,mu_i-1}]), ...]`` with

        1/L(z) = sum_i sum_s a_{i,s} / (z - l_i)^{s+1},

    so the causal Green's function of L(d/dt) is
    ``g(t) = 1_{t>=0} sum_{i,s} (a_{i,s}/s!) t^s e^{l_i t}``.
    """
    terms = []
    for i, (li, mi) in enumerate(zip(lams, mults)):
        h = [one]
        for j, (lj, mj) in enumerate(zip(lams, mults)):
            if j == i:
                continue
            d = li - lj
            for _ in range(mj):
                h = _shift_mul(h, d, mi)
        g = _series_invert(h, mi)
        # Taylor coefficient g[r] of 1/h at l_i pairs with power (z-l_i)^{r-mu_i},
        # i.e. a_{i,s} = g[mu_i - 1 - s]
        avec = [g[mi - 1 - s] for s in range(mi)]
        terms.append((li, avec))
    return terms


def _beta_coeffs(lams: Sequence, mults: Sequence[int], one, exp) -> list:
    """Coefficients of beta(w) = prod_j (e^{-l_j} - w), constant term first."""
    poly = [one]
    for li, mi in zip(lams, mults):
        e = exp(-li)
        for _ in range(mi):
            nxt = [c * e for c in poly] + [poly[0] * 0]
            for k in range(1, len(nxt)):
                nxt[k] = nxt[k] - poly[k - 1]
            poly = nxt
    return poly


def _check_float_range(spectrum: SpectrumVector, vals: np.ndarray) -> None:
    """ConditioningError if a TB value rounded to float64 overflowed."""
    if not np.all(np.isfinite(vals)):
        raise ConditioningError(
            f"values of the TB-spline of {spectrum} overflow float64"
        )


def _check_gaps(spectrum: SpectrumVector) -> None:
    vals = [v for v, _ in spectrum.entries]
    for a, b in zip(vals, vals[1:]):
        if b - a < MIN_FREQ_GAP:
            raise ConditioningError(
                f"frequencies {a} and {b} are closer than {MIN_FREQ_GAP}; "
                "merge them into one entry of higher multiplicity"
            )


@lru_cache(maxsize=None)
def _system(spectrum: SpectrumVector, dps: int | None = None):
    """(green terms with a/s! pre-divided, beta coefficients) of a spectrum.

    Float64 when ``dps`` is None, else mpmath at ``dps`` digits.
    """
    _check_gaps(spectrum)
    one, exp = (1.0, math.exp) if dps is None else (mp.mpf(1), mp.exp)
    with mp.workdps(dps or mp.dps):
        lams = [one * v for v, _ in spectrum.entries]
        mults = [m for _, m in spectrum.entries]
        terms = _green_terms(lams, mults, one)
        entries = tuple(
            (li, tuple(a / math.factorial(s) for s, a in enumerate(avec)))
            for li, avec in terms
        )
        beta = tuple(_beta_coeffs(lams, mults, one, exp))
    return entries, beta


def _hp_dps(severity: float) -> int:
    # cancellation burns severity * log10(e) digits; keep ~25 clean ones
    return 35 + int(0.4343 * severity)


@lru_cache(maxsize=None)
def _gap_digits(spectrum: SpectrumVector) -> float:
    """Digits the Green's-function sum loses to close frequencies.

    Partial-fraction coefficients grow like 1/prod|l_i - l_j|^{mu_j}, and
    the O(1) result is what is left after they cancel, so log10 of the
    largest one is the loss.  Zero for well-separated spectra.
    """
    _check_gaps(spectrum)
    lams = [v for v, _ in spectrum.entries]
    mults = [m for _, m in spectrum.entries]
    biggest = max(
        abs(a) for _, avec in _green_terms(lams, mults, 1.0) for a in avec
    )
    return max(0.0, math.log10(biggest))


def _exact_dps(spectrum: SpectrumVector) -> int:
    """mpmath precision keeping ~25 clean digits of the Green's-function sum."""
    sev = cancellation_severity(spectrum)
    return _hp_dps(sev) + math.ceil(_gap_digits(spectrum))


# --------------------------------------------------------------------------
# pointwise evaluation
# --------------------------------------------------------------------------

def _qn_hp_arr(spectrum: SpectrumVector, t: np.ndarray, dps: int) -> np.ndarray:
    """Q_N at every point of ``t`` by the Green's-function sum in mpmath at ``dps``.

    No stiffness cap: the caller picks ``dps`` to cover the cancellation.
    """
    entries, beta = _system(spectrum, dps)
    n = spectrum.order
    out = np.zeros(np.shape(t))
    flat = out.reshape(-1)
    with mp.workdps(dps):
        for idx, tv in enumerate(np.ravel(t)):
            if not (0.0 <= tv < n):
                continue
            tt = mp.mpf(float(tv))
            acc = mp.mpf(0)
            for shift in range(n + 1):
                u = tt - shift
                if u < 0:
                    continue
                g = mp.mpf(0)
                for li, cvec in entries:
                    poly = mp.mpf(0)
                    for c in reversed(cvec):
                        poly = poly * u + c
                    g += poly * mp.exp(li * u)
                acc += beta[shift] * g
            flat[idx] = float(acc)
    return out


def tb_exact(spectrum: SpectrumVector, t):
    """TB-spline values by the Green's-function sum in mpmath: the reference.

    The precision, :func:`_exact_dps`, covers the digits that stiffness and
    close frequencies cancel away.  Raises :class:`CancellationError` when
    max|lambda|*N exceeds ``SEVERITY_EXACT_MAX``.  Values outside [0, N) are
    exactly zero (left-closed convention: Q(0) = 0 for N >= 2, and the
    first-order kernel has Q(0) = e^{-lambda}).  Library code evaluates Q_N
    through :func:`tb_chebyshev`, which is tested against this.
    """
    sev = cancellation_severity(spectrum)
    if sev > SEVERITY_EXACT_MAX:
        raise CancellationError(
            f"max|lambda|*N = {sev:.1f} exceeds {SEVERITY_EXACT_MAX}; "
            "use tb_tabulate or tb_chebyshev, which do not cancel"
        )
    t_arr = np.asarray(t, dtype=float)
    vals = _qn_hp_arr(spectrum, t_arr, _exact_dps(spectrum))
    return float(vals) if vals.ndim == 0 else vals


@lru_cache(maxsize=None)
def tb_integer_values(spectrum: SpectrumVector) -> tuple[float, ...]:
    """(Q_N(1), ..., Q_N(N-1)): the data behind symbols and Euler-Frobenius.

    The same mpmath sum as :func:`tb_exact`, without its stiffness cap.
    Raises :class:`ConditioningError` when a value overflows float64.
    """
    n = spectrum.order
    if n < 2:
        return ()
    vals = _qn_hp_arr(spectrum, np.arange(1.0, n), _exact_dps(spectrum))
    _check_float_range(spectrum, vals)
    return tuple(float(v) for v in vals)


# --------------------------------------------------------------------------
# Fourier side
# --------------------------------------------------------------------------

def tb_fourier(spectrum: SpectrumVector, xi):
    """The TB symbol Q^(xi) = prod_j (e^{-l_j} - e^{-i xi})/(i xi - l_j).

    Each factor is evaluated as e^{-l} * (1 - e^{-w})/w with w = i*xi - l,
    switching to the Taylor polynomial of (1 - e^{-w})/w for |w| < 1e-6 so
    the removable singularity at xi = -i*l never bites.
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    out = np.ones(xi_arr.shape, dtype=complex)
    for li, mult in spectrum.entries:
        w = 1j * xi_arr - li
        small = np.abs(w) < 1e-6
        w_safe = np.where(small, 1.0, w)
        f = (1.0 - np.exp(-w_safe)) / w_safe
        ws = np.where(small, w, 0.0)
        f = np.where(small, 1.0 - ws / 2 + ws * ws / 6 - ws * ws * ws / 24, f)
        out *= (math.exp(-li) * f) ** mult
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class TbTable:
    """TB-spline tabulated on a uniform grid over its support [0, N].

    ``values[l] = Q_N(l / per_unit)``.  ``err_bound`` is the *absolute* bound
    on the tabulation error (spectral truncation + aliasing) that the adaptive
    driver in :func:`tb_tabulate` guaranteed; interpolation between grid nodes
    through :meth:`__call__` adds O((lambda*h)^6) on top of it.
    """

    spectrum: SpectrumVector
    per_unit: int
    values: np.ndarray
    cutoff: float  # spectral truncation radius Xi actually used
    err_bound: float

    @property
    def grid(self) -> np.ndarray:
        return np.arange(len(self.values), dtype=float) / self.per_unit

    def __call__(self, t):
        from .tables import interp6

        return interp6(self.values, 0.0, 1.0 / self.per_unit, t, knot_every=self.per_unit)


def tb_tabulate(
    spectrum: SpectrumVector,
    per_unit: int = 64,
    rtol: float = 1e-8,
) -> TbTable:
    """Tabulate Q_N by FFT of its symbol plus an asymptotic tail correction.

    The Fourier integral over |xi| <= Xi is done by FFT on a grid fine enough
    in xi that time-domain aliasing (period P >= N + 6 units) is negligible;
    the |xi| > Xi remainder is added back analytically from the asymptotic
    expansion of integrals e^{i xi u}/(i xi - l)^{s+1} at large Xi.  Both
    error terms are bounded a priori and the spectral radius is grown until
    they sit below ``rtol`` relative to the mean level of Q_N, which makes
    this route immune to the cancellation that kills :func:`tb_exact` for
    stiff spectra.  Requires N >= 2 (first-order kernels have a closed form
    and a non-integrable symbol tail).
    """
    n = spectrum.order
    if n < 2:
        raise ValueError("tabulation needs N >= 2; Q_1 is e^{lambda (t-1)} on [0,1)")
    entries, beta = _system(spectrum)

    p_time = 8
    while p_time < n + 6:
        p_time *= 2

    c_hat = 1.0
    for li, mult in spectrum.entries:
        c_hat *= (1.0 + math.exp(-li)) ** mult
    qhat0 = tb_fourier(spectrum, 0.0).real
    tol_abs = rtol * qhat0 / n

    series_len = 14
    abs_beta = sum(abs(b) for b in beta)
    abs_green = sum(
        abs(a) * float(n) ** s for _, avec in entries for s, a in enumerate(avec)
    )
    for c_exp in range(2, 13):
        cutoff = math.pi * per_unit * (1 << c_exp)
        alias = 8.0 * n * c_hat / ((p_time - n) * cutoff**n)
        rho = 1.0 / (math.pi * (1 << c_exp))
        series_err = abs_beta * abs_green * math.factorial(series_len) * rho ** (
            series_len + 1
        ) / math.pi
        if alias <= tol_abs and series_err <= tol_abs:
            break
    else:
        raise ValueError(f"cannot reach rtol={rtol} for {spectrum} by tabulation")

    # FFT part: trapezoid over [-Xi, Xi].  The left-endpoint rectangle sum
    # differs from the trapezoid only in an imaginary component that the final
    # real-part extraction kills, so no explicit endpoint correction is needed.
    m_fft = p_time * per_unit * (1 << c_exp)
    dxi = 2.0 * cutoff / m_fft
    k = np.arange(-m_fft // 2, m_fft // 2)
    qhat = tb_fourier(spectrum, k * dxi)
    time_vals = np.fft.ifft(np.fft.ifftshift(qhat)) * (m_fft * dxi / (2.0 * math.pi))
    stride = 1 << c_exp
    main = time_vals[: n * per_unit * stride + 1 : stride].real

    tail = _spectral_tail(entries, beta, cutoff, per_unit, n, series_len)
    values = main + tail
    values.flags.writeable = False
    return TbTable(
        spectrum=spectrum,
        per_unit=per_unit,
        values=values,
        cutoff=cutoff,
        err_bound=alias + series_err,
    )


def _spectral_tail(entries, beta, cutoff, per_unit, n, series_len):
    """(1/pi) Re int_{Xi}^{inf} Q^(xi) e^{i xi t} dxi on the t-grid l/per_unit.

    Per partial fraction and integer shift this needs
    I_s(u) = int_Xi^inf e^{i xi u} (i xi - l)^{-(s+1)} dxi, which satisfies

        I_s = e^{i Xi u} (i Xi - l)^{-s} / (s i) + (u/s) I_{s-1},   s >= 1,

    with I_0 evaluated by its large-Xi asymptotic series for u != 0.  At
    u = 0 the s = 0 pieces are individually log-divergent but their residue
    coefficients sum to zero (N >= 2), so they are resummed jointly as
    i * sum_l a_{l,0} log(i Xi - l).
    """
    ts = np.arange(n * per_unit + 1, dtype=float) / per_unit
    tail = np.zeros_like(ts)
    acc = np.zeros(len(ts), dtype=complex)
    for shift in range(n + 1):
        bm = beta[shift]
        if bm == 0.0:
            continue
        u = ts - shift
        at_zero = u == 0.0
        uz = np.where(at_zero, 1.0, u)
        log_cluster = 0.0j
        for li, cvec in entries:
            z = 1j * cutoff - li
            phase = np.exp(1j * cutoff * u)
            # asymptotic series for I_0 away from u = 0
            q = 1.0 / (uz * z)
            series = np.ones_like(acc)
            term = np.ones_like(acc)
            for r in range(1, series_len):
                term = term * (r * q)
                series += term
            i_prev = -phase * series / ((1j * uz) * z)
            i_prev[at_zero] = 0.0
            mult = len(cvec)
            a0 = cvec[0]  # s = 0 coefficient is a_{l,0} itself (0! = 1)
            acc += bm * a0 * i_prev
            log_cluster += a0 * np.log(z)
            for s in range(1, mult):
                i_s = phase * z ** (-s) / (s * 1j) + (u / s) * i_prev
                # the closed form at u = 0 is the boundary term alone
                i_s[at_zero] = z ** (-s) / (s * 1j)
                a_s = cvec[s] * math.factorial(s)
                acc += bm * a_s * i_s
                i_prev = i_s
        if at_zero.any():
            acc[at_zero] += bm * 1j * log_cluster
    tail += acc.real / math.pi
    return tail


# --------------------------------------------------------------------------
# piecewise Chebyshev form
# --------------------------------------------------------------------------

#: Chebyshev degree of the first sampling pass; doubled on nested points
#: until every interval's series is chopped, up to the last value
_CHEB_FIRST = 16
_CHEB_MAX = 1024


@dataclass(frozen=True, eq=False)
class TbChebyshev:
    """Q_N as one Chebyshev series per unit interval [m, m+1), m = 0..N-1.

    ``coeffs[m][k]`` multiplies T_k(2u - 1) with u = t - m.  Evaluation is
    float64 Clenshaw and keeps :func:`tb_exact`'s conventions: zero outside
    [0, N), left-closed knots, a float for a scalar argument.
    """

    spectrum: SpectrumVector
    coeffs: tuple[np.ndarray, ...]

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        flat_t, flat_out = t_arr.reshape(-1), out.reshape(-1)
        cell = np.floor(flat_t)
        for m, c in enumerate(self.coeffs):
            sel = np.flatnonzero(cell == m)
            if sel.size:
                flat_out[sel] = _clenshaw(c, 2.0 * (flat_t[sel] - m) - 1.0)
        return float(out) if out.ndim == 0 else out

    def translates(self, first: int, count: int, t) -> np.ndarray:
        """Q_N(t - i) for i = first..first+count-1: a (count, t.size) matrix.

        At each point only the N translates i = floor(t) - m, m = 0..N-1,
        are live, and they take piece m at u = t - floor(t); so each piece
        fills its entries with one Clenshaw pass.  A non-finite t gives a
        zero column.
        """
        flat = np.asarray(t, dtype=float).reshape(-1)
        out = np.zeros((count, flat.size))
        cell = np.floor(np.where(np.isfinite(flat), flat, first - 1.0))
        # row of piece m is rel - m; clipping keeps far points out of every row
        rel = np.clip(cell - first, -1, count + len(self.coeffs) - 1).astype(np.int64)
        x = 2.0 * (flat - cell) - 1.0
        for m, c in enumerate(self.coeffs):
            sel = np.flatnonzero((rel >= m) & (rel - m < count))
            out[rel[sel] - m, sel] = _clenshaw(c, x[sel])
        return out


def _clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(x) by Clenshaw's recurrence."""
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    two_x = 2.0 * x
    for ck in c[:0:-1]:
        b1, b2 = ck + two_x * b1 - b2, b1
    return c[0] + x * b1 - b2


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at x_j = cos(pi j / n), j = 0..n (rows)."""
    n = vals.shape[-1] - 1
    ext = np.concatenate([vals, vals[..., n - 1 : 0 : -1]], axis=-1)
    c = np.fft.rfft(ext, axis=-1).real / n
    c[..., 0] /= 2.0
    c[..., n] /= 2.0
    return c


def _standard_chop(coeffs: np.ndarray, tol: float) -> int | None:
    """How many leading coefficients to keep, or None if the series is unresolved.

    Chebfun's ``standardChop`` (Aurentz & Trefethen, ACM TOMS 43, 2017): find
    a plateau in the monotone envelope of |c_k| below about tol^(2/3), then cut
    where the envelope, tilted slightly towards low degree, is least.
    """
    if tol >= 1.0:
        return 1
    n = len(coeffs)
    if n < 17:
        return None
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    log_tol = math.log(tol)
    for j in range(2, n + 1):  # 1-based, as in the reference
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return None
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / log_tol):
            plateau = j - 1
            break
    if env[plateau - 1] == 0.0:
        return plateau
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    tilted = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


def _local_coeffs(entries, beta, n: int) -> tuple:
    """Q_N's blocks (l, coeffs) on each [m, m+1), m = 0..n-1, in mpmath.

    On [m, m+1) only the Green translates beta_j g(t - j), j <= m, are
    switched on; re-expanding t^s e^{l t} about u = t - m gives the local
    coefficient of u^r e^{l u}.
    """
    pieces = []
    for m in range(n):
        blocks = []
        for li, cvec in entries:
            coeffs = [mp.mpf(0)] * len(cvec)
            for j in range(m + 1):
                delta = m - j
                w = beta[j] * mp.exp(li * delta)
                for s, cs in enumerate(cvec):
                    if cs == 0:
                        continue
                    for r in range(s + 1):
                        coeffs[r] += w * cs * math.comb(s, r) * delta ** (s - r)
            blocks.append((li, tuple(coeffs)))
        pieces.append(tuple(blocks))
    return tuple(pieces)


def _sample_local(pieces, us) -> np.ndarray:
    """Every piece's exp-polynomial at the mp points ``us``: (pieces, len(us)).

    The products u^s e^{l u} are shared by all pieces, so each point costs one
    exponential per distinct frequency and one dot product per piece.
    """
    flat = [[c for _, cs in blocks for c in cs] for blocks in pieces]
    out = np.empty((len(pieces), len(us)))
    for j, u in enumerate(us):
        basis = []
        for li, cs in pieces[0]:
            e = mp.exp(li * u)
            for _ in cs:
                basis.append(e)
                e *= u
        for m, row in enumerate(flat):
            out[m, j] = float(mp.fdot(basis, row))
    return out


@lru_cache(maxsize=None)
def _cheb_points(deg: int, dps: int, odd: bool) -> tuple:
    """u_j = (1 + cos(pi j / deg)) / 2 for j = 0..deg, or only the odd j, in mpmath.

    The same points serve every spectrum whose precision rounds up to ``dps``.
    """
    with mp.workdps(dps):
        js = range(1, deg, 2) if odd else range(deg + 1)
        return tuple(mp.cos(mp.pi * j / (2 * deg)) ** 2 for j in js)


@lru_cache(maxsize=None)
def tb_chebyshev(spectrum: SpectrumVector) -> TbChebyshev:
    """Q_N as chopped Chebyshev series, sampled once per spectrum.

    The local exp-polynomials of each unit interval are assembled in
    mpmath at the precision :func:`tb_exact` would use, sampled at Chebyshev
    points (doubling on nested points) and rounded once to float64, so there
    is no stiffness cap and no cancellation in the float evaluation.  Each
    interval is chopped by Chebfun's rule relative to max|Q| over the whole
    support.  Raises :class:`ConvergenceError` if some interval is still
    unresolved at degree ``_CHEB_MAX``, and :class:`ConditioningError` as
    soon as a sample overflows float64.
    """
    n = spectrum.order
    dps = _exact_dps(spectrum)
    points_dps = -(-dps // 20) * 20
    entries, beta = _system(spectrum, dps)
    eps = np.finfo(float).eps
    with mp.workdps(dps):
        pieces = _local_coeffs(entries, beta, n)
        deg = _CHEB_FIRST
        vals = _sample_local(pieces, _cheb_points(deg, points_dps, False))
        while True:
            _check_float_range(spectrum, vals)
            coeffs = _cheb_coeffs(vals)
            local = np.max(np.abs(vals), axis=1)
            scale = float(np.max(local))
            cuts = [
                _standard_chop(c, eps * max(1.0, scale / v) if v > 0.0 else 1.0)
                for c, v in zip(coeffs, local)
            ]
            if None not in cuts:
                break
            if deg >= _CHEB_MAX:
                raise ConvergenceError(
                    f"Chebyshev series of {spectrum} unresolved at degree {deg}"
                )
            # the points of degree 2*deg are the old ones plus the odd ones
            odd = _sample_local(pieces, _cheb_points(2 * deg, points_dps, True))
            merged = np.empty((n, 2 * deg + 1))
            merged[:, 0::2] = vals
            merged[:, 1::2] = odd
            vals, deg = merged, 2 * deg
    chopped = []
    for c, cut in zip(coeffs, cuts):
        c = c[:cut].copy()
        c.flags.writeable = False
        chopped.append(c)
    return TbChebyshev(spectrum, tuple(chopped))


# --------------------------------------------------------------------------
# exponential Euler splines
# --------------------------------------------------------------------------

def euler_spline(spectrum: SpectrumVector, x: float, lam: complex):
    """Phi(x; lam) = sum_m lam^m Q_N(x - m), a finite sum over the support.

    ``lam`` must be nonzero (negative powers appear).  Complex ``lam`` gives a
    complex result; real input stays real.  The Q_N values come from
    :func:`tb_chebyshev`, so there is no stiffness cap.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    n = spectrum.order
    m_lo = math.floor(x - n) + 1
    m_hi = math.floor(x)
    ms = np.arange(m_lo, m_hi + 1)
    if len(ms) == 0:
        return 0.0 if not isinstance(lam, complex) else 0.0j
    qv = tb_chebyshev(spectrum)(x - ms)
    acc = sum(lam ** int(m) * q for m, q in zip(ms, qv))
    return acc


@lru_cache(maxsize=None)
def _eulerian_coeffs(r: int) -> tuple[int, ...]:
    """Coefficients of A_r(mu) in G_r(mu) = sum_{j>=0} j^r mu^j = A_r/(1-mu)^{r+1}."""
    a = [1]
    for rr in range(r):
        nxt = [0] * (len(a) + 1)
        for k in range(len(nxt)):
            ak = a[k] if k < len(a) else 0
            akm = a[k - 1] if 0 <= k - 1 < len(a) else 0
            nxt[k] = k * ak + (rr + 2 - k) * akm
        a = nxt
    return tuple(a)


def _geom_moment(r: int, mu):
    """G_r(mu) = sum_{j>=0} j^r mu^j continued to all mu != 1."""
    coeffs = _eulerian_coeffs(r)
    num = 0 * mu
    for c in reversed(coeffs):
        num = num * mu + c
    return num / (1 - mu) ** (r + 1)


def _power_sum_field(entries, x, lam, exp):
    """sum_{j>=0} lam^{-j} g(x+j) continued past |e^l/lam| = 1, generic field."""
    total = 0 * lam
    for li, cvec in entries:
        mu = exp(li) / lam
        if abs(mu - 1) < 1e-12:
            raise ValueError(f"lam = {lam} sits on the pole e^{{lambda_j}}, lambda_j = {li}")
        block = 0 * lam
        for s, cs in enumerate(cvec):
            t_s = 0 * lam
            for r in range(s + 1):
                t_s = t_s + math.comb(s, r) * x ** (s - r) * _geom_moment(r, mu)
            block = block + cs * t_s
        total = total + exp(li * x) * block
    return total


def _pole_proximity_digits(entries, lam) -> float:
    """Decimal digits the rational continuation burns as lam nears a node.

    A frequency of multiplicity m contributes poles of order up to m at
    lam = e^{lambda_i}; at relative distance d the closed form cancels
    roughly m * log10(1/d) digits.
    """
    worst = 0.0
    for li, cvec in entries:
        d = abs(math.exp(li) / lam - 1.0)
        if 0.0 < d < 1.0:
            worst = max(worst, len(cvec) * math.log10(1.0 / d))
    return worst


#: float64 keeps ~13 clean digits in the resolvent as long as pole
#: proximity burns no more than this many
_RESOLVENT_FLOAT_LOSS_MAX = 3.0


def _field_exp_float(v):
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


def _resolvent(spectrum: SpectrumVector, x: float, lam, with_b: bool,
               stiff_exact: bool = False):
    """sum_{j>=0} lam^{-j} g(x + j), times B(lam) = sum_k beta_k lam^{-k} if ``with_b``.

    The one body behind every resolvent route.  It runs in float64 unless
    ``lam`` sits so close to a pole node e^{lambda_i} that the closed form
    would cancel more than ``_RESOLVENT_FLOAT_LOSS_MAX`` digits, or
    ``stiff_exact`` is set and the spectrum is stiffer than
    ``SEVERITY_FLOAT_MAX``; then it runs in mpmath at a precision covering
    the loss.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    loss = _pole_proximity_digits(_system(spectrum)[0], lam)
    dps = 30 + int(loss) if loss > _RESOLVENT_FLOAT_LOSS_MAX else None
    if stiff_exact and cancellation_severity(spectrum) > SEVERITY_FLOAT_MAX:
        dps = max(dps or 0, _exact_dps(spectrum))
    entries, beta = _system(spectrum, dps)
    x, exp = float(x), _field_exp_float
    with mp.workdps(dps or mp.dps):
        if dps is not None:
            x, lam, exp = mp.mpf(x), mp.mpmathify(lam), mp.exp
        val = _power_sum_field(entries, x, lam, exp)
        if with_b:
            val = sum(bj * lam ** (-j) for j, bj in enumerate(beta)) * val
        return complex(val) if isinstance(val, (complex, mp.mpc)) else float(val)


def green_power_sum(spectrum: SpectrumVector, x: float, lam: complex):
    """Analytic continuation of sum_{j>=0} lam^{-j} g(x + j).

    ``g`` is the causal Green's function of the operator.  The geometric-type
    series converges only for |lam| large, but each pole contributes a
    rational function of e^{lambda_i}/lam, which continues the sum to every
    ``lam`` off the points e^{lambda_i} (and 0).  Precision escalates as
    ``lam`` approaches one of those nodes, where the closed form cancels.
    This is the engine behind the resolvent route to the Euler spline.
    """
    return _resolvent(spectrum, x, lam, with_b=False)


def euler_spline_resolvent(spectrum: SpectrumVector, x: float, lam: complex):
    """Phi(x; lam) by the one-sided resolvent: B(lam) * green_power_sum.

    For x in [0,1), Phi(x;lam) = [sum_k beta_k lam^{-k}] * sum_{j>=0} lam^{-j} g(x+j);
    general x reduces by the functional equation Phi(x+1) = lam * Phi(x).
    Entirely independent of pointwise TB values, which is the point: it
    cross-examines :func:`euler_spline` and the Euler-Frobenius coefficients.
    Like :func:`green_power_sum` it escalates precision when ``lam`` sits
    close to a pole node e^{lambda_i}.
    """
    k = math.floor(x)
    return _resolvent(spectrum, x - k, lam, with_b=True) * lam**k


# --------------------------------------------------------------------------
# Euler-Frobenius polynomials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EFPolynomial:
    """Generalized Euler-Frobenius polynomial of a frequency multiset.

    Degree N-2, coefficients ``(-1)^{N-1} e^{sum lambda} Q_N(m)`` for the
    power lam^{N-1-m}, stored highest power first.  Satisfies
    P(lam) = (-1)^{N-1} e^{sum lambda} lam^{N-1} Phi(0; lam).
    """

    spectrum: SpectrumVector
    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, lam):
        return np.polyval(np.asarray(self.coeffs), lam)

    def zeros(self) -> np.ndarray:
        return ef_zeros(self.spectrum)


@lru_cache(maxsize=None)
def euler_frobenius(spectrum: SpectrumVector) -> EFPolynomial:
    """Build the Euler-Frobenius polynomial from integer TB values.

    The coefficients are cross-checked against the independent resolvent
    route at lam = -1; disagreement beyond 1e-8 of the coefficient scale
    raises :class:`EFAccuracyError` rather than returning silent garbage.
    """
    n = spectrum.order
    if n < 2:
        raise ValueError("Euler-Frobenius polynomial needs N >= 2")
    qm = tb_integer_values(spectrum)
    sign = -1.0 if n % 2 == 0 else 1.0
    scale = math.exp(spectrum.freq_sum())
    coeffs = tuple(float(sign * scale * q) for q in qm)
    poly = EFPolynomial(spectrum, coeffs)

    direct = float(np.polyval(np.asarray(coeffs), -1.0))
    reference = _ef_reference_value(spectrum, -1.0)
    tol = 1e-8 * max(1.0, sum(abs(c) for c in coeffs))
    if abs(direct - reference) > tol:
        raise EFAccuracyError(
            f"Euler-Frobenius cross-check failed for {spectrum}: "
            f"direct {direct!r} vs resolvent {reference!r}"
        )
    return poly


def _ef_reference_value(spectrum: SpectrumVector, lam: float) -> float:
    """P(lam) via the resolvent identity, in mpmath when stiffness demands."""
    n = spectrum.order
    sign = -1.0 if n % 2 == 0 else 1.0
    phi = _resolvent(spectrum, 0.0, lam, with_b=True, stiff_exact=True)
    return sign * math.exp(spectrum.freq_sum()) * lam ** (n - 1) * phi


def ef_zeros(spectrum: SpectrumVector) -> np.ndarray:
    """The N-2 zeros of the Euler-Frobenius polynomial, ascending.

    The theory guarantees simple real negative zeros, reciprocal in pairs
    when the spectrum is symmetric; the computed roots are validated against
    that structure (:class:`EFStructureError` on violation) and, for
    symmetric spectra, re-symmetrized exactly in log space.
    """
    poly = euler_frobenius(spectrum)
    if poly.degree <= 0:
        return np.array([])
    roots = np.roots(np.asarray(poly.coeffs))
    if len(roots) != poly.degree:
        raise EFStructureError(f"degenerate leading coefficient for {spectrum}")
    bad_imag = np.abs(roots.imag) > 1e-7 * (1.0 + np.abs(roots))
    if bad_imag.any():
        raise EFStructureError(f"non-real Euler-Frobenius zeros for {spectrum}: {roots}")
    vals = np.sort(roots.real)
    if (vals >= 0.0).any():
        raise EFStructureError(f"non-negative Euler-Frobenius zero for {spectrum}: {vals}")
    if spectrum.is_symmetric():
        logs = np.log(-vals)
        sym = 0.5 * (logs - logs[::-1])
        vals = -np.exp(sym)
        if len(vals) % 2 == 1:
            vals[len(vals) // 2] = -1.0
    return vals


# --------------------------------------------------------------------------
# contour route
# --------------------------------------------------------------------------

def ef_contour(
    spectrum: SpectrumVector,
    x: float,
    lam: complex,
    rtol: float = 1e-11,
):
    """Phi(x; lam) by a contour integral around the operator spectrum.

    For x in [0, 1),

        Phi(x; lam) = B(lam) * (1/2 pi i) * oint e^{z x} / (L(z) (1 - e^z/lam)) dz

    over a rectangle enclosing every lambda_j and none of the poles of
    1/(1 - e^z/lam) (which sit at log|lam| + i(arg lam + 2 pi m)).  The
    rectangle's half-height is set to half the least pole height; when lam is
    positive real and its logarithm falls inside the frequency window there is
    no admissible rectangle and :class:`ContourDomainError` is raised.
    General x reduces by Phi(x+1) = lam Phi(x).  Gauss-Legendre per edge,
    order-doubled until two consecutive answers agree to ``rtol``.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    lam = complex(lam)
    k = math.floor(x)
    xr = x - k

    vals = [v for v, _ in spectrum.entries]
    re_lo = min(vals) - 1.0
    re_hi = max(vals) + 1.0

    arg = math.atan2(lam.imag, lam.real)
    heights = [arg + 2.0 * math.pi * m for m in range(-3, 4)]
    on_axis = [h for h in heights if abs(h) <= 1e-9]
    if on_axis:
        pole_re = math.log(abs(lam))
        if re_lo - 0.5 <= pole_re <= re_hi + 0.5:
            raise ContourDomainError(
                f"lam = {lam} puts a pole of 1/(1 - e^z/lam) on the real axis "
                "inside the frequency window; no admissible rectangle"
            )
    positive = [abs(h) for h in heights if abs(h) > 1e-9]
    h_c = min(math.pi - 0.05, 0.5 * min(positive))
    if h_c < 1e-3:
        raise ContourDomainError(f"contour half-height {h_c:.2e} too small for lam = {lam}")

    entries_sorted = spectrum.entries

    def integrand(z):
        lz = np.ones_like(z)
        for li, mult in entries_sorted:
            lz = lz * (z - li) ** mult
        return np.exp(z * xr) / (lz * (1.0 - np.exp(z) / lam))

    corners = [
        complex(re_lo, -h_c),
        complex(re_hi, -h_c),
        complex(re_hi, h_c),
        complex(re_lo, h_c),
    ]

    def loop_integral(order: int) -> complex:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        total = 0.0j
        for a, b in zip(corners, corners[1:] + corners[:1]):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            z = mid + half * nodes.astype(complex)
            total += half * np.sum(weights * integrand(z))
        return total

    prev = loop_integral(32)
    for order in (64, 128, 256, 512, 1024):
        cur = loop_integral(order)
        if abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            prev = cur
            break
        prev = cur
    else:
        raise ConvergenceError("contour quadrature failed to settle")

    _, beta = _system(spectrum)
    b = sum(bj * lam ** (-j) for j, bj in enumerate(beta))
    result = complex(lam**k * b * prev / (2.0j * math.pi))
    if lam.imag == 0.0 and abs(result.imag) < 1e-8 * (1.0 + abs(result.real)):
        # real lam gives a real Phi; drop the quadrature's imaginary dust
        return result.real
    return result

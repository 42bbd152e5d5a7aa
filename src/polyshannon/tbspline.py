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
  digits that cancel, at any stiffness.  Point by point and slow: tests and
  checks only.
* :func:`tb_chebyshev` -- the one piecewise form: one Chebyshev series per
  unit interval, built once per spectrum from the same data reorganized as
  exponential polynomials per interval (assembled in fixed-point
  integers).  Each term u^r e^{l u} has exact Chebyshev coefficients,
  scaled Bessel values I_k(|l|/2) from Miller's recurrence in fixed-point
  integers, so nothing is sampled; each piece is formed to the length a
  proven tail bound needs, each series keeps the shortest prefix whose
  dropped tail is at most eps * max|Q|, and is evaluated in float64 as a
  sum over an explicit T_k basis (Trefethen, *Approximation Theory and
  Approximation Practice*, ch. 3).  No stiffness cap and no per-point mpmath work, so
  every library path that needs Q_N values runs on it.  Sums of
  translates sum_i c_i Q_N(t - i) go through :func:`_translate_sums`: on
  a cell [j, j+1) such a sum is one Chebyshev series with coefficients
  sum_m c_{j-m} times piece m, summed over one T_k basis per point;
  :func:`~polyshannon.shannon1d.tb_superposition` and the channel core
  stack the sums of many rows and spectra in one call.  Single pieces go
  through :func:`_pointwise_sums`, whose values keep the bits of their
  own textbook sums whatever the batch: the callable and the Euler
  splines of many spectra at once.  :func:`tb_exact` stays the
  independent reference it is tested against.
* :func:`tb_tabulate`  -- FFT inversion of the Fourier form with an asymptotic
  correction for the truncated spectral tail, to ``TABULATE_RTOL``.  No
  cancellation at any stiffness, which is exactly why it exists.  The grid
  keeps one output in every stride of an M-point inverse DFT, and those are
  the (M / stride)-point inverse DFT of the symbol folded modulo M / stride,
  so the symbol is summed into that many bins block by block: memory
  O(p_time * per_unit), whatever the spectral radius.
* :func:`tb_fourier`   -- the symbol itself.

On top of these sit the exponential Euler spline
``Phi(x; lam) = sum_m lam^m Q_N(x - m)`` (three independent routes again:
direct sum, one-sided resolvent continuation, contour integral; the first
two take many spectra in one call) and the
generalized Euler-Frobenius polynomial, whose zero set drives the sampling
theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np
from mpmath import mp
from mpmath.libmp.libelefun import exp_fixed

from .spectrum import SpectrumVector

__all__ = [
    "ConditioningError",
    "ContourDomainError",
    "ConvergenceError",
    "EFAccuracyError",
    "EFStructureError",
    "EFPolynomial",
    "TbChebyshev",
    "TbTable",
    "cancellation_severity",
    "check_queries",
    "ef_contour",
    "ef_zeros",
    "euler_frobenius",
    "euler_spline",
    "euler_spline_resolvent",
    "tb_chebyshev",
    "tb_exact",
    "tb_fourier",
    "tb_integer_values",
    "tb_tabulate",
]

# stiffness s = max|lambda| * N controls how many digits the Green's-function
# algebra cancels away (up to s * log10(e)), and so the precision of the
# mpmath reference (:func:`_exact_dps`).  Below FLOAT_MAX float64 keeps ~10
# clean digits even when the cancellation is fully realized; nothing in the
# library decides by it, and benchmarks/tracer.py labels tb_exact calls by it.
SEVERITY_FLOAT_MAX = 12.0

#: distinct frequencies closer than this make the partial-fraction system
#: numerically meaningless (they should have been merged into a multiplicity)
MIN_FREQ_GAP = 1e-8


class ConditioningError(ValueError):
    """The spectrum cannot be handled in float64: distinct frequencies too
    close together (merge them or separate them), TB values beyond the
    float64 range (|lambda| of about 710 and more), or a symbol too stiff for
    :func:`tb_tabulate` to reach ``TABULATE_RTOL``."""


class EFAccuracyError(ArithmeticError):
    """Euler-Frobenius coefficients failed their independent cross-check."""


class EFStructureError(ArithmeticError):
    """Computed Euler-Frobenius zeros violate the guaranteed structure."""


class ContourDomainError(ValueError):
    """No admissible contour rectangle for these parameters."""


class ConvergenceError(ArithmeticError):
    """An adaptive quadrature or Chebyshev series failed to settle."""


def check_queries(t) -> None:
    """Raise ValueError if the query coordinates ``t`` hold a NaN or infinity."""
    if not np.isfinite(t).all():
        raise ValueError("query coordinates contain NaN or infinite values")


def cancellation_severity(spectrum: SpectrumVector) -> float:
    """max|lambda_j| * N, the digits-lost scale of the exact evaluator."""
    return spectrum.max_abs() * spectrum.order


# --------------------------------------------------------------------------
# field-generic series algebra
#
# The same partial-fraction / convolution algebra runs in float64 and in
# mpmath, so the helpers below work on plain Python lists of whatever scalar
# type they are handed ("one" supplies the field's multiplicative unit);
# :func:`_shift_mul` also multiplies integer polynomials.
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


def _overflow(spectrum: SpectrumVector) -> ConditioningError:
    """The error for a TB value that rounds beyond the float64 range."""
    return ConditioningError(f"values of the TB-spline of {spectrum} overflow float64")


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
        entries = _green_entries(lams, mults, one)
        beta = tuple(_beta_coeffs(lams, mults, one, exp))
    return entries, beta


def _green_entries(lams: Sequence, mults: Sequence[int], one) -> tuple:
    """The Green terms of :func:`_green_terms` with a_{i,s}/s! pre-divided."""
    return tuple(
        (li, tuple(a / math.factorial(s) for s, a in enumerate(avec)))
        for li, avec in _green_terms(lams, mults, one)
    )


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
    close frequencies cancel away, at any stiffness; its cost grows with it.
    Values outside [0, N) are exactly zero (left-closed convention: Q(0) = 0
    for N >= 2, and the first-order kernel has Q(0) = e^{-lambda}).  Library
    code evaluates Q_N through :func:`tb_chebyshev`, which is tested against
    this.
    """
    t_arr = np.asarray(t, dtype=float)
    vals = _qn_hp_arr(spectrum, t_arr, _exact_dps(spectrum))
    return float(vals) if vals.ndim == 0 else vals


# --------------------------------------------------------------------------
# Fourier side
# --------------------------------------------------------------------------

def tb_fourier(spectrum: SpectrumVector, xi):
    """The TB symbol Q^(xi) = prod_j (e^{-l_j} - e^{-i xi})/(i xi - l_j).

    With z = e^{-i xi}, formed once, and w = i*xi - l, each factor is
    (e^{-l} - z)/w, switching to e^{-l} times the Taylor polynomial of
    (1 - e^{-w})/w at the points with |w| < 1e-6 (only there) so the
    removable singularity at xi = -i*l never bites.  A factor of
    multiplicity mu is multiplied in mu times.
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    z = np.exp(-1j * xi_arr)
    out = np.ones(xi_arr.shape, dtype=complex)
    for li, mult in spectrum.entries:
        el = math.exp(-li)
        w = 1j * xi_arr - li
        small = np.abs(w) < 1e-6
        ws = w[small]
        w[small] = 1.0
        f = (el - z) / w
        f[small] = el * (1.0 - ws / 2 + ws * ws / 6 - ws * ws * ws / 24)
        for _ in range(mult):
            out *= f
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class TbTable:
    """TB-spline tabulated on a uniform grid over its support [0, N].

    ``values[l] = Q_N(l / per_unit)``, to the ``TABULATE_RTOL`` that
    :func:`tb_tabulate` guarantees; interpolation between grid nodes through
    :meth:`__call__` adds O((lambda*h)^6) on top of it.
    """

    spectrum: SpectrumVector
    per_unit: int
    values: np.ndarray

    def __call__(self, t):
        from .tables import interp6

        return interp6(self.values, 0.0, 1.0 / self.per_unit, t, knot_every=self.per_unit)


#: bound on the tabulation error (spectral truncation + aliasing) relative
#: to the mean level of Q_N
TABULATE_RTOL = 1e-8

#: symbol samples per block of :func:`tb_tabulate`'s fold (whole rows of
#: p_time * per_unit samples, at least one)
_FOLD_BLOCK = 1 << 14


def tb_tabulate(spectrum: SpectrumVector, per_unit: int = 64) -> TbTable:
    """Tabulate Q_N by FFT of its symbol plus an asymptotic tail correction.

    The Fourier integral over |xi| <= Xi is a trapezoid sum on M = stride * M'
    points, M' = p_time * per_unit, fine enough in xi that time-domain
    aliasing (period p_time >= N + 6 units) is negligible; the |xi| > Xi
    remainder is added back analytically from the asymptotic expansion of
    integrals e^{i xi u}/(i xi - l)^{s+1} at large Xi.  Both error terms are
    bounded a priori and the spectral radius is grown until they sit below
    ``TABULATE_RTOL`` relative to the mean level of Q_N; no Green's-function
    sum is formed, so nothing cancels at any stiffness.  Only every
    stride-th output of the M-point inverse DFT lands on the grid, and those
    are the M'-point inverse DFT of the symbol folded modulo M' (summed over
    each congruence class of its frequency index): the symbol is evaluated
    in blocks and folded as it comes, so memory is O(p_time * per_unit), not
    O(M).  Requires N >= 2 (first-order kernels
    have a closed form and a non-integrable symbol tail): ValueError
    otherwise, and :class:`ConditioningError` for a spectrum too stiff to
    reach ``TABULATE_RTOL`` within the largest radius.
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
    tol_abs = TABULATE_RTOL * qhat0 / n

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
        raise ConditioningError(
            f"cannot reach rtol={TABULATE_RTOL} for {spectrum} by tabulation"
        )

    # FFT part: trapezoid over [-Xi, Xi].  The left-endpoint rectangle sum
    # differs from the trapezoid only in an imaginary component that the final
    # real-part extraction kills, so no explicit endpoint correction is needed.
    # Frequency index k in [-M/2, M/2) sits at row r, column c of the (stride,
    # M') layout k = r M' + c - M/2; stride is even, so k = c (mod M') and the
    # folded input is the column sum.
    stride = 1 << c_exp
    m_out = p_time * per_unit
    m_fft = stride * m_out
    dxi = 2.0 * cutoff / m_fft
    rows = max(1, _FOLD_BLOCK // m_out)
    folded = np.zeros(m_out, dtype=complex)
    for r in range(0, stride, rows):
        k = np.arange(r * m_out, min(r + rows, stride) * m_out) - m_fft // 2
        folded += tb_fourier(spectrum, k * dxi).reshape(-1, m_out).sum(axis=0)
    time_vals = np.fft.ifft(folded) * (m_out * dxi / (2.0 * math.pi))
    main = time_vals[: n * per_unit + 1].real

    tail = _spectral_tail(entries, beta, cutoff, per_unit, n, series_len)
    values = main + tail
    values.flags.writeable = False
    return TbTable(spectrum=spectrum, per_unit=per_unit, values=values)


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

#: most Chebyshev coefficients one unit interval's series may keep
_CHEB_MAX = 1024


#: queries per chunk of :func:`_translate_sums` and :func:`_pointwise_sums`,
#: each with one Chebyshev basis
_BASIS_CHUNK = 2048


@dataclass(frozen=True, eq=False)
class TbChebyshev:
    """Q_N as one Chebyshev series per unit interval [m, m+1), m = 0..N-1.

    ``coeffs[m][k]`` multiplies T_k(2u - 1) with u = t - m.  The callable
    sums piece floor(t) at each t by :func:`_pointwise_sums`, so every value
    has the bits of its own textbook sum whatever the batch.  It keeps
    :func:`tb_exact`'s conventions: zero outside [0, N) and at a NaN or
    infinite t, left-closed knots, a float for a scalar argument.
    """

    spectrum: SpectrumVector
    coeffs: tuple[np.ndarray, ...]

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = _pointwise_sums([self], [t_arr.size], t_arr.reshape(-1)).reshape(t_arr.shape)
        return float(out) if out.ndim == 0 else out


def _padded(series, k: int) -> np.ndarray:
    """The coefficient rows of ``series`` as one array, zero-padded to k."""
    out = np.zeros((len(series), k))
    for row, c in zip(out, series):
        row[: len(c)] = c
    return out


def _chebyshev_basis(x: np.ndarray, k: int) -> np.ndarray:
    """T_0..T_{k-1}(x) by the recurrence T_j = 2x T_{j-1} - T_{j-2}: (k, x.size)."""
    basis = np.empty((k, x.size))
    basis[0] = 1.0
    if k > 1:
        basis[1] = x
    two_x = 2.0 * x
    for j in range(2, k):
        np.multiply(two_x, basis[j - 1], out=basis[j])
        basis[j] -= basis[j - 2]
    return basis


def _translate_sums(terms, t: np.ndarray):
    """Yield (at, values): the flat positions of at most ``_BASIS_CHUNK``
    queries and, per coefficient row c of every term (cheb, first, rows)
    (c_i at column i - first), stacked in term order, sum_i c_i Q_N(t - i).

    On a cell [j, j+1) the sum is one Chebyshev series in x = 2(t - j) - 1
    with coefficients B_j = sum_m c_{j-m} A_m, A_m piece m of Q_N.  The
    queries are sorted once by cell (stably) and chunked in that order,
    without those whose cell no term reaches (non-finite ones included),
    whose sums are 0.  Each chunk forms T_k(x) once per query, to the
    longest piece of all terms, and makes one product per cell of the
    stacked B_j with the basis of the cell's queries.  That is a BLAS
    matrix product, whose rounding follows its shape, so a row's bits
    depend on its stacking (:func:`_pointwise_sums` is the batch-free
    evaluator of single pieces).
    """
    flat = t.reshape(-1)
    cells = np.floor(flat)
    lo = min(first for _, first, _ in terms)
    span = max(first + rows.shape[1] + len(cheb.coeffs) - 1 for cheb, first, rows in terms) - lo
    # keys 1..span for the cells lo.., 0 before them (NaN too) and span + 1
    # beyond: unsigned integers this small sort stably by radix
    keys = np.fmin(np.fmax(cells - (lo - 1), 0.0), span + 1.0)
    order = np.argsort(keys.astype(np.min_scalar_type(span + 1)), kind="stable")
    start, stop = np.searchsorted(keys[order], [1, span + 1])
    if start == stop:
        return
    c0 = int(cells[order[start]])
    count = int(cells[order[stop - 1]]) - c0 + 1
    k = max(len(c) for cheb, _, _ in terms for c in cheb.coeffs)
    # B[j - c0], stacked over the rows of every term: (cells, rows, k)
    stacked = []
    for cheb, first, rows in terms:
        i = np.arange(c0 - first, c0 - first + count)[:, None] - np.arange(len(cheb.coeffs))
        i[(i < 0) | (i >= rows.shape[1])] = rows.shape[1]  # the zero column appended
        taken = np.concatenate([rows, np.zeros((len(rows), 1))], axis=1)[:, i]
        stacked.append(taken.transpose(1, 0, 2) @ _padded(cheb.coeffs, k))
    cell_series = np.concatenate(stacked, axis=1)
    for s in range(start, stop, _BASIS_CHUNK):
        at = order[s : min(s + _BASIS_CHUNK, stop)]
        cell = cells[at]
        basis = _chebyshev_basis(2.0 * (flat[at] - cell) - 1.0, k)
        values = np.empty((cell_series.shape[1], len(at)), cell_series.dtype)
        edges = [0, *(np.flatnonzero(np.diff(cell)) + 1), len(at)]
        for a, b in zip(edges, edges[1:]):
            np.matmul(cell_series[int(cell[a]) - c0], basis[:, a:b], out=values[:, a:b])
        yield at, values


def _pointwise_sums(chebs, sizes, t: np.ndarray) -> np.ndarray:
    """Q_N(t) per entry of the 1-D t, whose entries run over the spectra of
    ``chebs`` (:class:`TbChebyshev` of one order N) in turn, ``sizes`` of
    them each: its own piece floor(t) at each entry, 0 where that is no
    piece (non-finite t included).

    The entries are sorted once (stably) by spectrum and piece and chunked
    in that order; each chunk forms one T_k basis, to the longest piece of
    all spectra, and einsum contracts each run of one piece with its
    columns, adding the terms in ascending k at each entry over two or
    more columns (a one-entry run has its column doubled).  So every value
    has the bits of its own textbook sum, whatever the batch.
    """
    n = len(chebs[0].coeffs)
    cells = np.floor(t)
    live = np.flatnonzero((cells >= 0.0) & (cells < n))
    # each entry's row in the stack of every spectrum's pieces
    key = np.repeat(np.arange(0, n * len(chebs), n), sizes)[live] + cells[live].astype(np.intp)
    order = np.argsort(key, kind="stable")
    live, key = live[order], key[order]
    k = max(len(c) for cheb in chebs for c in cheb.coeffs)
    pieces = np.concatenate([_padded(cheb.coeffs, k) for cheb in chebs])
    out = np.zeros(t.size)
    for s in range(0, len(live), _BASIS_CHUNK):
        at, rows = live[s : s + _BASIS_CHUNK], key[s : s + _BASIS_CHUNK]
        basis = _chebyshev_basis(2.0 * (t[at] - cells[at]) - 1.0, k)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        for a, b in zip(starts, [*starts[1:], len(at)]):
            cols = basis[:, a:b] if b - a > 1 else np.repeat(basis[:, a:b], 2, axis=1)
            out[at[a:b]] = np.einsum("gk,kn->gn", pieces[rows[a] : rows[a] + 1], cols)[0, : b - a]
    return out


#: fraction bits the fixed-point pieces and Chebyshev coefficients carry
#: beyond the precision :func:`tb_exact` would use
_GUARD_BITS = 64


def _binary(x: float) -> tuple[int, int]:
    """(man, exp) with ``x`` = man * 2**exp exactly."""
    num, den = x.as_integer_ratio()
    return num, 1 - den.bit_length()


def _shift(num: int, bits: int) -> int:
    """num * 2**bits, rounded down to an integer."""
    return num << bits if bits >= 0 else num >> -bits


def _green_fixed(lams: list[tuple[int, int]], mults: list[int], fb: int) -> list[list[int]]:
    """The Green coefficients a_{i,s}/s! of :func:`_green_terms` as integers
    with ``fb`` fraction bits, exact but for one rounding down each.

    With l_i = ``lams[i]`` = (man, exp) scaled by 2**-e0 to integers L_i,
    h(u) = prod_{j != i} (u + L_i - L_j)^{mu_j} has integer coefficients,
    and its reciprocal series is sum_k p_k u^k / h_0^{k+1} with the integers
    p_0 = 1, p_k = -sum_{l=1}^{k} h_l p_{k-l} h_0^{l-1}.  So
    a_{i,s} = 2**(e0 (s + 1 - N)) p_{mu_i-1-s} / h_0^{mu_i-s}.
    """
    e0 = min((exp for man, exp in lams if man), default=0)
    scaled = [man << (exp - e0) for man, exp in lams]
    n = sum(mults)
    out = []
    for i, (li, mi) in enumerate(zip(scaled, mults)):
        h = [1]
        for j, (lj, mj) in enumerate(zip(scaled, mults)):
            for _ in range(mj if j != i else 0):
                h = _shift_mul(h, li - lj, mi)
        p = [1]
        for k in range(1, mi):
            p.append(-sum(h[l] * p[k - l] * h[0] ** (l - 1) for l in range(1, min(k + 1, len(h)))))
        cvec = []
        for s in range(mi):
            num, den, bits = p[mi - 1 - s], h[0] ** (mi - s) * math.factorial(s), fb + e0 * (s + 1 - n)
            cvec.append((num << bits) // den if bits >= 0 else num // (den << -bits))
        out.append(cvec)
    return out


@lru_cache(maxsize=None)
def _pieces(spectrum: SpectrumVector):
    """Q_N's local exp-polynomials, built once per spectrum in fixed point.

    On [m, m+1) only the Green translates beta_j g(t - j), j <= m, are
    switched on, and t^s e^{l t} re-expanded about u = t - m gives the
    local coefficient of u^r e^{l u}:

        sum_{d=0}^{m} beta_{m-d} e^{l d} sum_{s>=r} c_s C(s, r) d^{s-r}.

    Every quantity is an integer with ``fb = prec + _GUARD_BITS`` fraction
    bits, ``prec`` the bit precision of :func:`tb_exact`
    (:func:`_exact_dps`): the Green coefficients c_s = a_s/s!
    (:func:`_green_fixed`); e^{|l|} from one ``exp_fixed`` per nonzero
    frequency and e^{-|l|} as its reciprocal; beta, the coefficients of
    prod_j (e^{-l_j} - w)^{mu_j}, as one exact integer product rounded
    once per coefficient; e^{l d} as products of e^l.  Each rounding errs
    by at most 2**-fb, times co-factors of at most about
    e^{max|l| N} max|a|, which ``prec`` covers with its guard digits.
    Returns ``(freqs, rows, prec)``: ``freqs`` holds (lambda as
    ``(man, exp)``, multiplicity mu) per distinct frequency; piece m is
    2**-fb * sum_k rows[m][k] b_k(u) with the basis b = u^r e^{l u},
    r = 0..mu-1, of each frequency in turn.
    """
    _check_gaps(spectrum)
    with mp.workdps(_exact_dps(spectrum)):
        prec = mp.prec
    fb = prec + _GUARD_BITS
    one = 1 << fb
    lams = [_binary(v) for v, _ in spectrum.entries]
    mults = [m for _, m in spectrum.entries]
    n = spectrum.order
    green = _green_fixed(lams, mults, fb)
    up, down = [], []
    for man, exp in lams:
        big = exp_fixed(_shift(abs(man), exp + fb), fb) if man else one
        small = (one * one) // big
        up.append(big if man >= 0 else small)
        down.append(small if man >= 0 else big)
    product = [1]
    for x, mult in zip(down, mults):
        for _ in range(mult):
            product = [a * x - b for a, b in zip(product + [0], [0] + product)]
    beta = [_shift(c, -fb * (n - 1 - k)) for k, c in enumerate(product)]
    # terms[i][d][r] = e^{l_i d} sum_{s>=r} c_s C(s, r) d^{s-r}, 2 fb fraction bits
    terms = []
    for e, cvec in zip(up, green):
        growth, shifted = one, []
        for d in range(n):
            shifted.append([growth * sum(c * math.comb(s, r) * d ** (s - r)
                                         for s, c in enumerate(cvec) if s >= r)
                            for r in range(len(cvec))])
            growth = growth * e >> fb
        terms.append(shifted)
    rows = tuple(
        tuple(sum(beta[m - d] * t[d][r] for d in range(m + 1)) >> 2 * fb
              for t in terms for r in range(len(t[0])))
        for m in range(n)
    )
    return tuple(zip(lams, mults)), rows, prec


def _knot_sums(freqs, rows) -> list[int]:
    """Every piece of :func:`_pieces` at u = 0: the exact sum of its
    constant terms, with the pieces' fraction bits."""
    # the basis index of each frequency's u^0 e^{l u}
    starts = list(accumulate((mult for _, mult in freqs[:-1]), initial=0))
    return [sum(ints[k] for k in starts) for ints in rows]


def _knot_values(spectrum: SpectrumVector) -> list[float]:
    """Every piece of :func:`_pieces` at u = 0 (:func:`_knot_sums`) rounded
    once to float64 (integer true division rounds correctly).  Raises
    :class:`ConditioningError` when a value overflows float64."""
    freqs, rows, prec = _pieces(spectrum)
    unit = 1 << (prec + _GUARD_BITS)
    try:
        return [v / unit for v in _knot_sums(freqs, rows)]
    except OverflowError:
        raise _overflow(spectrum) from None


@lru_cache(maxsize=None)
def tb_integer_values(spectrum: SpectrumVector) -> tuple[float, ...]:
    """(Q_N(1), ..., Q_N(N-1)): the data behind symbols and Euler-Frobenius.

    Q_N(m) is piece m of the local exp-polynomials at u = 0
    (:func:`_knot_values`); the pieces are the ones :func:`tb_chebyshev`
    expands in Chebyshev series, at :func:`tb_exact`'s precision.  Raises
    :class:`ConditioningError` when a value overflows float64.
    """
    return tuple(_knot_values(spectrum)[1:]) if spectrum.order > 1 else ()


def _bessel_count(lam: tuple[int, int], bits: float) -> int:
    """The first k >= 1 with 2 prod_{j<k} r_j / (1 - r_k) <= 2**-bits, for
    a = |lam|/2 and lam = ``(man, exp)``; 1 for lam = 0.

    r_j = a / (j + 1/2 + sqrt((j + 1/2)^2 + a^2)) bounds I_{j+1}(a)/I_j(a)
    from above and falls with j (Segura, *J. Math. Anal. Appl.* 374, 2011),
    so sum_{j>=k} I_j(a) <= I_k(a)/(1 - r_k), and I_k(a) <= e^a
    prod_{j<k} r_j.  From T_k on, the Chebyshev coefficients of e^{lam u}
    (:func:`_exp_coeffs`, 2 e^{lam/2} I_j(a) in modulus) therefore sum to
    at most 2**-bits e^{max(lam, 0)}.
    """
    man, exp = lam
    if man == 0:
        return 1
    a = math.ldexp(abs(man), exp - 1)
    k, log2 = 0, 1.0
    while True:
        r = a / (k + 0.5 + math.hypot(k + 0.5, a))
        if k and log2 - math.log2(1.0 - r) <= -bits:
            return k
        log2 += math.log2(r)
        k += 1


def _series_length(freqs, rows, fb: int) -> int:
    """How many Chebyshev coefficients of every piece :func:`_piece_coeffs`
    forms: a K with sum_{k>=K} |c_k| <= 2**-_GUARD_BITS eps L for every
    piece, L = max|Q_N(m)| <= max|Q_N|, the largest knot value.

    The coefficients of u^r e^{l u} from index K on sum to at most those
    of e^{l u} from K - r on, since u = (1 + x)/2 moves each coefficient by
    at most one index and does not enlarge their sum.  With W_f >= sum_r
    |ints_r| 2**-fb over frequency f's basis, in every row, K is the
    largest over f of ``_bessel_count`` + mu_f - 1 at the bits that put
    W_f times the tail below 1/F of the budget, F the number of
    frequencies: integer bounds but for lambda log2(e) and the product
    inside :func:`_bessel_count`, whose float rounding one spare bit
    covers.  ``rows`` are those of :func:`_pieces`, with ``fb`` fraction
    bits.
    """
    # L >= 2**(peak - 1), from the exact knot sums
    peak = max(map(abs, _knot_sums(freqs, rows))).bit_length() - fb
    budget = peak - 1 - 52 - _GUARD_BITS - (len(freqs) - 1).bit_length() - 1
    count, start = 1, 0
    for lam, mult in freqs:
        weight = max(sum(map(abs, ints[start:start + mult])).bit_length() for ints in rows) - fb
        start += mult
        growth = math.ceil(max(math.ldexp(*lam), 0.0) * math.log2(math.e))
        count = max(count, _bessel_count(lam, weight + growth - budget) + mult - 1)
    return count


def _miller(lam: tuple[int, int], count: int, wp: int) -> list[int]:
    """Miller's J_0 and 2 J_k, 0 < k < ``count``, of :func:`_exp_coeffs`
    for a = |lam|/2, lam = ``(man, exp)`` nonzero: shared by lam and -lam."""
    man, exp = lam
    # 2k/a = 4k/|lam| = 4k 2**-exp/|man|, exactly up to the floor
    up, den = max(-exp, 0) + 2, abs(man) << max(exp, 0)
    j_next, j = 0, 1 << wp
    js = [0] * count
    for k in range(count - 1, 0, -1):
        js[k] = 2 * j
        j_next, j = j, j_next + (k * j << up) // den
    js[0] = j
    return js


def _exp_coeffs(lam: tuple[int, int], count: int, wp: int,
                js: list[int] | None = None) -> list[int]:
    """The first ``count`` Chebyshev coefficients of e^{lam u}, u = (1 + x)/2,
    as integers with ``wp`` fraction bits; ``lam`` is ``(man, exp)``, and
    ``js`` its :func:`_miller` values when the caller has them.

    e^{lam u} = e^{lam/2} (I_0(a) + 2 sum_k (+-1)^k I_k(a) T_k(x)) with
    a = |lam|/2 and the sign of lam.  Miller's backward recurrence
    J_{k-1} = J_{k+1} + (2k/a) J_k from J_count = 0, J_{count-1} = 1 gives
    J_k = s (I_k(a) - (-1)^{count+k} K_k(a) I_count(a)/K_count(a))
    (Gautschi, *SIAM Rev.* 9, 1967): each J_k errs by at most s I_count,
    since K_k rises with k.  S = J_0 + 2 sum_k J_k fixes s as S/e^a, which
    misses the terms from I_count on and so errs, relative to e^a, by about
    the tail that :func:`_bessel_count` bounds: at most twice it.  The
    coefficient of T_k is (2 - [k = 0]) J_k / S times e^lam for lam > 0 and
    times (-1)^k for lam < 0: one exponential per positive frequency, none
    otherwise.
    """
    man, exp = lam
    if man == 0:
        return [1 << wp] + [0] * (count - 1)
    if js is None:
        js = _miller(lam, count, wp)
    total = sum(js)
    unit = exp_fixed(_shift(man, exp + wp), wp) if man > 0 else 1 << wp
    # unit / total to total.bit_length() fraction bits: each coefficient
    # errs by at most two units
    bits = total.bit_length()
    scale = (unit << bits) // total
    coeffs = [j * scale >> bits for j in js]
    return coeffs if man > 0 else [-c if k % 2 else c for k, c in enumerate(coeffs)]


def _times_u(c: list[int]) -> list[int]:
    """Chebyshev coefficients of u f, u = (1 + x)/2, from the two or more of
    f, to the same length, rounded down: x T_0 = T_1 and
    x T_k = (T_{k-1} + T_{k+1})/2."""
    c = [*c, 0]
    out = [2 * c[0] + c[1]]
    out += [c[k - 1] + 2 * c[k] + c[k + 1] for k in range(1, len(c) - 1)]
    out[1] += c[0]
    return [v >> 2 for v in out]


def _piece_coeffs(spectrum: SpectrumVector) -> np.ndarray:
    """Every piece's first Chebyshev coefficients: one row per piece.

    Each basis function u^r e^{l u} of the local exp-polynomials
    (:func:`_pieces`) has exact Chebyshev coefficients
    (:func:`_exp_coeffs`, then :func:`_times_u` r times), formed in fixed
    point with ``prec + _GUARD_BITS`` fraction bits.  Every row stops at
    :func:`_series_length`, past which its coefficients sum to at most
    2**-_GUARD_BITS eps max|Q_N(m)|; Miller's recurrence starts there too,
    which keeps the error of every coefficient formed to a few times that
    bound.  Coefficient k of piece m is the exact integer dot product of
    its row with these, rounded once to float64.  Raises
    :class:`ConditioningError` when a knot value overflows float64, before
    the recurrences, whose cost grows with |lambda|, and when a coefficient
    does.
    """
    _knot_values(spectrum)
    freqs, rows, prec = _pieces(spectrum)
    wp = prec + _GUARD_BITS
    count = _series_length(freqs, rows, wp)
    basis, recurrences = [], {}
    for lam, mult in freqs:
        key = (abs(lam[0]), lam[1])
        if lam[0] and key not in recurrences:
            recurrences[key] = _miller(lam, count, wp)
        basis.append(_exp_coeffs(lam, count, wp, recurrences.get(key)))
        for _ in range(mult - 1):
            basis.append(_times_u(basis[-1]))
    # exact integer dot products, 2 wp fraction bits
    dots = np.array(rows, dtype=object) @ np.array(basis, dtype=object)
    unit = 1 << (2 * wp)
    try:
        return np.array([[v / unit for v in row] for row in dots])
    except OverflowError:
        raise _overflow(spectrum) from None


@lru_cache(maxsize=None)
def tb_chebyshev(spectrum: SpectrumVector) -> TbChebyshev:
    """Q_N as one certified Chebyshev series per unit interval.

    The series come exact from the local exp-polynomials
    (:func:`_piece_coeffs`), with no stiffness cap and no cancellation in
    the float evaluation.  Each keeps the shortest prefix whose dropped
    tail sum |c_k| is at most eps * max|Q|, the maximum taken over every
    piece at Chebyshev points.  Raises :class:`ConditioningError` when a
    coefficient or one of those values overflows float64, and then
    :class:`ConvergenceError` when some series keeps more than
    ``_CHEB_MAX`` coefficients.
    """
    coeffs = _piece_coeffs(spectrum)
    count = coeffs.shape[1]
    # T_k(cos(pi j / count)) = cos(pi k j / count), j = 0..count: the
    # 2 count distinct cosines, indexed
    angles = np.outer(np.arange(count), np.arange(count + 1)) % (2 * count)
    grid = np.cos(np.pi / count * np.arange(2 * count))[angles]
    with np.errstate(over="ignore"):
        tol = np.finfo(float).eps * np.max(np.abs(coeffs @ grid))
    if not np.isfinite(tol):
        # e^{lam u} peaks about sqrt(pi |lam| / 2) times above its largest
        # coefficient, so the values can overflow where no coefficient does
        raise _overflow(spectrum)
    # tails[m, k] = sum_{j >= k} |coeffs[m, j]|, non-increasing in k
    tails = np.cumsum(np.abs(coeffs[:, ::-1]), axis=1)[:, ::-1]
    cuts = np.maximum(np.count_nonzero(tails > tol, axis=1), 1)
    if cuts.max() > _CHEB_MAX:
        raise ConvergenceError(
            f"Chebyshev series of {spectrum} needs {cuts.max()} coefficients, "
            f"more than {_CHEB_MAX}"
        )
    chopped = []
    for c, cut in zip(coeffs, cuts):
        c = c[:cut].copy()
        c.flags.writeable = False
        chopped.append(c)
    return TbChebyshev(spectrum, tuple(chopped))


# --------------------------------------------------------------------------
# exponential Euler splines
# --------------------------------------------------------------------------

#: lam ** m elementwise through Python's scalar pow, i.e. the C library's.
#: numpy's SIMD array power rounds about 3% of real powers differently in
#: the last bit on an AVX-512 machine, almost always less accurately, and
#: that moves verify residuals in their last digits.  Likewise exp.
_scalar_pow = np.frompyfunc(pow, 2, 1)
_scalar_exp = np.frompyfunc(math.exp, 1, 1)


def _spectrum_batch(spectrum, x, lam):
    """(single, spectra, pairs) of an Euler-spline call: a
    :class:`SpectrumVector` with one (x, lam) is the one-spectrum form,
    else ``spectrum``, ``x`` and ``lam`` are equally long sequences.  Each
    (x, lam) pair is broadcast and checked: raises ValueError on a zero
    ``lam`` or a NaN or infinite ``x`` in any pair."""
    single = isinstance(spectrum, SpectrumVector)
    spectra, x, lam = ([spectrum], [x], [lam]) if single else (list(spectrum), x, lam)
    pairs = [np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(li))
             for _, xi, li in zip(spectra, x, lam, strict=True)]
    for xi, li in pairs:
        if np.any(li == 0):
            raise ValueError("lam must be nonzero")
        check_queries(xi)
    return single, spectra, pairs


def _groups(spectra, pairs, key):
    """Yield (key, members, group): the positions of the spectra that share
    ``key(spectrum, lam)``, in order of first appearance, and their pairs."""
    groups = {}
    for i, (sv, (_, li)) in enumerate(zip(spectra, pairs)):
        groups.setdefault(key(sv, li), []).append(i)
    for k, members in groups.items():
        yield k, members, [pairs[i] for i in members]


def _flat(pairs):
    """(sizes, x, lam) of a group's pairs: their sizes and their x and lam,
    flattened and concatenated."""
    return ([xi.size for xi, _ in pairs], np.concatenate([xi.reshape(-1) for xi, _ in pairs]),
            np.concatenate([li.reshape(-1) for _, li in pairs]))


def _unflat(values, pairs) -> list:
    """A group's flat ``values``, split back into its pairs' shapes."""
    cuts = np.cumsum([xi.size for xi, _ in pairs])[:-1]
    return [v.reshape(xi.shape) for v, (xi, _) in zip(np.split(values, cuts), pairs)]


def euler_spline(spectrum, x, lam):
    """Phi(x; lam) = sum_m lam^m Q_N(x - m), a finite sum over the support.

    One-spectrum form: ``x`` and ``lam`` broadcast against each other;
    scalars give a scalar.  Multi-spectrum form: a sequence of spectra with
    a sequence of x and one of lam, one (x, lam) pair per spectrum, gives
    one array per spectrum, each of its pair's broadcast shape.  ``lam``
    must be nonzero everywhere (negative powers appear).  Complex ``lam``
    gives a complex result; real input stays real.  The spectra of one
    order and lam dtype are evaluated together: their Q_N values at the N
    live translates t = x - m of every point by :func:`_pointwise_sums`,
    from :func:`tb_chebyshev` (so there is no stiffness cap), and their
    weights lam^m by the scalar C ``pow``.  So each value does not depend
    on the rest of the batch, nor on the other spectra.  Raises ValueError
    on a NaN or infinite ``x``.
    """
    single, spectra, pairs = _spectrum_batch(spectrum, x, lam)
    outs = [None] * len(spectra)
    for (n, _), members, group in _groups(spectra, pairs, lambda sv, li: (sv.order, li.dtype)):
        sizes, x, lam = _flat(group)
        # the N live translates at x: m = floor(x) - N + 1 .. floor(x), ascending
        ms = np.floor(x)[:, None] + np.arange(1 - n, 1)
        q = _pointwise_sums([tb_chebyshev(spectra[i]) for i in members],
                            [n * size for size in sizes], (x[:, None] - ms).reshape(-1))
        q = q.reshape(ms.shape)
        w = _scalar_pow(lam[:, None], ms).astype(np.result_type(lam, np.float64))
        values = sum(w[:, j] * q[:, j] for j in range(n))
        for i, v in zip(members, _unflat(values, group)):
            outs[i] = v
    return outs[0][()] if single else outs


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


def _eulerian(r: int, mu):
    """A_r(mu) by Horner's rule."""
    out = 0 * mu
    for c in reversed(_eulerian_coeffs(r)):
        out = out * mu + c
    return out


def _power_sum_field(entries, x, lam, exp, pow=pow):
    """B(lam) * sum_{j>=0} lam^{-j} g(x+j), B(lam) = sum_k beta_k lam^{-k},
    in pole-free form, for the Green terms ``entries`` of :func:`_system`
    (``g`` the causal Green's function of the operator), in any field:
    Python or mpmath scalars, or arrays with elementwise scalar ``exp`` and
    ``pow``.

    The series converges only for |lam| large, but each pole contributes a
    rational function of mu_j = e^{l_j}/lam, which continues the sum to
    every lam but 0.  B(lam) = prod_j e^{-l_j m_j} (1 - mu_j)^{m_j} and the
    power sum is sum_i e^{l_i x} sum_s c_s sum_r C(s, r) x^{s-r} G_r(mu_i),
    G_r = A_r/(1 - mu)^{r+1} (:func:`_eulerian_coeffs`).  Since r < m_i,
    each B G_r(mu_i) is the polynomial e^{-sum_j l_j m_j} A_r(mu_i)
    (1 - mu_i)^{m_i-r-1} prod_{j != i} (1 - mu_j)^{m_j}: the poles at
    mu_i = 1 cancel in closed form, so no digits are lost as lam nears a
    node e^{l_i}, and the node itself is an ordinary point.
    """
    mus = [exp(li) / lam for li, _ in entries]
    factors = [pow(1 - mu, len(cvec)) for mu, (_, cvec) in zip(mus, entries)]
    total = 0 * lam
    for i, ((li, cvec), mu) in enumerate(zip(entries, mus)):
        block = 0 * lam
        for s, cs in enumerate(cvec):
            t_s = 0 * lam
            for r in range(s + 1):
                t_s = t_s + math.comb(s, r) * pow(x, s - r) * _eulerian(r, mu) * pow(
                    1 - mu, len(cvec) - r - 1)
            block = block + cs * t_s
        for j, factor in enumerate(factors):
            if j != i:
                block = block * factor
        total = total + exp(li * x) * block
    return exp(-sum(li * len(cvec) for li, cvec in entries)) * total


def euler_spline_resolvent(spectrum, x, lam):
    """Phi(x; lam) by the one-sided resolvent continuation.

    For x in [0,1), Phi(x;lam) = [sum_k beta_k lam^{-k}] * sum_{j>=0} lam^{-j} g(x+j);
    general x reduces by the functional equation Phi(x+1) = lam * Phi(x).
    Entirely independent of pointwise TB values, which is the point: it
    cross-examines :func:`euler_spline` and the Euler-Frobenius coefficients.
    The one- and multi-spectrum forms are those of :func:`euler_spline`;
    a scalar pair gives a ``float`` (``complex`` for a complex ``lam``).
    The closed form has no pole left (:func:`_power_sum_field`), so it runs
    in float64 at every nonzero ``lam``, a node e^{lambda_i} included, in
    one call per group of spectra with the same multiplicities (their Green
    terms stacked per point): real ``lam`` on float64 arrays and complex
    ``lam`` on object arrays of Python scalars, with scalar C ``pow`` and
    ``exp`` per element, so that each value keeps the bits of the same form
    on Python scalars, whatever the batch.  Raises ValueError on a NaN or
    infinite ``x`` or a zero ``lam``, and :class:`ConditioningError` naming
    a spectrum of which a term of the closed form overflows float64
    (e^{lambda_i}/lam beyond about 1.8e308).
    """
    single, spectra, pairs = _spectrum_batch(spectrum, x, lam)
    outs = [None] * len(spectra)
    pattern = lambda sv, li: (tuple(m for _, m in sv.entries), li.dtype.kind == "c")
    for (_, cplx), members, group in _groups(spectra, pairs, pattern):
        values = _resolvent_values([spectra[i] for i in members], group, cplx)
        if values is None:
            # every value is its own spectrum's, so some member fails alone
            bad = next(i for i in members if len(members) == 1
                       or _resolvent_values([spectra[i]], [pairs[i]], cplx) is None)
            raise ConditioningError(f"the resolvent of {spectra[bad]} overflows float64")
        for i, v in zip(members, _unflat(values, group)):
            outs[i] = v
    if single:
        return outs[0] if outs[0].ndim else outs[0].item()
    return outs


def _resolvent_values(spectra, pairs, cplx: bool):
    """The resolvent at the flattened pairs of spectra with one multiplicity
    pattern, one pair each, or None where a term overflows."""
    sizes, x, lam = _flat(pairs)
    k = np.floor(x)
    u = x - k
    lam = lam.astype(object if cplx else np.float64)

    def exp_(v):
        return _scalar_exp(v) if cplx else np.asarray(_scalar_exp(v), dtype=np.float64)

    def stacked(values):
        # one value per spectrum, repeated over its points
        out = np.repeat(np.asarray(values, dtype=np.float64), sizes)
        return out.astype(object) if cplx else out

    def pow_(a, b):
        # skipped at b = 0: CPython's pow gives 1.0 for every float a and
        # 1 + 0j for a complex a, which multiplies as 1.0 does
        if isinstance(b, int) and b == 0:
            return 1.0
        return _scalar_pow(a, b) if cplx else _scalar_pow(a, b).astype(np.float64)

    # a term beyond the float64 range raises OverflowError in exp and pow
    # and leaves an inf or NaN in the products, which only a non-finite
    # value can show: the closed form divides by lam alone
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            entries = [_system(sv)[0] for sv in spectra]
            green = [(stacked([e[i][0] for e in entries]),
                      [stacked(cs) for cs in zip(*(e[i][1] for e in entries))])
                     for i in range(len(entries[0]))]
            out = _power_sum_field(green, u, lam, exp_, pow_) * pow_(lam, k)
            out = np.asarray(out, dtype=complex if cplx else np.float64)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


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


#: unit roundoff of float64
_UNIT = 2.0**-53


class _Rounded:
    """A float64 value with the data of its running error bound (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3).

    ``value`` is what float64 arithmetic gives, so the field-generic helpers
    (:func:`_green_terms`, :func:`_power_sum_field`) give it their float
    bits.  ``size`` is the same expression evaluated over absolute values,
    and ``count`` bounds the roundings that any one term of its expansion
    went through: each term is off by a factor 1 + theta with |theta| <=
    gamma_count = count u / (1 - count u), u the unit roundoff, so the
    value errs by at most gamma_count * size.  Python numbers are taken as
    exact leaves.  The C library's exp and pow count as two roundings each; a
    divisor counts twice its own count times its cancellation size/|value|
    (1 for a single term), and the argument x of an exp counts k (size + 1)
    for its factor e^{+-gamma_k size}.  exp and pow raise OverflowError
    beyond the float64 range and a zero divisor ZeroDivisionError; an
    overflowing product gives an infinite size or value, which no
    tolerance accepts.
    """

    __slots__ = ("value", "size", "count")

    def __init__(self, value: float, size: float | None = None, count: float = 0.0):
        self.value = value
        self.size = abs(value) if size is None else size
        self.count = count

    def __add__(self, other):
        if type(other) is not _Rounded:
            return _Rounded(self.value + other, self.size + abs(other), self.count + 1)
        return _Rounded(self.value + other.value, self.size + other.size,
                        max(self.count, other.count) + 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not _Rounded:
            return _Rounded(self.value - other, self.size + abs(other), self.count + 1)
        return _Rounded(self.value - other.value, self.size + other.size,
                        max(self.count, other.count) + 1)

    def __rsub__(self, other):
        return _Rounded(other - self.value, abs(other) + self.size, self.count + 1)

    def __mul__(self, other):
        if type(other) is not _Rounded:
            return _Rounded(self.value * other, self.size * abs(other), self.count + 1)
        return _Rounded(self.value * other.value, self.size * other.size,
                        self.count + other.count + 1)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not _Rounded:
            return _Rounded(self.value / other, self.size / abs(other), self.count + 1)
        spread = max(1.0, other.size / abs(other.value))
        return _Rounded(self.value / other.value, self.size / abs(other.value),
                        self.count + 2 * other.count * spread + 1)

    def __rtruediv__(self, other):
        return _Rounded(other) / self

    def __neg__(self):
        return _Rounded(-self.value, self.size, self.count)

    def __abs__(self):
        return _Rounded(abs(self.value), self.size, self.count)

    def __lt__(self, other):
        return self.value < other

    def __pow__(self, e: int):
        return _Rounded(self.value**e, self.size**e, self.count * e + 2)

    def exp(self):
        value = math.exp(self.value)
        return _Rounded(value, value, self.count * (self.size + 1) + 2)

    def bound(self, extra: int = 0) -> float:
        """An upper bound on |value - exact| after ``extra`` more roundings:
        gamma_k size / (1 - gamma_k) = k u size / (1 - 2 k u), k = count +
        extra, since the computed size errs by gamma_k itself; infinite
        from 2 k u >= 1 on."""
        k = self.count + extra
        return k * _UNIT * self.size / (1.0 - 2.0 * k * _UNIT) if 2.0 * k * _UNIT < 1.0 else math.inf


def _ef_reference(spectrum: SpectrumVector) -> _Rounded:
    """Phi(0; -1) by the float64 pole-free resolvent, with its running error
    bound: the partial fractions (:func:`_green_entries`) and the closed
    form (:func:`_power_sum_field`) run on :class:`_Rounded` numbers, whose
    values have the bits of the same form on Python floats.  At
    x = 0 and lam = -1 every operation on plain floats there is exact, as
    :class:`_Rounded` takes them to be.
    """
    mults = [m for _, m in spectrum.entries]
    lams = [_Rounded(v) for v, _ in spectrum.entries]
    entries = _green_entries(lams, mults, _Rounded(1.0))
    return _power_sum_field(entries, 0.0, -1.0, _Rounded.exp)


@lru_cache(maxsize=None)
def euler_frobenius(spectrum: SpectrumVector) -> EFPolynomial:
    """Build the Euler-Frobenius polynomial from integer TB values.

    The coefficients are cross-checked at lam = -1 against the independent
    resolvent closed form (:func:`_power_sum_field`): disagreement beyond
    1e-8 of the coefficient scale raises :class:`EFAccuracyError` rather
    than returning silent garbage.  The check first takes the float64 closed
    form with its running error bound (:func:`_ef_reference`) and accepts
    when the disagreement plus the bound is within the tolerance, so that
    the exact value passes too.  When the bound is too wide or the float64
    form overflows, it decides on the closed form in mpmath at
    :func:`_exact_dps`.  Either way a spectrum passes exactly when the
    mpmath route alone would pass it.
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
    factor = sign * scale * (-1.0) ** (n - 1)
    tol = 1e-8 * max(1.0, sum(abs(c) for c in coeffs))
    try:
        phi = _ef_reference(spectrum)
        # four roundings more: the product with factor here, and the
        # float64 rounding of the mpmath value this check stands in for
        slack = abs(direct - factor * phi.value) + abs(factor) * phi.bound(4)
    except ArithmeticError:  # beyond the float64 range, or a zero divisor
        slack = math.inf
    # the margin 2 eps covers the rounding of the comparison itself; a NaN
    # slack is not certified either
    if not slack <= tol * (1.0 - 2.0 * np.finfo(float).eps):
        dps = _exact_dps(spectrum)
        with mp.workdps(dps):
            phi = _power_sum_field(_system(spectrum, dps)[0], mp.mpf(0), mp.mpf(-1), mp.exp)
        reference = factor * float(phi)
        if abs(direct - reference) > tol:
            raise EFAccuracyError(
                f"Euler-Frobenius cross-check failed for {spectrum}: "
                f"direct {direct!r} vs resolvent {reference!r}"
            )
    return poly


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
    return vals


# --------------------------------------------------------------------------
# contour route
# --------------------------------------------------------------------------

#: relative agreement of two consecutive quadrature orders in :func:`ef_contour`
CONTOUR_RTOL = 1e-11


def ef_contour(spectrum: SpectrumVector, x: float, lam: complex):
    """Phi(x; lam) by a contour integral around the operator spectrum.

    For x in [0, 1),

        Phi(x; lam) = B(lam) * (1/2 pi i) * oint e^{z x} / (L(z) (1 - e^z/lam)) dz

    over a rectangle enclosing every lambda_j and none of the poles of
    1/(1 - e^z/lam) (which sit at log|lam| + i(arg lam + 2 pi m)).  The
    rectangle's half-height is set to half the least pole height; when lam is
    positive real and its logarithm falls inside the frequency window there is
    no admissible rectangle and :class:`ContourDomainError` is raised.
    General x reduces by Phi(x+1) = lam Phi(x).  Gauss-Legendre per edge,
    order-doubled until two consecutive answers agree to ``CONTOUR_RTOL``.
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
        if abs(cur - prev) <= CONTOUR_RTOL * max(1.0, abs(cur)):
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

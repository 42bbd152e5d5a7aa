"""Shannon-type interpolation kernels for cardinal exponential-spline spaces.

The space V_0 spanned by the integer translates of a TB-spline Q_N admits a
unique interpolating generator S_0 (the Shannon-type kernel of the space):
S_0(j) = delta_j and

    S_0^(xi) = Q^(xi) / phi*(xi),      phi*(xi) = sum_{m=1}^{N-1} Q_N(m) e^{-i xi m},

provided the sampled symbol phi* has no zeros on the circle (true for
symmetric spectra of even order; famously false for odd-order classical
splines).  Reconstruction of f in V_0 from its integer samples is then the
cardinal series sum_j f(j) S_0(. - j).

Kernels are materialized as uniform tables with step h = 1/per_unit by
deconvolving on the integer lattice: S_0 = sum_m a_m Q_N(. - m), where the
taps a_m = (1/2 pi) int 1/phi*(xi) e^{i xi m} dxi invert the sampled symbol
on the lattice (the B-spline prefilter of Unser, Aldroubi & Eden, IEEE TSP
41, 1993).  One inverse FFT of 1/phi* on M circle points gives the taps
periodized with period M (Poisson); they decay geometrically, and
M = max(256, 4 (half_width + N) rounded up to a power of two) puts the
aliased copies far beyond the table.  Each table node is then a sum of N
taps times grid samples of Q_N.  The same machinery with the Gram symbol as
divisor produces the dual generator, whose translates biorthogonalize those
of Q.

Reconstruction need not go through a table at all.  In V_0 the cardinal
series sum_j y_j S_0(t - j) equals sum_i c_i Q_N(t - i) with c = a * y (the
prefilter, extended to exponential splines by Unser & Blu, IEEE TSP 53,
2005), and only N translates of Q_N are live at any t.
:func:`spline_series` evaluates it that way: it prefilters with the same
lattice taps and hands c to :func:`tb_superposition`, the one sum of TB
translates, which the ground-truth oracles use too.  It is exact to
roundoff where the 6-point table stencils of :func:`cardinal_series` stop
at their interpolation error; the table route stays as the paper's literal
Shannon series.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectrum import SpectrumVector
from .tables import interp6
from .tbspline import tb_chebyshev, tb_fourier, tb_integer_values

__all__ = [
    "BoundaryTailWarning",
    "KernelTable",
    "NarrowGridError",
    "NotSamplableError",
    "SamplingGrid",
    "autocorrelation",
    "cardinal_series",
    "check_cardinal_data",
    "dual_fourier",
    "gram_symbol",
    "kernel_fourier",
    "sampled_symbol",
    "spline_series",
    "symbol_margin",
    "synthesize_dual",
    "synthesize_kernel",
    "tb_superposition",
]


class NotSamplableError(ValueError):
    """The sampled symbol (nearly) vanishes: integer samples cannot determine V_0."""


class NarrowGridError(ValueError):
    """The grid's half_width does not cover the generator support."""


@dataclass(frozen=True)
class SamplingGrid:
    """Kernel table grid: step 1/per_unit over [-half_width, half_width]."""

    per_unit: int = 64
    half_width: int = 30

    def __post_init__(self) -> None:
        if self.per_unit < 8:
            raise ValueError("per_unit must be at least 8")
        if self.half_width < 1:
            raise ValueError("half_width must be at least 1")


def sampled_symbol(spectrum: SpectrumVector, xi):
    """phi*(xi) = sum_{m=1}^{N-1} Q_N(m) e^{-i xi m} (raw TB normalization)."""
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    qm = tb_integer_values(spectrum)
    out = np.zeros(xi_arr.shape, dtype=complex)
    for m, q in enumerate(qm, start=1):
        out += q * np.exp(-1j * xi_arr * m)
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class SymbolMargin:
    min_abs: float
    max_abs: float

    @property
    def relative(self) -> float:
        return self.min_abs / self.max_abs if self.max_abs > 0.0 else 0.0


def symbol_margin(spectrum: SpectrumVector, n_grid: int = 4096) -> SymbolMargin:
    """min/max of |phi*| over a uniform circle grid (the sampling margin m*)."""
    xi = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    vals = np.abs(sampled_symbol(spectrum, xi))
    return SymbolMargin(float(np.min(vals)), float(np.max(vals)))


def kernel_fourier(spectrum: SpectrumVector, xi):
    """S_0^(xi) = Q^(xi) / phi*(xi)."""
    return tb_fourier(spectrum, xi) / sampled_symbol(spectrum, xi)


def gram_symbol(spectrum: SpectrumVector, xi):
    """G(xi) = sum_k |Q^(xi + 2 pi k)|^2, closed up via the doubled spectrum.

    |Q^_Lambda|^2 = e^{i N xi} e^{-sum lambda} Q^_{Lambda u -Lambda}(xi), so the
    fold collapses (Poisson again) to integer samples of the order-2N spline
    of the symmetrized multiset:

        G(xi) = e^{-sum lambda} sum_{m=1}^{2N-1} Q_{2N}(m) e^{i xi (N - m)}.

    Real and bounded away from zero: the Riesz function of the basis.
    """
    xi_arr = np.asarray(xi, dtype=float)
    scalar = xi_arr.ndim == 0
    xi_arr = np.atleast_1d(xi_arr)
    n = spectrum.order
    doubled = spectrum.symmetrized()
    qm = tb_integer_values(doubled)
    pref = math.exp(-spectrum.freq_sum())
    out = np.zeros(xi_arr.shape, dtype=complex)
    for m, q in enumerate(qm, start=1):
        out += q * np.exp(1j * xi_arr * (n - m))
    out *= pref
    vals = out.real
    return float(vals[0]) if scalar else vals


def autocorrelation(spectrum: SpectrumVector, tau: int) -> float:
    """<Q, Q(. - tau)> = e^{-sum lambda} Q_{2N}[sym](tau + N)."""
    n = spectrum.order
    doubled = spectrum.symmetrized()
    if not (-n < tau < n):
        return 0.0
    qm = tb_integer_values(doubled)
    return math.exp(-spectrum.freq_sum()) * qm[tau + n - 1]


def dual_fourier(spectrum: SpectrumVector, xi):
    """Fourier transform of the dual generator: Q^(xi) / G(xi)."""
    return tb_fourier(spectrum, xi) / gram_symbol(spectrum, xi)


# --------------------------------------------------------------------------
# kernel tables
# --------------------------------------------------------------------------

_KERNEL_KINDS = ("interp", "dual")
_MAGIC = b"PSKT"
_HEAD = "<4sHBBHHIiQ"


@dataclass(frozen=True)
class KernelTable:
    """A synthesized kernel on the uniform grid t_min + l/per_unit.

    ``kind`` is "interp" (cardinal Shannon-type kernel) or "dual" (the
    biorthogonal generator).  Evaluation interpolates with a 6-point stencil
    confined between the integer knots; grid nodes reproduce stored values
    bit-exactly, queries beyond the table return 0.
    """

    spectrum: SpectrumVector
    kind: str
    per_unit: int
    t_min: int
    values: np.ndarray

    def __call__(self, t):
        return interp6(
            self.values, float(self.t_min), 1.0 / self.per_unit, t,
            knot_every=self.per_unit,
        )

    def save(self, path) -> None:
        """Write the table to ``path`` (documented little-endian layout).

        Header: magic "PSKT", u16 version=1, u8 kind, u8 pad, u16 entry
        count, u16 pad, u32 per_unit, i32 t_min, u64 value count; then per
        frequency entry (f64 value, u32 multiplicity, u32 pad); then the raw
        f64 values.  Floats round-trip bit-exactly.
        """
        head = struct.pack(
            _HEAD,
            _MAGIC,
            1,
            _KERNEL_KINDS.index(self.kind),
            0,
            len(self.spectrum.entries),
            0,
            self.per_unit,
            self.t_min,
            len(self.values),
        )
        body = b"".join(
            struct.pack("<dII", v, m, 0) for v, m in self.spectrum.entries
        )
        data = np.ascontiguousarray(self.values, dtype="<f8").tobytes()
        # a reader never sees a half-written file: write aside, then rename
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(head + body + data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "KernelTable":
        """Read a table written by :meth:`save`.

        Raises ValueError on any malformed file: short header, wrong magic or
        version, unknown kind, a length that disagrees with the header, or a
        NaN or infinite value.
        """
        raw = Path(path).read_bytes()
        head_size = struct.calcsize(_HEAD)
        if len(raw) < head_size:
            raise ValueError(f"kernel table {path} is shorter than its header")
        magic, version, kind_idx, _, n_entries, _, per_unit, t_min, n_values = (
            struct.unpack(_HEAD, raw[:head_size])
        )
        if magic != _MAGIC or version != 1:
            raise ValueError(f"not a kernel table file: {path}")
        if kind_idx >= len(_KERNEL_KINDS):
            raise ValueError(f"kernel table {path} has unknown kind {kind_idx}")
        size = head_size + 16 * n_entries + 8 * n_values
        if len(raw) != size:
            raise ValueError(
                f"kernel table {path} holds {len(raw)} bytes, its header says {size}"
            )
        offset = head_size
        entries = []
        for _ in range(n_entries):
            v, m, _pad = struct.unpack("<dII", raw[offset : offset + 16])
            entries.append((v, m))
            offset += 16
        values = np.frombuffer(raw[offset:], dtype="<f8", count=n_values).copy()
        if not np.all(np.isfinite(values)):
            raise ValueError(f"kernel table {path} holds NaN or infinite values")
        values.flags.writeable = False
        return cls(
            spectrum=SpectrumVector(tuple(entries)),
            kind=_KERNEL_KINDS[kind_idx],
            per_unit=per_unit,
            t_min=t_min,
            values=values,
        )


def _lattice_inverse(
    spectrum: SpectrumVector, divisor_coeffs: dict[int, float], reach: int
) -> np.ndarray:
    """Taps a_m of 1/D(xi), D(xi) = sum_m c_m e^{-i xi m} given by
    ``divisor_coeffs``, periodized with period M: a_m sits at index m % M.

    The taps decay geometrically; M = max(256, 4 * reach rounded up to a
    power of two) keeps their aliases far from every |m| <= ``reach``.
    Raises :class:`NotSamplableError` when D is not finite or (nearly)
    vanishes on the circle.
    """
    size = max(256, 1 << (4 * reach - 1).bit_length())
    coeffs = np.zeros(size)
    for m, c in divisor_coeffs.items():
        coeffs[m % size] = c
    divisor = np.fft.fft(coeffs)
    mags = np.abs(divisor)
    if not np.all(np.isfinite(mags)):
        raise NotSamplableError(f"sampling symbol of {spectrum} is not finite")
    if mags.max() == 0.0 or mags.min() < 1e-9 * mags.max():
        raise NotSamplableError(
            f"sampling symbol of {spectrum} vanishes on the circle "
            f"(relative margin {0.0 if mags.max() == 0.0 else mags.min()/mags.max():.2e})"
        )
    return np.fft.ifft(1.0 / divisor).real


def _synthesize(
    spectrum: SpectrumVector,
    grid: SamplingGrid,
    divisor_coeffs: dict[int, float],
    kind: str,
) -> KernelTable:
    """Tabulate sum_m a_m Q_N(t - m), a the lattice inverse of the divisor
    sum_m c_m e^{-i xi m} given by ``divisor_coeffs``."""
    n, hw, per_unit = spectrum.order, grid.half_width, grid.per_unit
    if hw < n:
        raise NarrowGridError(
            f"half_width {hw} must cover the generator support (>= {n})"
        )

    taps = _lattice_inverse(spectrum, divisor_coeffs, hw + n)

    # S(L + r/per_unit) = sum_{i<n} a_{L-i} Q_N(i + r/per_unit), L = -hw..hw
    window = taps[np.arange(-hw - n + 1, hw + 1) % len(taps)]
    toeplitz = np.lib.stride_tricks.sliding_window_view(window, n)[:, ::-1]
    t = np.arange(n * per_unit, dtype=float) / per_unit
    qs = tb_chebyshev(spectrum)(t).reshape(n, per_unit)
    values = (toeplitz @ qs).ravel()[: 2 * hw * per_unit + 1]
    values.flags.writeable = False
    return KernelTable(
        spectrum=spectrum, kind=kind, per_unit=per_unit, t_min=-hw, values=values,
    )


def synthesize_kernel(
    spectrum: SpectrumVector, grid: SamplingGrid = SamplingGrid()
) -> KernelTable:
    """Materialize the Shannon-type interpolation kernel S_0 as a table.

    Raises :class:`NotSamplableError` when the sampled symbol has circle
    zeros (odd-order classical splines being the canonical offenders), and
    :class:`NarrowGridError` when ``grid.half_width`` is below the order N.
    """
    if spectrum.order < 2:
        raise NotSamplableError("first-order spaces have an empty sampled symbol")
    qm = tb_integer_values(spectrum)
    return _synthesize(spectrum, grid, dict(enumerate(qm, start=1)), "interp")


def synthesize_dual(
    spectrum: SpectrumVector, grid: SamplingGrid = SamplingGrid()
) -> KernelTable:
    """Materialize the dual generator (biorthogonal to the TB translates)."""
    n = spectrum.order
    qm2 = tb_integer_values(spectrum.symmetrized())
    pref = math.exp(-spectrum.freq_sum())
    # G(xi) = pref * sum_m q2_m e^{i xi (n - m)}; as a divisor dictionary the
    # e^{-i xi m'} convention means m' = m - n
    coeffs = {m - n: pref * q for m, q in enumerate(qm2, start=1)}
    return _synthesize(spectrum, grid, coeffs, "dual")


# --------------------------------------------------------------------------
# series evaluation
# --------------------------------------------------------------------------

class BoundaryTailWarning(UserWarning):
    """Query too close to the edge of the sampled range; kernel tails truncated."""


def _check_queries(t) -> None:
    if not np.all(np.isfinite(t)):
        raise ValueError("query coordinates contain NaN or infinite values")


def check_cardinal_data(samples, j_min: int, t) -> None:
    """Guard a cardinal series over sample rows j = j_min, j_min+1, ...: raise
    ValueError on a NaN or infinite sample or query coordinate ``t``, and warn
    (:class:`BoundaryTailWarning`) when a query lies within two units of the
    first or last sample."""
    samples = np.asarray(samples)
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples contain NaN or infinite values")
    _check_queries(t)
    lo, hi = j_min + 2, j_min + samples.shape[0] - 3
    if np.any(t < lo) or np.any(t > hi):
        scale = float(np.max(np.abs(samples))) if samples.size else 0.0
        warnings.warn(
            f"queries leave [{lo}, {hi}]: kernel tails truncated by the "
            f"sampled range (data scale {scale:.3g})",
            BoundaryTailWarning,
            stacklevel=3,
        )


def cardinal_series(table, j_min: int, coeffs, t):
    """sum_j c_j K(t - j) with j = j_min, j_min+1, ... for a kernel callable K.

    ``table`` is a :class:`KernelTable` (which handles decay) or any other
    vectorized callable of t.  ``coeffs`` holds c_{j_min}, c_{j_min+1}, ... along
    its last axis and may be complex; a 2-D array gives one series per row,
    shape (rows,) + t.shape.  K is evaluated once per shift whose
    coefficients are not all zero, and the rows are multiplied by that
    (shifts x points) matrix.
    """
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


def spline_series(spectrum: SpectrumVector, j_min: int, samples, t):
    """sum_j y_j S_0(t - j) over samples y_j, j = j_min, j_min+1, ..., in V_0.

    The cardinal series of :func:`cardinal_series` without a table: it
    equals sum_i c_i Q_N(t - i) with c = a * y, a the lattice inverse of
    the sampled symbol (:func:`_lattice_inverse`).  Only the coefficients
    c_lo..c_hi that the queries touch are formed, and
    :func:`tb_superposition` sums their translates.  Coefficients stop
    ``SamplingGrid().half_width`` beyond each end of the data, the support
    of the default table, so a query farther out gets 0 as it does from a
    table.  Same layout and return shape as :func:`cardinal_series`.
    Raises ValueError on a NaN or infinite query coordinate, and
    :class:`NotSamplableError` when the sampled symbol vanishes on the
    circle or is not finite.
    """
    y = np.asarray(samples)
    if not np.iscomplexobj(y):
        y = y.astype(float)
    t_arr = np.asarray(t, dtype=float)
    _check_queries(t_arr)
    j_max = j_min + y.shape[-1] - 1
    hw = SamplingGrid().half_width
    # coefficient range the queries touch, within the default table support
    if t_arr.size:
        lo = max(math.floor(t_arr.min()) - spectrum.order + 1, j_min - hw)
        hi = min(math.floor(t_arr.max()), j_max + hw)
    else:
        lo, hi = 0, -1
    if lo > hi:
        out = np.zeros(y.shape[:-1] + t_arr.shape, dtype=y.dtype)
        return out.item() if out.ndim == 0 else out

    divisor = dict(enumerate(tb_integer_values(spectrum), start=1))
    taps = _lattice_inverse(spectrum, divisor, max(hi - j_min, j_max - lo))
    shifts = np.arange(lo, hi + 1)
    c = y @ taps[(shifts[:, None] - np.arange(j_min, j_max + 1)) % len(taps)].T
    return tb_superposition(spectrum, lo, c, t_arr)


def tb_superposition(spectrum: SpectrumVector, j_min: int, coeffs, t):
    """sum_j c_j Q_N(t - j): an exact element of V_0, for ground-truth checks
    and for :func:`spline_series`.

    Same coefficient layout as :func:`cardinal_series`.  The translates come
    from :meth:`~polyshannon.tbspline.TbChebyshev.translates`, which fills
    only the N live at each point.  A NaN or infinite t gives 0, as Q_N
    does there.
    """
    c = np.asarray(coeffs)
    t_arr = np.asarray(t, dtype=float)
    q = tb_chebyshev(spectrum).translates(j_min, c.shape[-1], t_arr)
    out = (c @ q).reshape(c.shape[:-1] + t_arr.shape)
    return out.item() if out.ndim == 0 else out

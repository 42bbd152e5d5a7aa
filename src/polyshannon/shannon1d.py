"""Shannon-type interpolation kernels for cardinal exponential-spline spaces.

The space V_0 spanned by the integer translates of a TB-spline Q_N admits a
unique interpolating generator S_0 (the Shannon-type kernel of the space):
S_0(j) = delta_j and

    S_0^(xi) = Q^(xi) / phi*(xi),      phi*(xi) = sum_{m=1}^{N-1} Q_N(m) e^{-i xi m},

provided the sampled symbol phi* has no zeros on the circle (true for
symmetric spectra of even order; famously false for odd-order classical
splines).  Reconstruction of f in V_0 from its integer samples is then the
cardinal series sum_j f(j) S_0(. - j).

Each kernel kind is fixed by one lattice divisor D(xi) = sum_m c_m
e^{-i xi m} (:func:`_divisor`): phi* for the interpolant, the Gram symbol G
for the dual generator, whose translates biorthogonalize those of Q.
Kernels are tabulated with step h = 1/per_unit by deconvolving on the
integer lattice: S_0 = sum_m a_m Q_N(. - m), where the taps
a_m = (1/2 pi) int 1/D(xi) e^{i xi m} dxi invert D on the lattice (the
B-spline prefilter of Unser, Aldroubi & Eden, IEEE TSP 41, 1993).  One
inverse FFT of 1/D on M circle points gives the taps periodized with
period M (Poisson); they decay geometrically, and M = max(256,
4 (half_width + N) rounded up to a power of two) puts the aliased copies
far beyond the table.  Each table node is a sum of N taps times Q_N samples.

Reconstruction need not go through a table at all.  In V_0 the cardinal
series sum_j y_j S_0(t - j) equals sum_i c_i Q_N(t - i) with c = a * y (the
prefilter, extended to exponential splines by Unser & Blu, IEEE TSP 53,
2005), and only N translates of Q_N are live at any t.
:func:`spline_series` evaluates it that way: it prefilters with the same
lattice taps and hands c to :func:`tb_superposition`, the one sum of TB
translates, which the ground-truth oracles use too.  On a cell [j, j+1)
that sum is a single Chebyshev series whose coefficients are sum_m
c_{j-m} times piece m of :func:`~polyshannon.tbspline.tb_chebyshev`, so it
is evaluated in coefficient space, by the translate-sum evaluator of
:mod:`~polyshannon.tbspline` (``_translate_sums``).  It is exact
to roundoff where the 6-point table stencils of :func:`cardinal_series`
stop at their interpolation error; the table route stays as the paper's
literal Shannon series.  A :class:`KernelTable` is stored as one binary
``PSKT`` record, the package's only file, which the class alone reads and
writes; a malformed one fails to load with :class:`FormatError`.

The sphere and strip pipelines run this series per channel group and sum
it back over an angular basis, through one core: :func:`check_channel_queries`
checks the queries, :func:`channel_series` reconstructs (the one choice
between the coefficient and table routes), and :func:`channel_values` and
:func:`channel_samples` evaluate and sample the ground-truth generators.  A
geometry supplies ``groups(rows)``, ``spectrum(key)``, ``channels(rows)``
(its real channel rows and their blocks) and ``contract(blocks, profiles,
points)`` (the sum against its angular basis).  The coefficient rows of
every block go through one call of that evaluator: the queries are sorted
by cell once, each chunk of them forms one Chebyshev basis and makes one
matrix product per cell for the stacked rows of all blocks, and is
contracted as it comes.  The node samples are the integer values
Q_N(m) of :func:`~polyshannon.tbspline.tb_integer_values` in a Toeplitz
product, and the lattice taps are cached per spectrum, divisor and size
(:func:`_lattice_taps`).
"""

from __future__ import annotations

import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .spectrum import SpectrumVector
from .tables import interp6
from .tbspline import _translate_sums, check_queries, tb_chebyshev, tb_fourier
from .tbspline import tb_integer_values

__all__ = [
    "BoundaryTailWarning",
    "FormatError",
    "KernelTable",
    "NarrowGridError",
    "NotSamplableError",
    "SamplingGrid",
    "cardinal_series",
    "channel_samples",
    "channel_series",
    "channel_values",
    "check_cardinal_data",
    "check_channel_queries",
    "check_samples",
    "coefficient_count",
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
    """A grid or sample range that does not cover the generator support."""


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


def _divisor(spectrum: SpectrumVector, kind: str) -> dict[int, float]:
    """Coefficients c_m of the divisor D(xi) = sum_m c_m e^{-i xi m} of
    ``kind``: "interp", phi*, c_m = Q_N(m); "dual", G, c_m = e^{-sum lambda}
    Q_{2N}[sym](m + N), since |Q^_Lambda|^2 = e^{i N xi} e^{-sum lambda}
    Q^_{Lambda u -Lambda}(xi) folds (Poisson) to integer samples of the
    order-2N spline of the symmetrized multiset: c_m = <Q, Q(. - m)>, and G
    is real and bounded away from zero, the Riesz function of the basis."""
    if kind == "interp":
        return dict(enumerate(tb_integer_values(spectrum), start=1))
    n = spectrum.order
    pref = math.exp(-spectrum.freq_sum())
    qm2 = tb_integer_values(spectrum.symmetrized())
    return {m - n: pref * q for m, q in enumerate(qm2, start=1)}


def sampled_symbol(spectrum: SpectrumVector, xi):
    """phi*(xi) = sum_{m=1}^{N-1} Q_N(m) e^{-i xi m} (raw TB normalization),
    the "interp" divisor of :func:`_divisor` on the circle."""
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros(xi_arr.shape, dtype=complex)
    for m, c in _divisor(spectrum, "interp").items():
        out += c * np.exp(-1j * xi_arr * m)
    return complex(out[0]) if np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class SymbolMargin:
    min_abs: float
    max_abs: float

    @property
    def relative(self) -> float:
        return self.min_abs / self.max_abs if self.max_abs > 0.0 else 0.0


def symbol_margin(spectrum: SpectrumVector) -> SymbolMargin:
    """min/max of |phi*| over 4096 equispaced points of the circle (the
    sampling margin m*)."""
    xi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    vals = np.abs(sampled_symbol(spectrum, xi))
    return SymbolMargin(float(np.min(vals)), float(np.max(vals)))


def kernel_fourier(spectrum: SpectrumVector, xi):
    """S_0^(xi) = Q^(xi) / phi*(xi)."""
    return tb_fourier(spectrum, xi) / sampled_symbol(spectrum, xi)


# --------------------------------------------------------------------------
# kernel tables
# --------------------------------------------------------------------------

class FormatError(ValueError):
    """A file is not a well-formed kernel table."""


_KERNEL_KINDS = ("interp", "dual")
_MAGIC, _VERSION = b"PSKT", 1
_HEAD = struct.Struct("<4sHBBHHIiQ")  # the layout is in KernelTable.save
_ENTRY = struct.Struct("<dII")


@dataclass(frozen=True)
class KernelTable:
    """A synthesized kernel on the uniform grid t_min + l/per_unit.

    ``kind`` is "interp" (cardinal Shannon-type kernel) or "dual" (the
    biorthogonal generator); ValueError for another kind, a grid
    :class:`SamplingGrid` rejects, or other than 2 (-t_min) per_unit + 1
    finite values.  Evaluation interpolates with a 6-point stencil confined
    between the integer knots; grid nodes reproduce stored values
    bit-exactly, queries beyond the table return 0, and a NaN or infinite
    query raises ValueError.
    """

    spectrum: SpectrumVector
    kind: str
    per_unit: int
    t_min: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        SamplingGrid(self.per_unit, -self.t_min)
        nodes = 2 * -self.t_min * self.per_unit + 1
        if np.shape(self.values) != (nodes,):
            raise ValueError(f"{nodes} grid nodes, values {np.shape(self.values)}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("table values contain NaN or infinite values")

    def __call__(self, t):
        check_queries(t)
        return interp6(
            self.values, float(self.t_min), 1.0 / self.per_unit, t,
            knot_every=self.per_unit,
        )

    def save(self, path) -> None:
        """Write the table to ``path`` (documented little-endian layout):
        into a temporary sibling, then renamed over ``path``.

        Header: magic "PSKT", u16 version=1, u8 kind, u8 pad, u16 entry
        count, u16 pad, u32 per_unit, i32 t_min, u64 value count; then per
        frequency entry (f64 value, u32 multiplicity, u32 pad); then the raw
        f64 values.  Floats round-trip bit-exactly.
        """
        head = _HEAD.pack(
            _MAGIC, _VERSION, _KERNEL_KINDS.index(self.kind), 0,
            len(self.spectrum.entries), 0, self.per_unit, self.t_min, len(self.values),
        )
        entries = b"".join(_ENTRY.pack(v, m, 0) for v, m in self.spectrum.entries)
        data = np.ascontiguousarray(self.values, dtype="<f8").tobytes()
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(head + entries + data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "KernelTable":
        """Read a table written by :meth:`save`.

        Raises :class:`FormatError` on any malformed file: short header,
        wrong magic or version, unknown kind, a length that disagrees with
        the header, or a spectrum or table its class rejects.
        """
        raw = Path(path).read_bytes()
        if len(raw) < _HEAD.size:
            raise FormatError(f"{path} is shorter than its header")
        magic, version, kind_idx, _, n_entries, _, per_unit, t_min, n_values = (
            _HEAD.unpack_from(raw)
        )
        if magic != _MAGIC or version != _VERSION:
            raise FormatError(f"not a PSKT version {_VERSION} file: {path}")
        if kind_idx >= len(_KERNEL_KINDS):
            raise FormatError(f"kernel table {path} has unknown kind {kind_idx}")
        values_at = _HEAD.size + _ENTRY.size * n_entries
        if len(raw) != values_at + 8 * n_values:
            raise FormatError(
                f"{path}: {len(raw)} bytes, the header says {values_at + 8 * n_values}"
            )
        entries = _ENTRY.iter_unpack(raw[_HEAD.size:values_at])
        kind = _KERNEL_KINDS[kind_idx]
        values = np.frombuffer(raw, dtype="<f8", offset=values_at).copy()
        values.flags.writeable = False
        try:
            spectrum = SpectrumVector(tuple((v, m) for v, m, _ in entries))
            return cls(spectrum, kind, per_unit, t_min, values)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _lattice_inverse(spectrum: SpectrumVector, kind: str, reach: int) -> np.ndarray:
    """Taps a_m of 1/D(xi), D the divisor of ``kind`` (:func:`_divisor`),
    periodized with period M: a_m sits at index m % M.

    The taps decay geometrically; M = max(256, 4 * reach rounded up to a
    power of two) keeps their aliases far from every |m| <= ``reach``.
    Raises :class:`NotSamplableError` when D is not finite or (nearly)
    vanishes on the circle.  The taps are read-only and cached
    (:func:`_lattice_taps`).
    """
    size = max(256, 1 << (4 * reach - 1).bit_length())
    return _lattice_taps(spectrum, tuple(_divisor(spectrum, kind).items()), size)


@lru_cache(maxsize=None)
def _lattice_taps(spectrum: SpectrumVector, divisor: tuple, size: int) -> np.ndarray:
    """The M = ``size`` periodized taps of 1/D for the (m, c_m) pairs
    ``divisor``, by two FFTs; keyed on the divisor's values, not only on
    ``spectrum`` (named in the errors), so new integer values give new taps."""
    coeffs = np.zeros(size)
    for m, c in divisor:
        coeffs[m % size] = c
    divisor_fft = np.fft.fft(coeffs)
    mags = np.abs(divisor_fft)
    if not np.all(np.isfinite(mags)):
        raise NotSamplableError(f"sampling symbol of {spectrum} is not finite")
    if mags.max() == 0.0 or mags.min() < 1e-9 * mags.max():
        raise NotSamplableError(
            f"sampling symbol of {spectrum} vanishes on the circle "
            f"(relative margin {0.0 if mags.max() == 0.0 else mags.min()/mags.max():.2e})"
        )
    taps = np.fft.ifft(1.0 / divisor_fft).real.copy()
    taps.flags.writeable = False
    return taps


def _synthesize(spectrum: SpectrumVector, grid: SamplingGrid, kind: str) -> KernelTable:
    """Tabulate sum_m a_m Q_N(t - m), a the lattice inverse of the divisor
    of ``kind``."""
    n, hw, per_unit = spectrum.order, grid.half_width, grid.per_unit
    if hw < n:
        raise NarrowGridError(
            f"half_width {hw} must cover the generator support (>= {n})"
        )

    taps = _lattice_inverse(spectrum, kind, hw + n)

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
    zeros (odd-order classical splines being the canonical offenders, first
    order too), and :class:`NarrowGridError` when ``grid.half_width`` < N.
    """
    return _synthesize(spectrum, grid, "interp")


def synthesize_dual(
    spectrum: SpectrumVector, grid: SamplingGrid = SamplingGrid()
) -> KernelTable:
    """Materialize the dual generator (biorthogonal to the TB translates)."""
    return _synthesize(spectrum, grid, "dual")


# --------------------------------------------------------------------------
# series evaluation
# --------------------------------------------------------------------------

class BoundaryTailWarning(UserWarning):
    """Query too close to the edge of the sampled range; kernel tails truncated."""


def check_samples(samples, name: str = "samples") -> None:
    """ValueError, naming the array ``name``, unless ``samples`` is a 2-D
    array of finite values: a field's samples or a generator's coefficients."""
    if np.ndim(samples) != 2:
        raise ValueError(f"{name} must be 2-D, got shape {np.shape(samples)}")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{name} contain NaN or infinite values")


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_level() -> int:
    """The warnings ``stacklevel``, seen from the function calling this one,
    of the innermost frame outside the package: the library's caller."""
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        level, frame = level + 1, frame.f_back
    return level


def _safe_band(j_min: int, j_max: int) -> tuple[int, int]:
    """[j_min + 2, j_max - 2]: the queries of a cardinal series over samples
    j_min..j_max at least two units from the first and last sample."""
    return j_min + 2, j_max - 2


def check_cardinal_data(samples, j_min: int, t) -> None:
    """Guard a cardinal series over sample rows j = j_min, j_min+1, ...: raise
    ValueError as :func:`check_samples` and on a NaN or infinite ``t``, and
    warn (:class:`BoundaryTailWarning`) when a query leaves the safe band of
    :func:`_safe_band`.  The warning points at the first caller outside the
    package, however deep the route to this check."""
    samples = np.asarray(samples)
    check_samples(samples)
    check_queries(t)
    lo, hi = _safe_band(j_min, j_min + samples.shape[0] - 1)
    if np.any(t < lo) or np.any(t > hi):
        scale = float(np.max(np.abs(samples))) if samples.size else 0.0
        warnings.warn(
            f"queries leave [{lo}, {hi}]: kernel tails truncated by the "
            f"sampled range (data scale {scale:.3g})",
            BoundaryTailWarning,
            stacklevel=_outside_level(),
        )


def cardinal_series(table, j_min: int, coeffs, t):
    """sum_j c_j K(t - j) with j = j_min, j_min+1, ... for a kernel callable K.

    ``table`` is a :class:`KernelTable` (which handles decay) or any other
    vectorized callable of t.  ``coeffs`` holds c_{j_min}, c_{j_min+1}, ... along
    its last axis and may be complex; a 2-D array gives one series per row,
    shape (rows,) + t.shape.  K is evaluated once, on the (shifts x points)
    grid t - j of every shift j whose coefficients are not all zero, and the
    rows are multiplied by that matrix.  Raises ValueError on 0-d
    coefficients and on a NaN or infinite query.
    """
    c = np.asarray(coeffs)
    if c.ndim == 0:
        raise ValueError("coefficients need a last axis over the shifts j")
    if not np.iscomplexobj(c):
        c = c.astype(float)
    t_arr = np.asarray(t, dtype=float)
    check_queries(t_arr)
    flat = t_arr.reshape(-1)
    live = np.flatnonzero(np.any(c != 0, axis=tuple(range(c.ndim - 1))))
    weights = table(flat[None, :] - (j_min + live)[:, None])
    out = (c[..., live] @ weights).reshape(c.shape[:-1] + t_arr.shape)
    return out.item() if out.ndim == 0 else out


def _series_coeffs(spectrum: SpectrumVector, j_min: int, y: np.ndarray, t: np.ndarray):
    """(lo, c): the coefficients c_lo.. of sum_i c_i Q_N(t - i) = the cardinal
    series of the sample rows ``y`` (j = j_min, ...) that the finite
    queries ``t`` touch, within the default table support; if they touch
    none, no coefficients (c with 0 columns, from j_min)."""
    j_max, hw = j_min + y.shape[-1] - 1, SamplingGrid().half_width
    lo = max(math.floor(t.min()) - spectrum.order + 1, j_min - hw) if t.size else 0
    hi = min(math.floor(t.max()), j_max + hw) if t.size else -1
    if lo > hi:
        return j_min, y[..., :0]
    taps = _lattice_inverse(spectrum, "interp", max(hi - j_min, j_max - lo))
    shifts = np.arange(lo, hi + 1)
    return lo, y @ taps[(shifts[:, None] - np.arange(j_min, j_max + 1)) % len(taps)].T


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
    Raises ValueError on 0-d samples and on a NaN or infinite query
    coordinate, and :class:`NotSamplableError` when the sampled symbol
    vanishes on the circle or is not finite.
    """
    y = np.asarray(samples)
    if y.ndim == 0:
        raise ValueError("samples need a last axis over the shifts j")
    if not np.iscomplexobj(y):
        y = y.astype(float)
    t_arr = np.asarray(t, dtype=float)
    check_queries(t_arr)
    return tb_superposition(spectrum, *_series_coeffs(spectrum, j_min, y, t_arr), t_arr)


def tb_superposition(spectrum: SpectrumVector, j_min: int, coeffs, t):
    """sum_j c_j Q_N(t - j): an exact element of V_0, for ground-truth checks
    and for :func:`spline_series`.

    Same coefficient layout as :func:`cardinal_series`, real or complex.
    One term of the translate-sum evaluator of the channel core
    (``tbspline._translate_sums``): per cell of t one Chebyshev series, the
    live pieces weighted by c.  A NaN or infinite t gives 0, as Q_N does
    there.
    """
    c = np.asarray(coeffs)
    t_arr = np.asarray(t, dtype=float)
    rows = c.reshape(math.prod(c.shape[:-1]), c.shape[-1])
    out = np.zeros((len(rows), t_arr.size), np.result_type(c, float))
    for at, values in _translate_sums([(tb_chebyshev(spectrum), j_min, rows)], t_arr):
        out[:, at] = values
    out = out.reshape(c.shape[:-1] + t_arr.shape)
    return out.item() if out.ndim == 0 else out


# --------------------------------------------------------------------------
# the channel core of the sphere and strip pipelines
# --------------------------------------------------------------------------

def coefficient_count(j_min: int, j_max: int, order: int) -> int:
    """Count of the coefficients i = j_min..j_max - order, whose order-N
    translates vanish outside [j_min, j_max]; NarrowGridError if none."""
    if j_max - order < j_min:
        raise NarrowGridError(
            f"sample range {j_min}..{j_max} is shorter than the spline order {order}"
        )
    return j_max - order - j_min + 1


def check_channel_queries(t, points) -> tuple[np.ndarray, np.ndarray]:
    """Query coordinates t, shape (P,), and angular points, P rows, as float
    arrays; ValueError unless the counts agree and every value is finite."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) != len(t_arr):
        raise ValueError(f"need one angular point per query: {len(pts)} for {len(t_arr)}")
    check_queries(t_arr)
    check_queries(pts)
    return t_arr, pts


def _contract_sums(geometry, blocks, terms, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """geometry.contract of the translate sums of ``terms``, one term per
    block, each chunk of ``_translate_sums`` as it comes."""
    geometry.contract([], None, points[:0])  # checks the points, reached or not
    out = np.zeros(len(t))
    bounds = np.cumsum([0, *(len(rows) for _, _, rows in terms)])
    for at, values in _translate_sums(terms, t) if terms else ():
        out[at] = geometry.contract(
            blocks, lambda n: values[bounds[n] : bounds[n + 1]], points[at])
    return out


def channel_series(fld, t, points, kernel=None) -> np.ndarray:
    """Shannon reconstruction of a channel field at the (t, points) of
    :func:`check_channel_queries`.

    ``fld.samples`` has one row per j = ``fld.j_min``, ... and one column per
    channel.  ``fld.channels(rows)`` gives the channel rows and their
    blocks, (key, index) per live group of spectrum ``fld.spectrum(key)``,
    and ``fld.contract(blocks, profiles, points)`` sums profiles(n), the
    series of block n's rows, against the angular basis.  The series is
    :func:`spline_series`, all blocks summed by one ``_translate_sums``,
    or :func:`cardinal_series` on the table ``kernel(spectrum)`` when
    ``kernel`` is given.  Raises and warns as :func:`check_cardinal_data`.
    """
    check_cardinal_data(fld.samples, fld.j_min, t)
    rows, blocks = fld.channels(fld.samples.T)
    if kernel is not None:
        return fld.contract(blocks, lambda n: cardinal_series(
            kernel(fld.spectrum(blocks[n][0])), fld.j_min, rows[blocks[n][1]], t), points)
    spectra = [fld.spectrum(key) for key, _ in blocks]
    terms = [(tb_chebyshev(sv), *_series_coeffs(sv, fld.j_min, rows[idx], t))
             for sv, (_, idx) in zip(spectra, blocks)]
    return _contract_sums(fld, blocks, terms, t, points)


def channel_values(gen, t, points) -> np.ndarray:
    """A generator's field at the (t, points) of :func:`check_channel_queries`,
    summed as in :func:`channel_series` from its V_0 coefficient rows
    ``gen.coeffs`` (i from ``gen.i_min``)."""
    rows, blocks = gen.channels(gen.coeffs)
    terms = [(tb_chebyshev(gen.spectrum(key)), gen.i_min, rows[idx]) for key, idx in blocks]
    return _contract_sums(gen, blocks, terms, t, points)


def channel_samples(gen, j_min: int, j_max: int) -> np.ndarray:
    """Samples of a generator's channels (columns) at t = j_min..j_max (rows),
    per group of ``gen.groups(rows)``, (key, index) pairs: at a node j the
    sum of translates is sum_m c_{j-m} Q_N(m) over the integer values of
    :func:`~polyshannon.tbspline.tb_integer_values`, the data of
    :func:`_divisor`, and Q_N(0) = 0 (channel spectra have order 2p >= 2)."""
    coeffs = gen.coeffs
    out = np.zeros((j_max - j_min + 1, len(coeffs)), np.result_type(coeffs, float))
    # node j minus coefficient index i, per (i, j)
    lag = np.arange(j_min, j_max + 1) - np.arange(gen.i_min, gen.i_min + coeffs.shape[1])[:, None]
    for key, idx in gen.groups(coeffs):
        q = np.array((0.0, *tb_integer_values(gen.spectrum(key)), 0.0))
        out[:, idx] = (coeffs[idx] @ q[np.clip(lag, 0, len(q) - 1)]).T
    return out

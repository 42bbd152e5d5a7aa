"""Reconstruction of polyharmonic fields from data on parallel hyperplanes.

A field on R x T^{n-1} (periodic in the transverse variables) that is
piecewise polyharmonic on every strip j < t < j+1 splits over torus Fourier
modes kappa in Z^{n-1}: each mode profile f_kappa(t) is a cardinal
exponential spline for the symmetric spectrum {+-|kappa|, each with
multiplicity p}, coming from the operator (d^2/dt^2 - |kappa|^2)^p.
Symmetric spectra always satisfy the non-zero sampling condition, so every
mode kernel exists.  Reconstruction from hyperplane traces t = j is the
channel core of :mod:`polyshannon.shannon1d` with the torus modes as
channels: :class:`_OnTorusModes` maps each +-kappa pair of the complex
samples (one column per mode of ``torus_modes(dimension, cutoff)``) onto a
real cos/sin pair, groups the live pairs by the exact integer |kappa|^2 and
contracts each group's real series with cos and sin of y.kappa, the parts
of one torus phase e^{i y.kappa} per pair.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .shannon1d import (
    KernelTable,
    channel_samples,
    channel_series,
    channel_values,
    check_channel_queries,
    check_samples,
    coefficient_count,
    synthesize_kernel,
)
from .spectrum import SpectrumVector, strip_spectrum

__all__ = [
    "StripField",
    "SyntheticStripField",
    "analyze_torus",
    "random_strip_field",
    "reconstruct_strip",
    "strip_kernel",
    "synthesize_torus",
    "torus_modes",
]


@functools.lru_cache(maxsize=None)
def torus_modes(dimension: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """All kappa in Z^dimension with |kappa| <= cutoff, in canonical order.

    Sorted by (|kappa|^2, lexicographic): deterministic, starts at 0, closed
    under negation.  Built axis by axis, each prefix extended only by the
    coordinates its remaining radius allows, so the work follows the ball,
    not the cube [-cutoff, cutoff]^dimension; built once per (dimension,
    cutoff).
    """
    if dimension < 1:
        raise ValueError("torus dimension must be positive")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    modes = [()]
    for _ in range(dimension):
        grown = []
        for prefix in modes:
            reach = math.isqrt(cutoff * cutoff - sum(c * c for c in prefix))
            grown.extend(prefix + (c,) for c in range(-reach, reach + 1))
        modes = grown
    modes.sort(key=lambda kappa: (sum(c * c for c in kappa), kappa))
    return tuple(modes)


@functools.lru_cache(maxsize=None)
def _torus_pairs(dimension: int, cutoff: int):
    """(partner, lead, trail) over ``torus_modes(dimension, cutoff)``: index of
    -kappa, masks of kappa > -kappa and kappa < -kappa (tuple order)."""
    modes = torus_modes(dimension, cutoff)
    index = {kappa: i for i, kappa in enumerate(modes)}
    partner = np.array([index[tuple(-c for c in kappa)] for kappa in modes])
    lead = np.array([kappa > tuple(-c for c in kappa) for kappa in modes])
    return partner, lead, ~lead & (partner != np.arange(len(modes)))


class _TorusPhases:
    """e^{i y.kappa} at fixed torus points y (rows of ``ys``), for modes with
    |kappa_a| <= cutoff.

    The per-axis powers (e^{i y_a})^j, j = 0..cutoff, come by repeated
    multiplication and their conjugates stand in for negative j, so a mode
    costs products of table rows where a direct evaluation costs one complex
    exponential per point.  ValueError unless each point has ``dimension``
    coordinates.
    """

    def __init__(self, ys: np.ndarray, dimension: int, cutoff: int) -> None:
        if ys.shape[1:] != (dimension,):
            raise ValueError(f"torus points need {dimension} coordinates: {ys.shape}")
        base = np.exp(1j * ys.T)  # (dimension, points)
        powers = np.empty((cutoff + 1,) + base.shape, dtype=complex)
        powers[0] = 1.0
        for j in range(1, cutoff + 1):
            np.multiply(powers[j - 1], base, out=powers[j])
        self.powers = powers

    def _axis(self, axis: int, j: int) -> np.ndarray:
        row = self.powers[abs(j), axis]
        return row if j >= 0 else row.conj()

    def __call__(self, modes) -> np.ndarray:
        """(len(modes), points) phases."""
        out = np.empty((len(modes), self.powers.shape[-1]), dtype=complex)
        for row, kappa in zip(out, modes):
            row[:] = self._axis(0, kappa[0])
            for axis, j in enumerate(kappa[1:], start=1):
                row *= self._axis(axis, j)
        return out


def _norm_key(k: float) -> float:
    """Cache key |kappa|^2 rounded to kill last-bit drift in sqrt routes."""
    return round(k * k, 9)


@functools.lru_cache(maxsize=None)
def _strip_kernel_cached(ksq: float, p: int) -> KernelTable:
    return synthesize_kernel(strip_spectrum(math.sqrt(ksq), p))


def strip_kernel(k: float, p: int) -> KernelTable:
    """Shannon-type kernel for the transverse frequency magnitude |kappa| = k,
    on the default synthesis grid."""
    return _strip_kernel_cached(_norm_key(k), p)


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

class _OnTorusModes:
    """Rows over the modes ``torus_modes(dimension, cutoff)``: the channels of
    :func:`~polyshannon.shannon1d.channel_series`, grouped by |kappa|."""

    @property
    def modes(self) -> tuple[tuple[int, ...], ...]:
        return torus_modes(self.dimension, self.cutoff)

    def groups(self, rows: np.ndarray):
        """(|kappa|^2, indices) of the modes with a nonzero row, grouped by the
        exact integer |kappa|^2 (no float drift between (3, 4) and (5, 0))."""
        groups: dict[int, list[int]] = {}
        for i in np.flatnonzero(np.any(rows, axis=1)):
            groups.setdefault(sum(c * c for c in self.modes[i]), []).append(i)
        return groups.items()

    def spectrum(self, ksq: int) -> SpectrumVector:
        return strip_spectrum(math.sqrt(ksq), self.smoothness)

    def channels(self, rows: np.ndarray):
        """(real, blocks): the real rows of Re sum_kappa c_kappa e^{i y.kappa}
        for complex rows c, a row per mode, exactly as Re(c_kappa e^{it} +
        c_{-kappa} e^{-it}) = (Re c_kappa + Re c_{-kappa}) cos t + (Im
        c_{-kappa} - Im c_kappa) sin t for kappa > -kappa: row kappa carries
        the cos coefficient, row -kappa the sin one, kappa = 0 keeps Re c_0;
        one block (|kappa|^2, [cos rows, sin rows]) per live group of pairs."""
        partner, lead, trail = _torus_pairs(self.dimension, self.cutoff)
        real = np.real(rows).astype(float)
        real[lead] += real[partner[lead]]
        imag = np.imag(rows)
        real[trail] = imag[trail] - imag[partner[trail]]
        nonzero = np.any(real, axis=1)
        heads = (nonzero | nonzero[partner]) & ~trail  # the cos row of each live pair
        groups = self.groups(heads[:, None])
        return real, [(ksq, np.r_[cos, partner[cos][lead[cos]]]) for ksq, cos in groups]

    def contract(self, blocks, profiles, ys: np.ndarray) -> np.ndarray:
        """sum w_cos cos(y.kappa) + w_sin sin(y.kappa) over the pairs of the
        :meth:`channels` blocks, w = profiles(n) on block n's rows, from one
        torus phase per pair."""
        trail = _torus_pairs(self.dimension, self.cutoff)[2]
        modes, phases = self.modes, _TorusPhases(ys, self.dimension, self.cutoff)
        acc = np.zeros(len(ys))
        for n, (_, idx) in enumerate(blocks):
            cos = idx[~trail[idx]]
            w = profiles(n)
            ph = phases([modes[i] for i in cos])
            acc += np.einsum("ij,ij->j", w[: len(cos)], ph.real)
            acc += np.einsum("ij,ij->j", w[len(cos):], ph.imag[: len(idx) - len(cos)])
        return acc

    def _check_mode_count(self, count: int) -> None:
        if count != len(self.modes):
            raise ValueError(f"{count} entries for the {len(self.modes)} modes of "
                             f"torus_modes({self.dimension}, {self.cutoff})")


@dataclass(frozen=True)
class StripField(_OnTorusModes):
    """Per-mode samples f_kappa(j) on hyperplanes t = j_min, j_min+1, ...

    ``samples`` is complex with one row per hyperplane and one column per
    mode of :attr:`modes`, all finite; ValueError otherwise.  Real-valued
    fields satisfy f_{-kappa} = conj(f_kappa).
    """

    dimension: int  # n - 1
    smoothness: int
    cutoff: int
    j_min: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        check_samples(self.samples)
        self._check_mode_count(self.samples.shape[1])

    @property
    def j_max(self) -> int:
        return self.j_min + self.samples.shape[0] - 1


@dataclass(frozen=True)
class SyntheticStripField(_OnTorusModes):
    """Ground-truth generator: complex V_0 coefficients, one row per mode of
    :attr:`modes`."""

    dimension: int
    smoothness: int
    cutoff: int
    i_min: int
    coeffs: np.ndarray  # complex, (n_modes, n_i)

    def __post_init__(self) -> None:
        check_samples(self.coeffs, "coefficients")
        self._check_mode_count(len(self.coeffs))

    def eval(self, t, ys) -> np.ndarray:
        """Real field values Re sum_kappa c_kappa(t_q) e^{i y_q.kappa} at
        (t_q, y_q), checked as in :func:`reconstruct_strip`: the field itself
        for conjugate-symmetric coefficients."""
        return channel_values(self, *check_channel_queries(t, ys))

    def plane_field(self, j_min: int, j_max: int) -> StripField:
        samples = channel_samples(self, j_min, j_max)
        return StripField(self.dimension, self.smoothness, self.cutoff, j_min, samples)


def random_strip_field(
    rng: np.random.Generator,
    dimension: int = 2,
    p: int = 1,
    cutoff: int = 4,
    j_min: int = -8,
    j_max: int = 8,
) -> SyntheticStripField:
    """Random conjugate-symmetric generator supported inside the plane range.

    Coefficients occupy i in [j_min, j_max - 2p] so hyperplane traces vanish
    outside [j_min, j_max] and the finite plane set is complete cardinal data.
    Raises :class:`~polyshannon.shannon1d.NarrowGridError` when the range
    is shorter than the spline order 2p.
    """
    n_i = coefficient_count(j_min, j_max, 2 * p)
    modes = torus_modes(dimension, cutoff)
    coeffs = np.zeros((len(modes), n_i), dtype=complex)
    index = {kappa: i for i, kappa in enumerate(modes)}
    for i, kappa in enumerate(modes):
        neg = tuple(-c for c in kappa)
        if kappa == neg:  # kappa = 0: real profile
            coeffs[i] = rng.uniform(-1.0, 1.0, size=n_i)
        elif kappa > neg:
            coeffs[i] = rng.uniform(-1.0, 1.0, size=n_i) + 1j * rng.uniform(
                -1.0, 1.0, size=n_i
            )
            coeffs[index[neg]] = np.conj(coeffs[i])
    return SyntheticStripField(dimension, p, cutoff, j_min, coeffs)


# --------------------------------------------------------------------------
# torus analysis / synthesis
# --------------------------------------------------------------------------

def analyze_torus(
    values: np.ndarray,
    dimension: int,
    cutoff: int,
    smoothness: int,
    j_min: int,
) -> StripField:
    """Discrete Fourier analysis of hyperplane traces into a StripField.

    ``values`` has shape (planes, G, ..., G) with the per-plane torus grid a
    power of two of size >= 2*cutoff + 2 in each of ``dimension`` axes.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != dimension + 1:
        raise ValueError(f"expected {dimension + 1}-dimensional value array")
    grid_shape = values.shape[1:]
    g = grid_shape[0]
    if any(s != g for s in grid_shape):
        raise ValueError("torus grid must be the same size in every axis")
    if g & (g - 1) != 0 or g < 2 * cutoff + 2:
        raise ValueError(
            f"torus grid size must be a power of two >= {2 * cutoff + 2}"
        )
    modes = torus_modes(dimension, cutoff)
    spectra = np.fft.fftn(values, axes=tuple(range(1, dimension + 1))) / g**dimension
    samples = spectra[(slice(None),) + tuple(np.asarray(modes).T % g)]
    return StripField(dimension, smoothness, cutoff, j_min, samples)


def synthesize_torus(fld: StripField, plane: int, ys) -> np.ndarray:
    """Evaluate one hyperplane's trace at torus points ``ys`` (real output)."""
    if not fld.j_min <= plane <= fld.j_max:
        raise ValueError(f"plane {plane} outside [{fld.j_min}, {fld.j_max}]")
    y_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    phases = _TorusPhases(y_arr, fld.dimension, fld.cutoff)(fld.modes)
    return (fld.samples[plane - fld.j_min] @ phases).real


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def reconstruct_strip(
    fld: StripField,
    t,
    ys,
    kernel: Callable[[SpectrumVector], KernelTable] | None = None,
) -> np.ndarray:
    """Mode-wise Shannon reconstruction at (t_q, y_q), real: the real part of
    the complex mode sum, computed in the cos/sin basis of the +-kappa pairs.

    :func:`~polyshannon.shannon1d.channel_series` over the |kappa| groups:
    exact in V_0 to roundoff by default, the paper's Shannon series on the
    tables ``kernel(spectrum)`` (e.g. through :func:`strip_kernel`) when
    ``kernel`` is given.  Raises ValueError on NaN or infinite samples,
    ``t`` or ``ys``, on a count mismatch between them, and on torus points
    without ``dimension`` coordinates.
    """
    return channel_series(fld, *check_channel_queries(t, ys), kernel)

"""Reconstruction of polyharmonic fields from data on parallel hyperplanes.

A field on R x T^{n-1} (periodic in the transverse variables) that is
piecewise polyharmonic on every strip j < t < j+1 splits over torus Fourier
modes kappa in Z^{n-1}: each mode profile f_kappa(t) is a cardinal
exponential spline for the symmetric spectrum {+-|kappa|, each with
multiplicity p}, coming from the operator (d^2/dt^2 - |kappa|^2)^p.
Reconstruction from hyperplane traces t = j is therefore a 1-D Shannon
cardinal series per mode followed by a Fourier resum in y.

Symmetric spectra always satisfy the non-zero sampling condition, so every
mode kernel exists.  The kernel depends on kappa only through |kappa|, so the
modes are grouped by |kappa|^2 (an exact integer for integer kappa, avoiding
floating-point key drift between, say, (3,4) and (5,0)): reconstruction makes
one :func:`~polyshannon.shannon1d.cardinal_series` call per group and resums
it against the torus phases e^{i y.kappa} of the group's modes, and the
synthetic generator evaluates its TB translates once per group.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .shannon1d import (
    KernelTable,
    cardinal_series,
    check_cardinal_data,
    synthesize_kernel,
    tb_superposition,
)
from .spectrum import SpectrumVector, strip_spectrum
from .spherical import (
    _finite_samples, _number_rows, _read_binary_field, _read_text_field,
)

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


def torus_modes(dimension: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """All kappa in Z^dimension with |kappa| <= cutoff, in canonical order.

    Sorted by (|kappa|^2, lexicographic): deterministic, starts at 0, closed
    under negation.
    """
    if dimension < 1:
        raise ValueError("torus dimension must be positive")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    modes = [
        kappa
        for kappa in itertools.product(range(-cutoff, cutoff + 1), repeat=dimension)
        if sum(c * c for c in kappa) <= cutoff * cutoff
    ]
    modes.sort(key=lambda kappa: (sum(c * c for c in kappa), kappa))
    return tuple(modes)


def _norm_key(k: float) -> float:
    """Cache key |kappa|^2 rounded to kill last-bit drift in sqrt routes."""
    return round(k * k, 9)


def _norm_groups(modes, active) -> dict[float, list[int]]:
    """Indices of the modes flagged in ``active``, grouped by |kappa|^2 key."""
    groups: dict[float, list[int]] = {}
    for i, kappa in enumerate(modes):
        if active[i]:
            groups.setdefault(_norm_key(math.hypot(*kappa)), []).append(i)
    return groups


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

_STRIP_MAGIC = b"PSSF"
_STRIP_HEAD = "<4sHHIIIiQQ"


@dataclass(frozen=True)
class StripField:
    """Per-mode samples f_kappa(j) on hyperplanes t = j_min, j_min+1, ...

    ``modes`` lists the kappa multi-indices (canonical torus_modes order);
    ``samples`` is complex with one row per hyperplane, one column per mode.
    Real-valued fields satisfy f_{-kappa} = conj(f_kappa).
    """

    dimension: int  # n - 1
    smoothness: int
    cutoff: int
    j_min: int
    modes: tuple[tuple[int, ...], ...]
    samples: np.ndarray
    generator: "SyntheticStripField | None" = field(default=None, compare=False)

    @property
    def j_max(self) -> int:
        return self.j_min + self.samples.shape[0] - 1

    def is_conjugate_symmetric(self, tol: float = 1e-12) -> bool:
        lookup = {kappa: i for i, kappa in enumerate(self.modes)}
        scale = max(1.0, float(np.max(np.abs(self.samples))))
        for kappa, i in lookup.items():
            j = lookup[tuple(-c for c in kappa)]
            if np.max(np.abs(self.samples[:, i] - np.conj(self.samples[:, j]))) > tol * scale:
                return False
        return True

    def save_text(self, path) -> None:
        """`key value` header, mode lines, then one line per hyperplane of
        interleaved re/im ``repr`` floats (exact round-trip)."""
        lines = [
            "polyshannon-field 1",
            "kind strip",
            f"dim {self.dimension}",
            f"p {self.smoothness}",
            f"K {self.cutoff}",
            f"j_min {self.j_min}",
            f"planes {self.samples.shape[0]}",
            f"modes {len(self.modes)}",
        ]
        for kappa in self.modes:
            lines.append(" ".join(str(c) for c in kappa))
        for row in self.samples:
            re_im = np.column_stack([row.real, row.imag]).ravel()
            lines.append(" ".join(repr(float(v)) for v in re_im))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load_text(cls, path) -> "StripField":
        """Read :meth:`save_text` output; ValueError on any malformed file."""
        head, body = _read_text_field(
            path, "strip", ("dim", "p", "K", "j_min", "planes", "modes")
        )
        n_modes, n_planes = head["modes"], head["planes"]
        kappas = _number_rows(body[:n_modes], n_modes, head["dim"], int, path)
        flat = _finite_samples(
            _number_rows(body[n_modes:], n_planes, 2 * n_modes, float, path), path
        )
        return cls(
            dimension=head["dim"],
            smoothness=head["p"],
            cutoff=head["K"],
            j_min=head["j_min"],
            modes=tuple(tuple(int(c) for c in row) for row in kappas),
            samples=flat[:, 0::2] + 1j * flat[:, 1::2],
        )

    def save_binary(self, path) -> None:
        """Binary form: magic "PSSF", u16 version=1, u16 pad, u32 dim, u32 p,
        u32 K, i32 j_min, u64 planes, u64 modes; then the mode multi-indices
        as i32s; then the row-major complex128 matrix."""
        head = struct.pack(
            _STRIP_HEAD,
            _STRIP_MAGIC, 1, 0,
            self.dimension, self.smoothness, self.cutoff,
            self.j_min, self.samples.shape[0], len(self.modes),
        )
        mode_bytes = np.asarray(self.modes, dtype="<i4").tobytes()
        data = np.ascontiguousarray(self.samples, dtype="<c16").tobytes()
        Path(path).write_bytes(head + mode_bytes + data)

    @classmethod
    def load_binary(cls, path) -> "StripField":
        """Read :meth:`save_binary` output; ValueError on any malformed file."""
        (_, dim, p, cutoff, j_min, n_planes, n_modes), data = _read_binary_field(
            path, _STRIP_MAGIC, _STRIP_HEAD
        )
        size = 4 * n_modes * dim + 16 * n_planes * n_modes
        if len(data) != size:
            raise ValueError(
                f"field file {path} holds {len(data)} body bytes, "
                f"its header says {size}"
            )
        off = 4 * n_modes * dim
        kap = np.frombuffer(data[:off], dtype="<i4").reshape(n_modes, dim)
        samples = np.frombuffer(data[off:], dtype="<c16").reshape(n_planes, n_modes)
        return cls(
            dimension=dim, smoothness=p, cutoff=cutoff, j_min=j_min,
            modes=tuple(tuple(int(c) for c in row) for row in kap),
            samples=_finite_samples(samples.copy(), path),
        )


@dataclass(frozen=True)
class SyntheticStripField:
    """Ground-truth generator: complex V_0 coefficients per torus mode."""

    dimension: int
    smoothness: int
    cutoff: int
    i_min: int
    modes: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray  # complex, (n_modes, n_i)

    def _profile_matrix(self, t: np.ndarray) -> np.ndarray:
        """(n_modes, len(t)) complex mode profiles at t.

        Modes of one |kappa| share a spectrum, so the TB translates are
        evaluated once per distinct |kappa|.
        """
        out = np.zeros((len(self.modes), len(t)), dtype=complex)
        groups = _norm_groups(self.modes, np.any(self.coeffs, axis=1))
        for key, idx in groups.items():
            sv = strip_spectrum(math.sqrt(key), self.smoothness)
            out[idx] = tb_superposition(sv, self.i_min, self.coeffs[idx], t)
        return out

    def eval(self, t, ys) -> np.ndarray:
        """Field values at (t_q, y_q); real for conjugate-symmetric coefficients."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        y_arr = np.atleast_2d(np.asarray(ys, dtype=float))
        profiles = self._profile_matrix(t_arr)
        acc = np.zeros(len(t_arr), dtype=complex)
        for i, kappa in enumerate(self.modes):
            if np.any(self.coeffs[i]):
                acc += profiles[i] * np.exp(1j * (y_arr @ np.asarray(kappa)))
        return acc.real

    def plane_field(self, j_min: int, j_max: int) -> StripField:
        js = np.arange(j_min, j_max + 1, dtype=float)
        samples = self._profile_matrix(js).T.copy()
        return StripField(
            dimension=self.dimension, smoothness=self.smoothness,
            cutoff=self.cutoff, j_min=j_min, modes=self.modes,
            samples=samples, generator=self,
        )

    def plane_grid_values(self, j_min: int, j_max: int, grid_size: int) -> np.ndarray:
        """Sampled traces on uniform torus grids: (planes, grid_size^dim) shaped."""
        ys_1d = 2.0 * math.pi * np.arange(grid_size) / grid_size
        mesh = np.stack(
            np.meshgrid(*([ys_1d] * self.dimension), indexing="ij"), axis=-1
        ).reshape(-1, self.dimension)
        js = np.arange(j_min, j_max + 1, dtype=float)
        vals = self.eval(np.repeat(js, len(mesh)), np.tile(mesh, (len(js), 1)))
        return vals.reshape((len(js),) + (grid_size,) * self.dimension)


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
    """
    order = 2 * p
    if j_max - order < j_min:
        raise ValueError("j-range too narrow for the spline order")
    modes = torus_modes(dimension, cutoff)
    n_i = j_max - order - j_min + 1
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
    return SyntheticStripField(
        dimension=dimension, smoothness=p, cutoff=cutoff, i_min=j_min,
        modes=modes, coeffs=coeffs,
    )


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
    samples = np.empty((values.shape[0], len(modes)), dtype=complex)
    for i, kappa in enumerate(modes):
        idx = tuple(c % g for c in kappa)
        samples[:, i] = spectra[(slice(None),) + idx]
    return StripField(
        dimension=dimension, smoothness=smoothness, cutoff=cutoff,
        j_min=j_min, modes=modes, samples=samples,
    )


def synthesize_torus(fld: StripField, plane: int, ys) -> np.ndarray:
    """Evaluate one hyperplane's trace at torus points ``ys`` (real output)."""
    if not fld.j_min <= plane <= fld.j_max:
        raise ValueError(f"plane {plane} outside [{fld.j_min}, {fld.j_max}]")
    y_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    phases = np.exp(1j * (y_arr @ np.asarray(fld.modes).T))
    return (phases @ fld.samples[plane - fld.j_min]).real


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def _reconstruct_complex(
    fld: StripField,
    t,
    ys,
    kernel: Callable[[SpectrumVector], KernelTable] | None = None,
) -> np.ndarray:
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    y_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    if y_arr.shape[0] != t_arr.shape[0]:
        raise ValueError("need one torus point per t value")
    check_cardinal_data(fld.samples, fld.j_min, t_arr)
    acc = np.zeros(len(t_arr), dtype=complex)
    for key, idx in _norm_groups(fld.modes, np.any(fld.samples, axis=0)).items():
        k, p = math.sqrt(key), fld.smoothness
        tab = kernel(strip_spectrum(k, p)) if kernel else strip_kernel(k, p)
        profiles = cardinal_series(tab, fld.j_min, fld.samples[:, idx].T, t_arr)
        for profile, i in zip(profiles, idx):
            acc += profile * np.exp(1j * (y_arr @ np.asarray(fld.modes[i])))
    return acc


def reconstruct_strip(
    fld: StripField,
    t,
    ys,
    kernel: Callable[[SpectrumVector], KernelTable] | None = None,
) -> np.ndarray:
    """Mode-wise Shannon reconstruction at (t_q, y_q); real part returned.

    Modes sharing |kappa| share one kernel table and one cardinal series;
    the imaginary residue of a conjugate-symmetric field is roundoff-level.
    ``kernel`` maps a mode spectrum to its table (default:
    :func:`strip_kernel` on the default grid).  Raises ValueError on NaN or
    infinite samples or ``t``.
    """
    return _reconstruct_complex(fld, t, ys, kernel).real

"""Reconstruction of polyharmonic fields from data on parallel hyperplanes.

A field on R x T^{n-1} (periodic in the transverse variables) that is
piecewise polyharmonic on every strip j < t < j+1 splits over torus Fourier
modes kappa in Z^{n-1}: each mode profile f_kappa(t) is a cardinal
exponential spline for the symmetric spectrum {+-|kappa|, each with
multiplicity p}, coming from the operator (d^2/dt^2 - |kappa|^2)^p.
Reconstruction from hyperplane traces t = j is therefore a 1-D Shannon
cardinal series per mode followed by a Fourier resum in y.

Symmetric spectra always satisfy the non-zero sampling condition, so every
mode kernel exists; the kernel depends on kappa only through |kappa| and is
cached per |kappa|^2 (an exact integer for integer kappa, avoiding
floating-point key drift between, say, (3,4) and (5,0)).
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .shannon1d import KernelTable, SamplingGrid, synthesize_kernel, tb_superposition
from .spectrum import SpectrumVector, strip_spectrum
from .spherical import BoundaryTailWarning

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


@functools.lru_cache(maxsize=None)
def _strip_kernel_cached(
    ksq: float, p: int, per_unit: int, span: int, half_width: int
) -> KernelTable:
    sv = strip_spectrum(math.sqrt(ksq), p)
    return synthesize_kernel(sv, SamplingGrid(per_unit, span), half_width)


def strip_kernel(
    k: float,
    p: int,
    per_unit: int = 64,
    span: int = 256,
    half_width: int = 30,
) -> KernelTable:
    """Shannon-type kernel for the transverse frequency magnitude |kappa| = k."""
    return _strip_kernel_cached(_norm_key(k), p, per_unit, span, half_width)


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

_STRIP_MAGIC = b"PSSF"


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
            parts = []
            for v in row:
                parts.append(repr(float(v.real)))
                parts.append(repr(float(v.imag)))
            lines.append(" ".join(parts))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load_text(cls, path) -> "StripField":
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0].strip() != "polyshannon-field 1":
            raise ValueError(f"not a polyshannon field file: {path}")
        header = {}
        for ln in lines[1:8]:
            key, value = ln.split(maxsplit=1)
            header[key] = value
        if header.get("kind") != "strip":
            raise ValueError("field kind mismatch: expected strip data")
        n_planes = int(header["planes"])
        n_modes = int(header["modes"])
        mode_lines = lines[8 : 8 + n_modes]
        modes = tuple(tuple(int(tok) for tok in ln.split()) for ln in mode_lines)
        rows = []
        for ln in lines[8 + n_modes : 8 + n_modes + n_planes]:
            flat = np.array([float(tok) for tok in ln.split()])
            rows.append(flat[0::2] + 1j * flat[1::2])
        return cls(
            dimension=int(header["dim"]),
            smoothness=int(header["p"]),
            cutoff=int(header["K"]),
            j_min=int(header["j_min"]),
            modes=modes,
            samples=np.vstack(rows),
        )

    def save_binary(self, path) -> None:
        """Binary form: magic "PSSF", u16 version=1, u16 pad, u32 dim, u32 p,
        u32 K, i32 j_min, u64 planes, u64 modes; then the mode multi-indices
        as i32s; then the row-major complex128 matrix."""
        head = struct.pack(
            "<4sHHIIIiQQ",
            _STRIP_MAGIC, 1, 0,
            self.dimension, self.smoothness, self.cutoff,
            self.j_min, self.samples.shape[0], len(self.modes),
        )
        mode_bytes = np.asarray(self.modes, dtype="<i4").tobytes()
        data = np.ascontiguousarray(self.samples, dtype="<c16").tobytes()
        Path(path).write_bytes(head + mode_bytes + data)

    @classmethod
    def load_binary(cls, path) -> "StripField":
        raw = Path(path).read_bytes()
        head_size = struct.calcsize("<4sHHIIIiQQ")
        magic, version, _, dim, p, cutoff, j_min, n_planes, n_modes = struct.unpack(
            "<4sHHIIIiQQ", raw[:head_size]
        )
        if magic != _STRIP_MAGIC or version != 1:
            raise ValueError(f"not a binary strip field file: {path}")
        off = head_size
        kap = np.frombuffer(raw[off:], dtype="<i4", count=n_modes * dim)
        modes = tuple(tuple(int(c) for c in row) for row in kap.reshape(n_modes, dim))
        off += 4 * n_modes * dim
        samples = (
            np.frombuffer(raw[off:], dtype="<c16", count=n_planes * n_modes)
            .reshape(n_planes, n_modes)
            .copy()
        )
        return cls(
            dimension=dim, smoothness=p, cutoff=cutoff, j_min=j_min,
            modes=modes, samples=samples,
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

    def spectrum(self, mode_index: int) -> SpectrumVector:
        kappa = self.modes[mode_index]
        return strip_spectrum(math.sqrt(_norm_key(math.hypot(*kappa))), self.smoothness)

    def profile(self, mode_index: int, t) -> np.ndarray:
        return tb_superposition(
            self.spectrum(mode_index), self.i_min, self.coeffs[mode_index], t
        )

    def eval(self, t, ys) -> np.ndarray:
        """Field values at (t_q, y_q); real for conjugate-symmetric coefficients."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        y_arr = np.atleast_2d(np.asarray(ys, dtype=float))
        acc = np.zeros(len(t_arr), dtype=complex)
        for i, kappa in enumerate(self.modes):
            if np.any(self.coeffs[i]):
                acc += self.profile(i, t_arr) * np.exp(1j * (y_arr @ np.asarray(kappa)))
        return acc.real

    def plane_field(self, j_min: int, j_max: int) -> StripField:
        js = np.arange(j_min, j_max + 1, dtype=float)
        samples = np.empty((len(js), len(self.modes)), dtype=complex)
        for i in range(len(self.modes)):
            samples[:, i] = self.profile(i, js)
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
        out = np.empty((len(js),) + (grid_size,) * self.dimension)
        for row, j in enumerate(js):
            vals = self.eval(np.full(mesh.shape[0], j), mesh)
            out[row] = vals.reshape((grid_size,) * self.dimension)
        return out


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
    row = fld.samples[plane - fld.j_min]
    acc = np.zeros(y_arr.shape[0], dtype=complex)
    for i, kappa in enumerate(fld.modes):
        if row[i] != 0.0:
            acc += row[i] * np.exp(1j * (y_arr @ np.asarray(kappa)))
    return acc.real


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def _reconstruct_complex(
    fld: StripField,
    t,
    ys,
    per_unit: int = 64,
    span: int = 256,
    half_width: int = 30,
) -> np.ndarray:
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    y_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    if y_arr.shape[0] != t_arr.shape[0]:
        raise ValueError("need one torus point per t value")
    lo, hi = fld.j_min + 2, fld.j_max - 2
    if np.any(t_arr < lo) or np.any(t_arr > hi):
        warnings.warn(
            f"query t leaves [{lo}, {hi}]: kernel tails truncated by the "
            "hyperplane range",
            BoundaryTailWarning,
            stacklevel=2,
        )
    js = np.arange(fld.j_min, fld.j_max + 1)
    weight_cache: dict[float, np.ndarray] = {}
    acc = np.zeros(len(t_arr), dtype=complex)
    for i, kappa in enumerate(fld.modes):
        col = fld.samples[:, i]
        if not np.any(col):
            continue
        key = _norm_key(math.hypot(*kappa))
        if key not in weight_cache:
            tab = strip_kernel(math.sqrt(key), fld.smoothness, per_unit, span,
                               half_width)
            weight_cache[key] = np.stack([tab(t_arr - j) for j in js])
        radial = col @ weight_cache[key]
        acc += radial * np.exp(1j * (y_arr @ np.asarray(kappa)))
    return acc


def reconstruct_strip(
    fld: StripField,
    t,
    ys,
    per_unit: int = 64,
    span: int = 256,
    half_width: int = 30,
) -> np.ndarray:
    """Mode-wise Shannon reconstruction at (t_q, y_q); real part returned.

    Modes sharing |kappa| reuse one kernel table and one weight matrix; the
    imaginary residue of a conjugate-symmetric field is roundoff-level.
    """
    return _reconstruct_complex(fld, t, ys, per_unit, span, half_width).real

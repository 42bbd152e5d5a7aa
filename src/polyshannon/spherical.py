"""Reconstruction of polyharmonic splines from data on spheres of radii e^j.

A field that is piecewise polyharmonic (Delta^p u = 0 between consecutive
spheres r = e^j) with maximal smoothness across them splits, in spherical
harmonics, into independent degree-k channels.  In the log-radius variable
v = log r each channel profile is a cardinal exponential spline whose
frequencies are the homogeneity exponents

    {k + 2i} u {2 - n - k + 2i},   i = 0..p-1,

so reconstruction from sphere data is: analyze each sphere in an orthonormal
real harmonic basis, run the 1-D Shannon-type cardinal series per channel
with the kernel of that channel's spectrum, and resum.  This module supplies
the sphere quadrature (Gauss-Legendre colatitudes x uniform longitudes),
the real harmonics, the per-degree kernels, the truncated zonal kernel, the
mode-wise and quadrature-form reconstructions, and field containers with
documented on-disk formats.

Only n = 3 harmonics are implemented; the radial machinery accepts any
n >= 2 (confluent spectra included).
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import eval_legendre, lpmv

from .shannon1d import KernelTable, SamplingGrid, sampled_symbol, synthesize_kernel, tb_superposition
from .spectrum import SpectrumVector, radial_spectrum
from .tbspline import tb_fourier

__all__ = [
    "BoundaryTailWarning",
    "DecayRow",
    "PolysplineField",
    "ShannonPolysplineKernel",
    "SphereGrid",
    "SyntheticPolyspline",
    "analyze_sphere",
    "decay_check",
    "mode_count",
    "mode_degree",
    "radial_kernel",
    "random_polyspline_field",
    "reconstruct_spherical",
    "reconstruct_spherical_integral",
    "sph_harm",
    "sph_index",
    "synthesize_directions",
    "synthesize_sphere",
    "zonal",
]

_SQRT2 = math.sqrt(2.0)

DEGREE_CAP = 32  # cancellation guard for the radial spectra


class BoundaryTailWarning(UserWarning):
    """Query radius too close to the sampled shell boundary; tail truncated."""


# --------------------------------------------------------------------------
# real spherical harmonics (n = 3)
# --------------------------------------------------------------------------

def sph_index(k: int, ell: int) -> int:
    """Flat index of the order-ell harmonic of degree k (ell = 1..2k+1)."""
    if not 1 <= ell <= 2 * k + 1:
        raise ValueError(f"order must lie in 1..{2*k+1}, got {ell}")
    return k * k + ell - 1


def mode_count(degree_max: int) -> int:
    return (degree_max + 1) ** 2


def mode_degree(index: int) -> tuple[int, int]:
    """Inverse of :func:`sph_index`: flat index -> (degree, order)."""
    k = math.isqrt(index)
    return k, index - k * k + 1


def _assoc_norm(k: int, m: int) -> float:
    return math.sqrt(
        (2 * k + 1) / (4.0 * math.pi)
        * math.exp(math.lgamma(k - m + 1) - math.lgamma(k + m + 1))
    )


def sph_harm(k: int, ell: int, direction):
    """Real orthonormal spherical harmonic Y_{k,ell} at unit vector(s).

    Orders ell = 1..2k+1 map to azimuthal numbers m = ell - k - 1: negative m
    are the sine harmonics, m = 0 the zonal one, positive m the cosines.
    Directions of non-unit length are normalized.
    """
    if not 1 <= ell <= 2 * k + 1:
        raise ValueError(f"order must lie in 1..{2*k+1}, got {ell}")
    d = np.asarray(direction, dtype=float)
    scalar = d.ndim == 1
    d = np.atleast_2d(d)
    norms = np.linalg.norm(d, axis=-1)
    ct = np.clip(d[..., 2] / norms, -1.0, 1.0)
    phi = np.arctan2(d[..., 1], d[..., 0])
    m = ell - k - 1
    am = abs(m)
    vals = _assoc_norm(k, am) * lpmv(am, k, ct)
    if m > 0:
        vals = _SQRT2 * vals * np.cos(m * phi)
    elif m < 0:
        vals = _SQRT2 * vals * np.sin(am * phi)
    return float(vals[0]) if scalar else vals


def zonal(k: int, cos_gamma):
    """Zonal harmonic Z_k: reproducing kernel of degree k, ((2k+1)/4pi) P_k."""
    return (2 * k + 1) / (4.0 * math.pi) * eval_legendre(k, cos_gamma)


# --------------------------------------------------------------------------
# quadrature grid
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _grid_arrays(degree_max: int):
    x, w = np.polynomial.legendre.leggauss(degree_max + 1)
    n_phi = 2 * degree_max + 2
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    for arr in (x, w, phi):
        arr.flags.writeable = False
    return x, w, phi


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature on S^2 exact through harmonic degree 2K+1.

    Colatitudes are the K+1 Gauss-Legendre nodes in cos(theta); longitudes
    are 2K+2 equispaced angles, so harmonic products up to degree K are
    integrated exactly.
    """

    degree_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.degree_max <= 64:
            raise ValueError("degree_max must lie in 0..64")

    @property
    def cos_nodes(self) -> np.ndarray:
        return _grid_arrays(self.degree_max)[0]

    @property
    def n_longitudes(self) -> int:
        return 2 * self.degree_max + 2

    def points(self) -> np.ndarray:
        """Unit vectors, shape (K+1, 2K+2, 3)."""
        x, _, phi = _grid_arrays(self.degree_max)
        st = np.sqrt(1.0 - x**2)
        out = np.empty((len(x), len(phi), 3))
        out[..., 0] = st[:, None] * np.cos(phi)[None, :]
        out[..., 1] = st[:, None] * np.sin(phi)[None, :]
        out[..., 2] = x[:, None]
        return out

    def quad_weights(self) -> np.ndarray:
        """Weights integrating over S^2 (total mass 4 pi), shape as points."""
        x, w, phi = _grid_arrays(self.degree_max)
        return np.broadcast_to(
            w[:, None] * (2.0 * math.pi / len(phi)), (len(x), len(phi))
        ).copy()


@functools.lru_cache(maxsize=None)
def _harmonic_table(degree_max: int) -> np.ndarray:
    """Y_{k,ell} sampled on SphereGrid(K) points: ((K+1)^2, K+1, 2K+2)."""
    grid = SphereGrid(degree_max)
    pts = grid.points()
    flat = pts.reshape(-1, 3)
    out = np.empty((mode_count(degree_max),) + pts.shape[:2])
    for idx in range(out.shape[0]):
        k, ell = mode_degree(idx)
        out[idx] = sph_harm(k, ell, flat).reshape(pts.shape[:2])
    out.flags.writeable = False
    return out


def analyze_sphere(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Project sphere-grid samples onto harmonics <= K; returns (K+1)^2 coeffs."""
    values = np.asarray(values, dtype=float)
    table = _harmonic_table(grid.degree_max)
    if values.shape != table.shape[1:]:
        raise ValueError(
            f"expected grid values of shape {table.shape[1:]}, got {values.shape}"
        )
    return np.tensordot(table, values * grid.quad_weights(), axes=2)


def synthesize_sphere(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector on the grid points (adjoint of analyze)."""
    coeffs = np.asarray(coeffs, dtype=float)
    table = _harmonic_table(grid.degree_max)
    if coeffs.shape != (table.shape[0],):
        raise ValueError(f"expected {table.shape[0]} coefficients")
    return np.tensordot(coeffs, table, axes=1)


def synthesize_directions(coeffs: np.ndarray, directions) -> np.ndarray:
    """Evaluate a coefficient vector at arbitrary unit vectors."""
    coeffs = np.asarray(coeffs, dtype=float)
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    out = np.zeros(d.shape[0])
    for idx, c in enumerate(coeffs):
        if c != 0.0:
            k, ell = mode_degree(idx)
            out += c * sph_harm(k, ell, d)
    return out


# --------------------------------------------------------------------------
# per-degree kernels
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def radial_kernel(
    k: int,
    n: int = 3,
    p: int = 1,
    per_unit: int = 64,
    span: int = 256,
    half_width: int = 30,
) -> KernelTable:
    """Shannon-type kernel of the degree-k radial channel, in v = log r."""
    if k > DEGREE_CAP:
        raise ValueError(f"degree {k} beyond the cancellation guard {DEGREE_CAP}")
    sv = radial_spectrum(k, n, p)
    return synthesize_kernel(sv, SamplingGrid(per_unit, span), half_width)


@dataclass(frozen=True)
class DecayRow:
    degree: int
    sup_fourier: float
    sup_time: float


def decay_check(
    n: int,
    p: int,
    k_max: int,
    per_unit: int = 16,
    span: int = 64,
    half_width: int = 24,
) -> list[DecayRow]:
    """Suprema of the channel kernels: |S^_0| over frequency, |S_0| over time.

    The Fourier suprema decay like 1/k while the time suprema stay bounded;
    the acceptance windows check those trends as ratios, since the underlying
    asymptotic constants are not pinned down.
    """
    if not 0 <= k_max <= DEGREE_CAP:
        raise ValueError(f"k_max must lie in 0..{DEGREE_CAP}")
    rows = []
    for k in range(k_max + 1):
        sv = radial_spectrum(k, n, p)
        xi_hi = 2.0 * (sv.max_abs() + 4.0 * math.pi)
        xi = np.linspace(0.0, xi_hi, 8192)
        ratio = np.abs(tb_fourier(sv, xi)) / np.abs(sampled_symbol(sv, xi))
        tab = radial_kernel(k, n, p, per_unit, span, half_width)
        rows.append(
            DecayRow(k, float(np.max(ratio)), float(np.max(np.abs(tab.values))))
        )
    return rows


@dataclass(frozen=True)
class ShannonPolysplineKernel:
    """Degree-truncated zonal reconstruction kernel sum_k S_0^(k)(log r) Z_k."""

    dimension: int
    smoothness: int
    tables: tuple[KernelTable, ...]

    @property
    def degree_max(self) -> int:
        return len(self.tables) - 1

    @classmethod
    def build(
        cls,
        degree_max: int,
        n: int = 3,
        p: int = 1,
        per_unit: int = 64,
        span: int = 256,
        half_width: int = 30,
    ) -> "ShannonPolysplineKernel":
        tabs = tuple(
            radial_kernel(k, n, p, per_unit, span, half_width)
            for k in range(degree_max + 1)
        )
        return cls(dimension=n, smoothness=p, tables=tabs)

    def eval(self, r, cos_gamma):
        """Kernel value at radius ratio r and angular separation cos(gamma)."""
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0 and np.ndim(cos_gamma) == 0
        v = np.log(np.atleast_1d(r_arr))
        cg = np.atleast_1d(np.asarray(cos_gamma, dtype=float))
        v, cg = np.broadcast_arrays(v, cg)
        out = np.zeros(v.shape)
        for k, tab in enumerate(self.tables):
            out += tab(v) * zonal(k, cg)
        return float(out.flat[0]) if scalar else out


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPolyspline:
    """A field given by explicit V_0 coefficients per harmonic channel.

    Channel (k, ell) has log-radius profile sum_i c_i Q_{Lambda_k}(v - i)
    with i starting at ``i_min``; this is the ground-truth generator used to
    manufacture sphere data and to score reconstructions.
    """

    dimension: int
    smoothness: int
    degree_max: int
    i_min: int
    coeffs: np.ndarray  # (mode_count, n_i)

    def spectrum(self, k: int) -> SpectrumVector:
        return radial_spectrum(k, self.dimension, self.smoothness)

    def radial_profile(self, index: int, v):
        k, _ = mode_degree(index)
        return tb_superposition(self.spectrum(k), self.i_min, self.coeffs[index], v)

    def _profile_matrix(self, v: np.ndarray) -> np.ndarray:
        """(mode_count, len(v)) channel profiles at log-radii v.

        All channels of one degree share a spectrum, so the TB translates are
        evaluated once per degree -- this is what keeps dense query sets
        affordable for stiff high-degree spectra.
        """
        out = np.zeros((self.coeffs.shape[0], len(v)))
        for k in range(self.degree_max + 1):
            lo = sph_index(k, 1)
            hi = sph_index(k, 2 * k + 1) + 1
            block = self.coeffs[lo:hi]
            if np.any(block):
                out[lo:hi] = tb_superposition(self.spectrum(k), self.i_min, block, v)
        return out

    def eval(self, r, directions) -> np.ndarray:
        """Field values at radii r (array) and unit vectors (same count)."""
        v = np.log(np.atleast_1d(np.asarray(r, dtype=float)))
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        profiles = self._profile_matrix(v)
        out = np.zeros(len(v))
        for idx in range(self.coeffs.shape[0]):
            if np.any(self.coeffs[idx]):
                k, ell = mode_degree(idx)
                out += profiles[idx] * sph_harm(k, ell, d)
        return out

    def sphere_field(self, j_min: int, j_max: int) -> "PolysplineField":
        js = np.arange(j_min, j_max + 1, dtype=float)
        samples = self._profile_matrix(js).T.copy()
        return PolysplineField(
            dimension=self.dimension,
            smoothness=self.smoothness,
            degree_max=self.degree_max,
            j_min=j_min,
            samples=samples,
            generator=self,
        )


def random_polyspline_field(
    rng: np.random.Generator,
    n: int = 3,
    p: int = 2,
    degree_max: int = 8,
    j_min: int = -6,
    j_max: int = 6,
    active=None,
) -> SyntheticPolyspline:
    """Random generator whose sphere samples vanish outside [j_min, j_max].

    Coefficients occupy i in [j_min, j_max - 2p], so every channel profile is
    supported inside (j_min, j_max): the finite sphere set then carries the
    *complete* cardinal data of the field and reconstruction errors measure
    the kernels alone.  ``active`` optionally restricts the populated flat
    mode indices (all modes by default).
    """
    order = 2 * p
    if j_max - order < j_min:
        raise ValueError("j-range too narrow for the spline order")
    n_modes = mode_count(degree_max)
    n_i = j_max - order - j_min + 1
    coeffs = np.zeros((n_modes, n_i))
    chosen = range(n_modes) if active is None else active
    for idx in chosen:
        coeffs[idx] = rng.uniform(-1.0, 1.0, size=n_i)
    return SyntheticPolyspline(
        dimension=n, smoothness=p, degree_max=degree_max, i_min=j_min,
        coeffs=coeffs,
    )


_FIELD_MAGIC = b"PSPF"


@dataclass(frozen=True)
class PolysplineField:
    """Mode samples f_{k,ell}(e^j) on consecutive spheres j = j_min, ...

    ``samples`` has one row per sphere and one column per flat harmonic
    index.  A synthetic field may carry its generator (not serialized).
    """

    dimension: int
    smoothness: int
    degree_max: int
    j_min: int
    samples: np.ndarray
    generator: SyntheticPolyspline | None = field(default=None, compare=False)

    @property
    def j_max(self) -> int:
        return self.j_min + self.samples.shape[0] - 1

    def save_text(self, path) -> None:
        """Plain-text form: a `key value` header, then one line per sphere
        with (K+1)^2 ``repr`` floats (exact round-trip)."""
        lines = [
            "polyshannon-field 1",
            "kind sphere",
            f"n {self.dimension}",
            f"p {self.smoothness}",
            f"K {self.degree_max}",
            f"j_min {self.j_min}",
            f"spheres {self.samples.shape[0]}",
        ]
        for row in self.samples:
            lines.append(" ".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load_text(cls, path) -> "PolysplineField":
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0].strip() != "polyshannon-field 1":
            raise ValueError(f"not a polyshannon field file: {path}")
        header = {}
        for ln in lines[1:7]:
            key, value = ln.split(maxsplit=1)
            header[key] = value
        if header.get("kind") != "sphere":
            raise ValueError("field kind mismatch: expected sphere data")
        n_spheres = int(header["spheres"])
        degree_max = int(header["K"])
        rows = [
            np.array([float(tok) for tok in ln.split()])
            for ln in lines[7 : 7 + n_spheres]
        ]
        samples = np.vstack(rows)
        if samples.shape[1] != mode_count(degree_max):
            raise ValueError("coefficient count does not match degree header")
        return cls(
            dimension=int(header["n"]),
            smoothness=int(header["p"]),
            degree_max=degree_max,
            j_min=int(header["j_min"]),
            samples=samples,
        )

    def save_binary(self, path) -> None:
        """Binary form: magic "PSPF", u16 version=1, u16 pad, u32 n, u32 p,
        u32 K, i32 j_min, u64 sphere count, then the row-major f64 matrix."""
        head = struct.pack(
            "<4sHHIIIiQ",
            _FIELD_MAGIC, 1, 0,
            self.dimension, self.smoothness, self.degree_max,
            self.j_min, self.samples.shape[0],
        )
        Path(path).write_bytes(
            head + np.ascontiguousarray(self.samples, dtype="<f8").tobytes()
        )

    @classmethod
    def load_binary(cls, path) -> "PolysplineField":
        raw = Path(path).read_bytes()
        head_size = struct.calcsize("<4sHHIIIiQ")
        magic, version, _, n, p, degree_max, j_min, n_spheres = struct.unpack(
            "<4sHHIIIiQ", raw[:head_size]
        )
        if magic != _FIELD_MAGIC or version != 1:
            raise ValueError(f"not a binary polyshannon field file: {path}")
        count = n_spheres * mode_count(degree_max)
        samples = (
            np.frombuffer(raw[head_size:], dtype="<f8", count=count)
            .reshape(n_spheres, mode_count(degree_max))
            .copy()
        )
        return cls(
            dimension=n, smoothness=p, degree_max=degree_max, j_min=j_min,
            samples=samples,
        )


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def _check_boundary(field: PolysplineField, v: np.ndarray) -> None:
    lo, hi = field.j_min + 2, field.j_max - 2
    if np.any(v < lo) or np.any(v > hi):
        scale = float(np.max(np.abs(field.samples))) if field.samples.size else 0.0
        warnings.warn(
            f"query log-radii leave [{lo}, {hi}]: kernel tails truncated by "
            f"the sphere range (data scale {scale:.3g})",
            BoundaryTailWarning,
            stacklevel=3,
        )


def reconstruct_spherical(
    field: PolysplineField,
    r,
    directions,
    per_unit: int = 64,
    span: int = 256,
    half_width: int = 30,
    kernels: tuple[KernelTable, ...] | None = None,
) -> np.ndarray:
    """Mode-wise Shannon reconstruction at radii ``r``, unit vectors ``directions``.

    Each channel runs the 1-D cardinal series over the sphere indices; the
    harmonic sum then reassembles the field.  ``kernels`` may supply
    pre-loaded per-degree tables (degree 0..K) to skip synthesis.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    if d.shape[0] != r_arr.shape[0]:
        raise ValueError("need one direction per radius")
    v = np.log(r_arr)
    _check_boundary(field, v)
    js = np.arange(field.j_min, field.j_max + 1)
    out = np.zeros(len(v))
    for k in range(field.degree_max + 1):
        if kernels is not None:
            tab = kernels[k]
        else:
            tab = radial_kernel(
                k, field.dimension, field.smoothness, per_unit, span, half_width
            )
        idx0, idx1 = k * k, (k + 1) * (k + 1)
        block = field.samples[:, idx0:idx1]
        if not np.any(block):
            continue
        weights = np.stack([tab(v - j) for j in js])  # (n_spheres, n_queries)
        for ell in range(1, 2 * k + 2):
            col = block[:, ell - 1]
            if np.any(col):
                out += (col @ weights) * sph_harm(k, ell, d)
    return out


def reconstruct_spherical_integral(
    field: PolysplineField,
    kernel: ShannonPolysplineKernel,
    grid: SphereGrid,
    r,
    directions,
) -> np.ndarray:
    """The theorem-shaped route: quadrature of the zonal kernel against sphere data.

    sum_j int_{S^2} S_0(r e^{-j}, theta.psi) f(e^j theta) dtheta, with the
    integral replaced by the grid quadrature.  Agrees with the mode-wise
    pipeline once the grid is alias-free for the field's degree content.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    pts = grid.points()
    w = grid.quad_weights()
    sphere_values = [synthesize_sphere(grid, row) for row in field.samples]
    out = np.zeros(len(r_arr))
    for q in range(len(r_arr)):
        cosg = np.tensordot(pts, d[q], axes=(2, 0))
        acc = 0.0
        for row, j in zip(sphere_values, range(field.j_min, field.j_max + 1)):
            acc += float(
                np.sum(w * row * kernel.eval(r_arr[q] * math.exp(-j), cosg))
            )
        out[q] = acc
    return out

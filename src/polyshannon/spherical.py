"""Reconstruction of polyharmonic splines from data on spheres of radii e^j.

A field that is piecewise polyharmonic (Delta^p u = 0 between consecutive
spheres r = e^j) with maximal smoothness across them splits, in spherical
harmonics, into independent degree-k channels.  In the log-radius variable
v = log r each channel profile is a cardinal exponential spline whose
frequencies are the homogeneity exponents

    {k + 2i} u {2 - n - k + 2i},   i = 0..p-1,

so reconstruction from sphere data is: analyze each sphere in an orthonormal
real harmonic basis, run the 1-D Shannon-type cardinal series per channel
for that channel's spectrum, and resum.  The 2k+1 channels of degree k share
one spectrum, so the mode-wise reconstruction makes one series call per
degree and resums it against all harmonics of that degree at once
(:func:`sph_harm_degree`).  The series is evaluated in the coefficient domain
by default (:func:`~polyshannon.shannon1d.spline_series`, exact in V_0 to
roundoff), or on kernel tables through
:func:`~polyshannon.shannon1d.cardinal_series` when a ``kernel`` is given.  This
module supplies the sphere quadrature (Gauss-Legendre colatitudes x uniform
longitudes), the real harmonics, the per-degree kernels, the truncated zonal
kernel, the mode-wise and quadrature-form reconstructions, and field
containers with documented on-disk formats.

Only n = 3 harmonics are implemented, so sphere fields require n = 3; the
radial kernels accept any n >= 2 (confluent spectra included).
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import eval_legendre, sph_legendre_p

from .shannon1d import (
    BoundaryTailWarning,
    KernelTable,
    SamplingGrid,
    cardinal_series,
    check_cardinal_data,
    sampled_symbol,
    spline_series,
    synthesize_kernel,
    tb_superposition,
)
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
    "sph_harm_degree",
    "sph_index",
    "synthesize_directions",
    "synthesize_sphere",
    "zonal",
]

_SQRT2 = math.sqrt(2.0)

DEGREE_CAP = 32  # cancellation guard for the radial spectra


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


def _degree_blocks(rows: np.ndarray):
    """(k, rows[k^2 : (k+1)^2]) for every degree k whose rows are not all zero."""
    for k in range(math.isqrt(len(rows)) + 1):
        block = rows[k * k : (k + 1) ** 2]
        if np.any(block):
            yield k, block


def sph_harm_degree(k: int, direction) -> np.ndarray:
    """All 2k+1 real orthonormal harmonics of degree k at unit vector(s).

    Row ell - 1 holds Y_{k,ell}, shape (2k+1,) + the directions' batch shape.
    Orders ell = 1..2k+1 map to azimuthal numbers m = ell - k - 1: negative m
    are the sine harmonics, m = 0 the zonal one, positive m the cosines.
    Directions of non-unit length are normalized.
    """
    d = np.asarray(direction, dtype=float)
    theta = np.arctan2(np.hypot(d[..., 0], d[..., 1]), d[..., 2])
    phi = np.arctan2(d[..., 1], d[..., 0])
    m = np.arange(k + 1).reshape((-1,) + (1,) * theta.ndim)
    legendre = sph_legendre_p(k, m, theta)[0]  # normalized, all m >= 0 at once
    out = np.empty((2 * k + 1,) + theta.shape)
    out[k] = legendre[0]
    if k:  # in place: one degree's temporaries are what a dense query set holds
        m_phi = m[1:] * phi
        legendre[1:] *= _SQRT2
        np.cos(m_phi, out=out[k + 1 :])
        out[k + 1 :] *= legendre[1:]
        np.sin(m_phi, out=out[k - 1 :: -1])
        out[k - 1 :: -1] *= legendre[1:]
    return out


def sph_harm(k: int, ell: int, direction):
    """Real orthonormal spherical harmonic Y_{k,ell}: row ell - 1 of
    :func:`sph_harm_degree` (float for a single direction)."""
    sph_index(k, ell)  # validates the order
    vals = sph_harm_degree(k, direction)[ell - 1]
    return float(vals) if vals.ndim == 0 else vals


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
    pts = SphereGrid(degree_max).points()
    out = np.empty((mode_count(degree_max),) + pts.shape[:2])
    for k in range(degree_max + 1):
        out[k * k : (k + 1) ** 2] = sph_harm_degree(k, pts)
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
    for k, block in _degree_blocks(coeffs):
        out += block @ sph_harm_degree(k, d)[: len(block)]
    return out


# --------------------------------------------------------------------------
# per-degree kernels
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def radial_kernel(
    k: int, n: int = 3, p: int = 1, grid: SamplingGrid = SamplingGrid()
) -> KernelTable:
    """Shannon-type kernel of the degree-k radial channel, in v = log r."""
    _check_degree(k)
    return synthesize_kernel(radial_spectrum(k, n, p), grid)


def _check_degree(k: int) -> None:
    if k > DEGREE_CAP:
        raise ValueError(f"degree {k} beyond the cancellation guard {DEGREE_CAP}")


@dataclass(frozen=True)
class DecayRow:
    degree: int
    sup_fourier: float
    sup_time: float


def decay_check(
    n: int, p: int, k_max: int, grid: SamplingGrid = SamplingGrid(16, 24)
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
        tab = radial_kernel(k, n, p, grid)
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
    def build(cls, degree_max: int, n: int = 3, p: int = 1) -> "ShannonPolysplineKernel":
        """The kernel from the default-grid :func:`radial_kernel` tables."""
        tabs = tuple(radial_kernel(k, n, p) for k in range(degree_max + 1))
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

    def _degree_profiles(self, v: np.ndarray):
        """(k, (2k+1, len(v)) channel profiles) for each nonzero degree k.

        All channels of one degree share a spectrum, so the TB translates are
        evaluated once per degree -- this is what keeps dense query sets
        affordable for stiff high-degree spectra.
        """
        for k, block in _degree_blocks(self.coeffs):
            yield k, tb_superposition(self.spectrum(k), self.i_min, block, v)

    def eval(self, r, directions) -> np.ndarray:
        """Field values at radii r (array) and unit vectors (same count)."""
        v = np.log(np.atleast_1d(np.asarray(r, dtype=float)))
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        out = np.zeros(len(v))
        for k, profiles in self._degree_profiles(v):
            out += np.einsum("ij,ij->j", profiles, sph_harm_degree(k, d))
        return out

    def sphere_field(self, j_min: int, j_max: int) -> "PolysplineField":
        js = np.arange(j_min, j_max + 1, dtype=float)
        samples = np.zeros((len(js), self.coeffs.shape[0]))
        for k, profiles in self._degree_profiles(js):
            samples[:, k * k : (k + 1) ** 2] = profiles.T
        return PolysplineField(
            dimension=self.dimension,
            smoothness=self.smoothness,
            degree_max=self.degree_max,
            j_min=j_min,
            samples=samples,
            generator=self,
        )


def _check_dimension(n: int) -> None:
    """Sphere fields exist only for n = 3: the harmonics are 3-D, so an
    n-dimensional radial spectrum paired with them is not polyharmonic."""
    if n != 3:
        raise ValueError(f"sphere fields need dimension n = 3, got {n}")


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
    _check_dimension(n)
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
_FIELD_HEAD = "<4sHHIIIiQ"


def _read_text_field(path, kind: str, keys: tuple[str, ...]):
    """(integer header, body lines) of a text field file; ValueError unless it
    has the magic, ``kind`` and ``keys`` lines in order and ends in a newline
    (so a file cut inside its last line is told apart from a whole one)."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0].strip() != "polyshannon-field 1":
        raise ValueError(f"not a polyshannon field file: {path}")
    if len(lines) < 2 or lines[1].split() != ["kind", kind]:
        raise ValueError(f"field kind mismatch: expected {kind} data in {path}")
    if not text.endswith("\n"):
        raise ValueError(f"field file {path} does not end in a newline")
    header = {}
    for i, key in enumerate(keys, start=2):
        parts = lines[i].split() if i < len(lines) else []
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"field file {path}: line {i + 1} must be '{key} <int>'")
        header[key] = int(parts[1])
        if header[key] < 0 and key != "j_min":
            raise ValueError(f"field file {path}: {key} must be nonnegative")
    return header, lines[2 + len(keys) :]


def _read_binary_field(path, magic: bytes, head: str):
    """Unpack the binary header ``head`` of a field file; returns its fields
    after magic and version, and the bytes that follow.  Raises ValueError
    on a short file or a wrong magic or version."""
    raw = Path(path).read_bytes()
    head_size = struct.calcsize(head)
    if len(raw) < head_size:
        raise ValueError(f"field file {path} is shorter than its header")
    found, version, *values = struct.unpack(head, raw[:head_size])
    if found != magic or version != 1:
        raise ValueError(f"not a binary polyshannon field file: {path}")
    return values, raw[head_size:]


def _number_rows(lines, count: int, width: int, dtype, path) -> np.ndarray:
    """Exactly ``count`` lines of ``width`` whitespace-separated numbers each."""
    rows = [ln.split() for ln in lines]
    if len(rows) != count or any(len(row) != width for row in rows):
        raise ValueError(f"field file {path}: expected {count} rows of {width} values")
    return np.array(rows, dtype=dtype).reshape(count, width)


def _finite_samples(samples: np.ndarray, path) -> np.ndarray:
    """``samples``, or ValueError if a loaded value is NaN or infinite."""
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"field file {path} holds NaN or infinite samples")
    return samples


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

    def __post_init__(self) -> None:
        _check_dimension(self.dimension)

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
        """Read :meth:`save_text` output; ValueError on any malformed file."""
        head, body = _read_text_field(
            path, "sphere", ("n", "p", "K", "j_min", "spheres")
        )
        samples = _number_rows(body, head["spheres"], mode_count(head["K"]), float, path)
        return cls(
            dimension=head["n"],
            smoothness=head["p"],
            degree_max=head["K"],
            j_min=head["j_min"],
            samples=_finite_samples(samples, path),
        )

    def save_binary(self, path) -> None:
        """Binary form: magic "PSPF", u16 version=1, u16 pad, u32 n, u32 p,
        u32 K, i32 j_min, u64 sphere count, then the row-major f64 matrix."""
        head = struct.pack(
            _FIELD_HEAD,
            _FIELD_MAGIC, 1, 0,
            self.dimension, self.smoothness, self.degree_max,
            self.j_min, self.samples.shape[0],
        )
        Path(path).write_bytes(
            head + np.ascontiguousarray(self.samples, dtype="<f8").tobytes()
        )

    @classmethod
    def load_binary(cls, path) -> "PolysplineField":
        """Read :meth:`save_binary` output; ValueError on any malformed file."""
        (_, n, p, degree_max, j_min, n_spheres), data = _read_binary_field(
            path, _FIELD_MAGIC, _FIELD_HEAD
        )
        shape = (n_spheres, mode_count(degree_max))
        if len(data) != 8 * shape[0] * shape[1]:
            raise ValueError(
                f"field file {path} holds {len(data)} data bytes, "
                f"its header says {8 * shape[0] * shape[1]}"
            )
        samples = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        return cls(
            dimension=n, smoothness=p, degree_max=degree_max, j_min=j_min,
            samples=_finite_samples(samples, path),
        )


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def reconstruct_spherical(
    field: PolysplineField,
    r,
    directions,
    kernel: Callable[[SpectrumVector], KernelTable] | None = None,
) -> np.ndarray:
    """Mode-wise Shannon reconstruction at radii ``r``, unit vectors ``directions``.

    Each degree runs one 1-D cardinal series over the sphere indices for its
    2k+1 channels; the harmonic sum then reassembles the field.  By default
    the series is evaluated in the coefficient domain
    (:func:`~polyshannon.shannon1d.spline_series`, exact in V_0 to
    roundoff).  ``kernel`` instead maps a channel spectrum to a
    :class:`KernelTable` (e.g. :func:`radial_kernel`, tables loaded from a
    cache, another grid) and runs the paper's Shannon series on it.
    Raises ValueError on NaN or infinite samples, on radii whose log is
    not finite (r <= 0, NaN or inf), and, on either route, on a nonzero
    degree beyond ``DEGREE_CAP``.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    if d.shape[0] != r_arr.shape[0]:
        raise ValueError("need one direction per radius")
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.log(r_arr)
    check_cardinal_data(field.samples, field.j_min, v)
    n, p = field.dimension, field.smoothness
    out = np.zeros(len(v))
    for k, block in _degree_blocks(field.samples.T):
        _check_degree(k)
        sv = radial_spectrum(k, n, p)
        if kernel is not None:
            profiles = cardinal_series(kernel(sv), field.j_min, block, v)
        else:
            profiles = spline_series(sv, field.j_min, block, v)
        out += np.einsum("ij,ij->j", profiles, sph_harm_degree(k, d))
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

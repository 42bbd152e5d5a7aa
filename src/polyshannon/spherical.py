"""Reconstruction of polyharmonic splines from data on spheres of radii e^j.

A field that is piecewise polyharmonic (Delta^p u = 0 between consecutive
spheres r = e^j) with maximal smoothness across them splits, in spherical
harmonics, into independent degree-k channels.  In the log-radius variable
v = log r each channel profile is a cardinal exponential spline whose
frequencies are the homogeneity exponents

    {k + 2i} u {2 - n - k + 2i},   i = 0..p-1,

so reconstruction from sphere data is the channel core of
:mod:`polyshannon.shannon1d`: one 1-D series per degree k for its 2k+1
harmonics, which share that spectrum, then a contraction against the
harmonics.  :class:`_OnHarmonics` gives the core the degree groups, their
spectra (capped at ``DEGREE_CAP``) and the contraction, row by row against
one harmonic stream (:func:`_harmonic_stream`): one azimuthal table for
all orders, stepped from e^{i phi} = (x + i y)/rho without a trig call, and
one normalized associated-Legendre recurrence stepped degree by degree, so
no harmonic table is kept.  The zonal harmonics Z_k need no order m >= 1
and no azimuthal table: they step the Legendre polynomials by their own
three-term recurrence (:func:`_zonal_stream`).  This module also
supplies the sphere quadrature (Gauss-Legendre colatitudes x uniform
longitudes) with its analysis and synthesis, the real harmonics, the
per-degree kernels, the truncated zonal kernel, the quadrature-form
reconstruction, and the in-memory field container :class:`PolysplineField`
(its degree K read from its (K+1)^2 channels).

Only n = 3 harmonics are implemented, so sphere fields require n = 3; the
radial kernels accept any n >= 2 (confluent spectra included).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .shannon1d import (
    BoundaryTailWarning,
    KernelTable,
    SamplingGrid,
    channel_samples,
    channel_series,
    channel_values,
    check_cardinal_data,
    check_channel_queries,
    check_samples,
    coefficient_count,
    sampled_symbol,
    synthesize_kernel,
)
from .spectrum import SpectrumVector, radial_spectrum
from .tbspline import check_queries, tb_fourier

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
    "radial_kernel",
    "random_polyspline_field",
    "reconstruct_spherical",
    "reconstruct_spherical_integral",
    "sph_harm",
    "sph_harm_degree",
    "sph_index",
    "synthesize_directions",
    "synthesize_sphere",
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


def _degree_max(channels: int) -> int:
    """K of (K+1)^2 harmonic channels; ValueError for any other count."""
    root = math.isqrt(channels)
    if channels < 1 or root * root != channels:
        raise ValueError(f"{channels} channels are not (K+1)^2 for any degree K")
    return root - 1


def _harmonic_stream(directions, degree_max: int):
    """Yield (k, (P_k, C, S)) for k = 0..degree_max: the factors of the real
    harmonics of degree k at ``directions`` (batch shape B).

    P_k holds the k+1 orthonormal associated Legendre functions
    P_k^m(cos theta), m = 0..k (Condon-Shortley phase, as scipy's
    ``sph_legendre_p``), shape (k+1,) + B.  C and S hold sqrt(2) cos(m phi)
    and sqrt(2) sin(m phi) for m = 1..degree_max, computed once without a
    trig call: cos theta = z/|d|, sin theta = rho/|d| and e^{i phi} =
    (x + i y)/rho come from the coordinates (rho = |(x, y)|), and
    C_m + i S_m = sqrt(2) e^{i m phi} by repeated multiplication with
    e^{i phi} in real arithmetic, as :class:`~polyshannon.strip._TorusPhases`
    steps its phases.  Directions of any length are normalized; on the
    z-axis phi = 0, and at the zero vector theta = 0 too, as arctan2 gives
    them.  Then Y_{k,k+1+m} = P_k^m C_m, Y_{k,k+1-m} = P_k^m S_m and
    Y_{k,k+1} = P_k^0 (:func:`_order_block`).  P_k is stepped one degree at
    a time (Holmes & Featherstone, J. Geodesy 76, 2002): the diagonal P_k^k
    and the first off-diagonal P_k^{k-1} from P_{k-1}^{k-1}, the lower
    orders by the three-term recurrence in k.  Only the two latest degrees
    are kept, so P directions take O(K P) memory and O(K^2 P) work.  P_k is
    the stream's working state, overwritten two steps later: use it before
    advancing.  Raises ValueError unless the directions have 3 coordinates.
    """
    d = np.asarray(directions, dtype=float)
    if d.shape[-1:] != (3,):
        raise ValueError(f"sphere directions need 3 coordinates, not {d.shape}")
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    rho = np.hypot(x, y)
    length = np.hypot(rho, z)
    # theta = 0 at the zero vector and phi = 0 on the z-axis, as arctan2 gives them
    cos_theta = np.divide(z, length, out=np.ones_like(z), where=length > 0)
    sin_theta = np.divide(rho, length, out=np.zeros_like(z), where=length > 0)
    cos_phi = np.divide(x, rho, out=np.ones_like(x), where=rho > 0)
    sin_phi = np.divide(y, rho, out=np.zeros_like(y), where=rho > 0)
    # sqrt(2) e^{i m phi} = sqrt(2) e^{i (m-1) phi} e^{i phi}, m = 1..degree_max;
    # [m, ...] stays an array for a single direction
    cos_m, sin_m = np.empty((2, degree_max) + cos_phi.shape)
    np.multiply(cos_phi, _SQRT2, out=cos_m[:1])
    np.multiply(sin_phi, _SQRT2, out=sin_m[:1])
    term = np.empty_like(cos_phi)
    for m in range(1, degree_max):
        np.multiply(cos_m[m - 1], cos_phi, out=cos_m[m, ...])
        cos_m[m] -= np.multiply(sin_m[m - 1], sin_phi, out=term)
        np.multiply(sin_m[m - 1], cos_phi, out=sin_m[m, ...])
        sin_m[m] += np.multiply(cos_m[m - 1], sin_phi, out=term)
    # between steps only the azimuthal tables and the two latest degrees stay alive
    del x, y, z, rho, length, cos_phi, sin_phi, term
    # degree k lives in buffers[k % 2][:k + 1]; scratch holds x P_{k-1}^m
    buffers = np.empty((2, degree_max + 1) + cos_theta.shape)
    scratch = np.empty((max(degree_max - 1, 0),) + cos_theta.shape)
    axes = (1,) * cos_theta.ndim
    buffers[0, 0] = 0.5 / math.sqrt(math.pi)  # P_0^0
    for k in range(degree_max + 1):
        legendre = buffers[k % 2, : k + 1]
        if k:
            prev = buffers[(k - 1) % 2]
            if k >= 2:  # orders m <= k - 2 from degrees k - 1 and k - 2
                scale, older_scale = _legendre_factors(k).reshape((2, -1) + axes)
                lower = np.multiply(prev[: k - 1], cos_theta, out=scratch[: k - 1])
                lower *= scale
                older = legendre[: k - 1]  # degree k - 2, overwritten by degree k
                older *= older_scale
                np.subtract(lower, older, out=older)
            np.multiply(cos_theta, math.sqrt(2 * k + 1), out=legendre[k - 1, ...])
            legendre[k - 1] *= prev[k - 1]
            np.multiply(sin_theta, -math.sqrt((2 * k + 1) / (2 * k)), out=legendre[k, ...])
            legendre[k] *= prev[k - 1]
        yield k, (legendre, cos_m, sin_m)


@functools.lru_cache(maxsize=None)
def _legendre_factors(k: int) -> np.ndarray:
    """(a, b), read-only, of the step P_k^m = a x P_{k-1}^m - b P_{k-2}^m of
    :func:`_harmonic_stream`, k >= 2, m = 0..k-2."""
    m = np.arange(k - 1)
    out = np.sqrt([(4 * k * k - 1) / ((k - m) * (k + m)),
                   (2 * k + 1) * (k + m - 1) * (k - m - 1) / ((k - m) * (k + m) * (2 * k - 3))])
    out.flags.writeable = False
    return out


def _order_block(factors) -> np.ndarray:
    """Y_k, laid out as :func:`sph_harm_degree`, from its stream factors."""
    legendre, cos_m, sin_m = factors
    k = len(legendre) - 1
    out = np.empty((2 * k + 1,) + legendre.shape[1:])
    out[k] = legendre[0]
    if k:
        np.multiply(cos_m[:k], legendre[1:], out=out[k + 1 :])
        np.multiply(sin_m[:k], legendre[1:], out=out[k - 1 :: -1])
    return out


class _OnHarmonics:
    """Rows over the real harmonics of the degrees k <= K: the channels of
    :func:`~polyshannon.shannon1d.channel_series`, grouped by degree."""

    @staticmethod
    def groups(rows: np.ndarray):
        """(k, slice of its 2k+1 rows) for each degree k with a nonzero row."""
        for k in range(math.isqrt(len(rows))):
            idx = slice(k * k, (k + 1) ** 2)
            if np.any(rows[idx]):
                yield k, idx

    def spectrum(self, k: int) -> SpectrumVector:
        """Radial spectrum of degree k; ValueError beyond ``DEGREE_CAP``."""
        _check_degree(k)
        return radial_spectrum(k, self.dimension, self.smoothness)

    @classmethod
    def channels(cls, rows: np.ndarray):
        """(rows, blocks): the rows themselves and their :meth:`groups`."""
        return rows, list(cls.groups(rows))

    @staticmethod
    def contract(blocks, profiles, directions) -> np.ndarray:
        """sum_k sum_ell w_ell Y_{k,ell}(directions) over the (k, rows) blocks,
        w = profiles(n) for block n: 2k+1 rows of one value per direction
        (or one broadcast to all).  The harmonics of one
        :func:`_harmonic_stream` are contracted row by row, never formed, so
        a dense query set holds one degree's profiles beside the stream."""
        out = np.zeros(len(directions))
        live = {k: n for n, (k, _) in enumerate(blocks)}
        stream = _harmonic_stream(directions, max(live, default=0))
        for k, (legendre, cos_m, sin_m) in stream:
            if k not in live:
                continue
            weights = profiles(live[k])
            out += legendre[0] * weights[k]
            for m in range(1, k + 1):
                term = cos_m[m - 1] * weights[k + m]
                term += sin_m[m - 1] * weights[k - m]
                term *= legendre[m]
                out += term
            del weights
        return out


def sph_harm_degree(k: int, direction) -> np.ndarray:
    """All 2k+1 real orthonormal harmonics of degree k at unit vector(s).

    Row ell - 1 holds Y_{k,ell}, shape (2k+1,) + the directions' batch shape.
    Orders ell = 1..2k+1 map to azimuthal numbers m = ell - k - 1: negative m
    are the sine harmonics, m = 0 the zonal one, positive m the cosines.
    Directions of non-unit length are normalized.  Block k of
    :func:`_harmonic_stream`, formed.
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    for _, factors in _harmonic_stream(direction, k):
        pass
    return _order_block(factors)


def sph_harm(k: int, ell: int, direction):
    """Real orthonormal spherical harmonic Y_{k,ell}: row ell - 1 of
    :func:`sph_harm_degree` (float for a single direction)."""
    sph_index(k, ell)  # validates the order
    vals = sph_harm_degree(k, direction)[ell - 1]
    return float(vals) if vals.ndim == 0 else vals


def _zonal_stream(cos_gamma, degree_max: int):
    """Yield (k, Z_k(cos_gamma)), k = 0..degree_max: the zonal harmonic, the
    degree-k reproducing kernel, is (2k+1)/4pi times the Legendre polynomial
    P_k, stepped by Bonnet's recurrence (k+1) P_{k+1} =
    (2k+1) x P_k - k P_{k-1} in the form P_{k+1} = x P_k + k/(k+1) (x P_k -
    P_{k-1}), whose correction term is small near +-1.  ValueError unless
    cos(gamma) is finite, |cos(gamma)| <= 1 + 1e-12 (then clipped)."""
    cg = np.asarray(cos_gamma, dtype=float)
    check_queries(cg)
    if np.any(np.abs(cg) > 1.0 + 1e-12):
        raise ValueError("cos(gamma) must lie in [-1, 1]")
    x = np.clip(cg, -1.0, 1.0)
    older, prev = np.zeros_like(x), np.ones_like(x)
    for k in range(degree_max + 1):
        yield k, (2 * k + 1) / (4.0 * math.pi) * prev
        if k < degree_max:
            xp = x * prev
            older, prev = prev, xp + k / (k + 1) * (xp - older)


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


def analyze_sphere(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Project sphere-grid samples onto harmonics <= K; returns (K+1)^2 coeffs."""
    values = np.asarray(values, dtype=float)
    pts = grid.points()
    if values.shape != pts.shape[:2]:
        raise ValueError(
            f"expected grid values of shape {pts.shape[:2]}, got {values.shape}"
        )
    weighted = values * grid.quad_weights()
    return np.concatenate([
        np.tensordot(_order_block(factors), weighted, axes=2)
        for _, factors in _harmonic_stream(pts, grid.degree_max)
    ])


def synthesize_sphere(grid: SphereGrid, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient vector on the grid points (adjoint of analyze):
    :func:`synthesize_directions` on the flattened grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (mode_count(grid.degree_max),):
        raise ValueError(f"expected {mode_count(grid.degree_max)} coefficients")
    pts = grid.points()
    return synthesize_directions(coeffs, pts.reshape(-1, 3)).reshape(pts.shape[:2])


def synthesize_directions(coeffs: np.ndarray, directions) -> np.ndarray:
    """Evaluate a coefficient vector at arbitrary unit vectors."""
    coeffs = np.asarray(coeffs, dtype=float)
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    full = np.zeros(math.ceil(math.sqrt(len(coeffs))) ** 2)
    full[: len(coeffs)] = coeffs  # a last degree given in part is zero-filled
    rows, blocks = _OnHarmonics.channels(full)
    return _OnHarmonics.contract(blocks, lambda n: rows[blocks[n][1], None], d)


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
    """Degree-truncated zonal reconstruction kernel sum_k S_0^(k)(log r) Z_k,
    one radial table per degree k."""

    tables: tuple[KernelTable, ...]

    @classmethod
    def build(cls, degree_max: int, n: int = 3, p: int = 1) -> "ShannonPolysplineKernel":
        """The kernel from the default-grid :func:`radial_kernel` tables;
        ValueError unless ``degree_max`` is an integer >= 0."""
        if not isinstance(degree_max, (int, np.integer)) or degree_max < 0:
            raise ValueError(f"degree must be an integer >= 0, got {degree_max!r}")
        return cls(tuple(radial_kernel(k, n, p) for k in range(degree_max + 1)))

    def eval(self, r, cos_gamma):
        """Kernel value at radius ratio r and angular separation cos(gamma);
        ValueError unless log r and cos(gamma) are finite, |cos(gamma)| <= 1."""
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0 and np.ndim(cos_gamma) == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.log(np.atleast_1d(r_arr))
        cg = np.atleast_1d(np.asarray(cos_gamma, dtype=float))
        v, cg = np.broadcast_arrays(v, cg)
        check_queries(v)
        out = np.zeros(v.shape)
        for k, values in _zonal_stream(cg, len(self.tables) - 1):
            out += self.tables[k](v) * values
        return float(out.flat[0]) if scalar else out


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPolyspline(_OnHarmonics):
    """A field given by explicit V_0 coefficients per harmonic channel.

    Channel (k, ell) has log-radius profile sum_i c_i Q_{Lambda_k}(v - i)
    with i starting at ``i_min``; this is the ground-truth generator used to
    manufacture sphere data and to score reconstructions.  ``coeffs`` has
    one row per channel of the degrees k <= K.
    """

    dimension: int
    smoothness: int
    i_min: int
    coeffs: np.ndarray  # (mode_count, n_i)

    def __post_init__(self) -> None:
        check_samples(self.coeffs, "coefficients")
        _degree_max(len(self.coeffs))

    @property
    def degree_max(self) -> int:
        return _degree_max(len(self.coeffs))

    def eval(self, r, directions) -> np.ndarray:
        """Field values at radii r (array) and unit vectors (same count),
        checked as in :func:`reconstruct_spherical`, from the translate sums
        of all degrees at once (:func:`~polyshannon.shannon1d.channel_values`)."""
        return channel_values(self, *_sphere_queries(r, directions))

    def sphere_field(self, j_min: int, j_max: int) -> "PolysplineField":
        samples = channel_samples(self, j_min, j_max)
        return PolysplineField(self.dimension, self.smoothness, j_min, samples)


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
) -> SyntheticPolyspline:
    """Random generator whose sphere samples vanish outside [j_min, j_max].

    Coefficients occupy i in [j_min, j_max - 2p], so every channel profile is
    supported inside (j_min, j_max): the finite sphere set then carries the
    *complete* cardinal data of the field and reconstruction errors measure
    the kernels alone.  Raises
    :class:`~polyshannon.shannon1d.NarrowGridError` when the range is
    shorter than the spline order 2p.
    """
    _check_dimension(n)
    n_i = coefficient_count(j_min, j_max, 2 * p)
    coeffs = rng.uniform(-1.0, 1.0, size=(mode_count(degree_max), n_i))
    return SyntheticPolyspline(dimension=n, smoothness=p, i_min=j_min, coeffs=coeffs)


@dataclass(frozen=True)
class PolysplineField(_OnHarmonics):
    """Mode samples f_{k,ell}(e^j) on consecutive spheres j = j_min, ...

    ``samples`` has one row per sphere and one column per flat harmonic
    index of the degrees k <= K, all finite; ValueError otherwise.
    """

    dimension: int
    smoothness: int
    j_min: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        _check_dimension(self.dimension)
        check_samples(self.samples)
        _degree_max(self.samples.shape[1])

    @property
    def degree_max(self) -> int:
        return _degree_max(self.samples.shape[1])

    @property
    def j_max(self) -> int:
        return self.j_min + self.samples.shape[0] - 1


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------

def _sphere_queries(r, directions) -> tuple[np.ndarray, np.ndarray]:
    """Log radii and directions through :func:`check_channel_queries`
    (ValueError also for r <= 0) and ValueError on a zero-length direction."""
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.log(np.atleast_1d(np.asarray(r, dtype=float)))
    v, d = check_channel_queries(v, directions)
    if not np.all(np.any(d, axis=-1)):
        raise ValueError("directions must have nonzero length")
    return v, d


def reconstruct_spherical(
    field: PolysplineField,
    r,
    directions,
    kernel: Callable[[SpectrumVector], KernelTable] | None = None,
) -> np.ndarray:
    """Mode-wise Shannon reconstruction at radii ``r``, unit vectors ``directions``.

    :func:`~polyshannon.shannon1d.channel_series` over the degree groups:
    exact in V_0 to roundoff by default, the paper's Shannon series on the
    tables ``kernel(spectrum)`` (e.g. :func:`radial_kernel`, tables loaded
    from a cache, another grid) when ``kernel`` is given.  Raises ValueError
    on NaN or infinite samples, on bad queries (:func:`_sphere_queries`),
    and on a nonzero degree beyond ``DEGREE_CAP``.
    """
    return channel_series(field, *_sphere_queries(r, directions), kernel)


def reconstruct_spherical_integral(
    field: PolysplineField,
    kernel: ShannonPolysplineKernel,
    grid: SphereGrid,
    r,
    directions,
) -> np.ndarray:
    """The paper's Shannon formula f(r psi) = sum_j int_{S^2} S(r e^{-j},
    theta.psi) f(e^j theta) dtheta, integrated by the ``grid`` quadrature
    against the sphere values the field's harmonic samples synthesize.

    With the weighted values W (J spheres x G points) and the factorization
    S(r e^{-j}, c) = sum_{k<=K} S_0^(k)(log r - j) Z_k(c), it sums the row
    sums of S_0^(k)(log r - j) * (Z_k @ W.T): one :func:`_zonal_stream` pass
    over the P x G query-point cosines, one table call per degree on the
    P x J shifts.  Cost O(K P G J) plus the stream's O(K P G); memory
    O(K P G).  Queries are checked, normalized and warned about as in
    :func:`reconstruct_spherical`.  ValueError unless ``kernel`` has a table
    with the field's spectrum for every degree k <= K (only those are
    summed) and the grid's degree is at least K (exact through 2K).
    """
    v, d = _sphere_queries(r, directions)
    check_cardinal_data(field.samples, field.j_min, v)
    d = d / np.linalg.norm(d, axis=1, keepdims=True)
    degree = field.degree_max
    if len(kernel.tables) <= degree or any(
        kernel.tables[k].spectrum != field.spectrum(k) for k in range(degree + 1)
    ):
        raise ValueError(
            f"kernel tables of degrees 0..{len(kernel.tables) - 1} do not carry "
            f"the radial spectra of degrees 0..{degree} with n = "
            f"{field.dimension}, p = {field.smoothness}"
        )
    if grid.degree_max < degree:
        raise ValueError(
            f"a degree-{grid.degree_max} sphere grid is not exact for a "
            f"degree-{degree} field"
        )
    pts = grid.points().reshape(-1, 3)
    harmonics = [_order_block(f) for _, f in _harmonic_stream(pts, degree)]
    weighted = field.samples @ np.concatenate(harmonics) * grid.quad_weights().ravel()
    shifts = v[:, None] - np.arange(field.j_min, field.j_max + 1)
    out = np.zeros(len(v))
    for k, zonal_k in _zonal_stream(d @ pts.T, degree):
        out += np.sum(kernel.tables[k](shifts) * (zonal_k @ weighted.T), axis=1)
    return out

"""Frequency multisets and the two structured families of the paper.

The basic datum of the library is a finite multiset of real frequencies
``Lambda = [lambda_1, ..., lambda_N]`` (listed with multiplicity), which fixes
the constant-coefficient differential operator

    L(d/dt) = prod_j (d/dt - lambda_j).

Everything downstream -- TB-splines, Euler-Frobenius polynomials, sampling
kernels, polyspline reconstruction -- is parametrized by one of these vectors.
Two structured families are provided:

* ``radial_spectrum(k, n, p)``: the frequencies that arise when the p-th power
  of the spherical-harmonic-reduced Laplacian in n variables is written in the
  log-radius variable ``v = log r``.  Entries ``k + 2j`` and ``-n - k + 2 + 2j``
  for ``j = 0..p-1``, collected with multiplicity: the roots of the indicial
  polynomial prod_{j<p} q(z - 2j), q(w) = w(w + n - 2) - k(k + n - 2), of
  Delta^p acting on r^z Y_k.
* ``strip_spectrum(k, p)``: ``{-k, +k}`` each with multiplicity p, the
  frequency content of ``(d^2/dt^2 - k^2)^p``.  ``k = 0`` reproduces the
  classical polynomial-spline operator ``(d/dt)^{2p}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "SpectrumVector",
    "radial_spectrum",
    "strip_spectrum",
]

#: absolute tolerance below which two user-supplied frequencies are merged
#: into a single entry of higher multiplicity
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumVector:
    """A multiset of real frequencies, stored as sorted (value, multiplicity) pairs.

    Instances are immutable and hashable, so they can key caches.  Use
    :meth:`from_frequencies` to build one from a flat list; nearby values
    (within ``MERGE_TOL``) are merged, which keeps structured integer spectra
    exact while still accepting user-supplied floats.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("spectrum must contain at least one frequency")
        for value, mult in self.entries:
            if mult < 1:
                raise ValueError(f"multiplicity must be positive, got {mult}")
            if not math.isfinite(value):
                raise ValueError(f"frequency must be finite, got {value}")
        values = [v for v, _ in self.entries]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("entries must be strictly increasing in frequency")

    @classmethod
    def from_frequencies(cls, freqs: Iterable[float]) -> "SpectrumVector":
        vals = sorted(float(f) for f in freqs)
        if not vals:
            raise ValueError("spectrum must contain at least one frequency")
        merged: list[list[float]] = [[vals[0], 1]]
        for v in vals[1:]:
            if abs(v - merged[-1][0]) <= MERGE_TOL:
                merged[-1][1] += 1
            else:
                merged.append([v, 1])
        return cls(tuple((v, int(m)) for v, m in merged))

    @property
    def order(self) -> int:
        """Total number of frequencies N, counted with multiplicity."""
        return sum(m for _, m in self.entries)

    def expand(self) -> tuple[float, ...]:
        """The flat frequency list, each value repeated by its multiplicity."""
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return tuple(out)

    def max_abs(self) -> float:
        return max(abs(v) for v, _ in self.entries)

    def freq_sum(self) -> float:
        """sum_j lambda_j (with multiplicity)."""
        return sum(v * m for v, m in self.entries)

    def negated(self) -> "SpectrumVector":
        return SpectrumVector(tuple((-v, m) for v, m in reversed(self.entries)))

    def symmetrized(self) -> "SpectrumVector":
        """The multiset union of the spectrum with its negation (order doubles)."""
        return SpectrumVector.from_frequencies(self.expand() + self.negated().expand())

    def is_symmetric(self) -> bool:
        """True when the multiset equals its own negation (to ``MERGE_TOL``)."""
        neg = self.negated()
        if len(neg.entries) != len(self.entries):
            return False
        return all(
            abs(a[0] - b[0]) <= MERGE_TOL and a[1] == b[1]
            for a, b in zip(self.entries, neg.entries)
        )

    def __str__(self) -> str:
        parts = []
        for v, m in self.entries:
            text = f"{v:g}" if v == int(v) else repr(v)
            parts.append(text if m == 1 else f"{text}x{m}")
        return "{" + ", ".join(parts) + "}"


def radial_spectrum(k: int, n: int, p: int) -> SpectrumVector:
    """Frequency vector of the log-radius form of the reduced polyharmonic operator.

    For spherical-harmonic degree ``k`` in dimension ``n``, the p-th power of
    the reduced operator has, in ``v = log r``, the characteristic roots
    ``k + 2j`` and ``-n - k + 2 + 2j`` for ``j = 0..p-1``.  Coincidences (which
    occur for even ``n``) merge into genuine multiplicities.
    """
    if k < 0:
        raise ValueError("harmonic degree k must be >= 0")
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    if p < 1:
        raise ValueError("power p must be >= 1")
    freqs = [k + 2 * j for j in range(p)] + [-n - k + 2 + 2 * j for j in range(p)]
    return SpectrumVector.from_frequencies(freqs)


def strip_spectrum(k: float, p: int) -> SpectrumVector:
    """Frequency vector {−k, +k}, each with multiplicity p (k >= 0).

    This is the spectrum of ``(d^2/dt^2 - k^2)^p``; it is symmetric for every
    k, and ``k = 0`` gives the classical spline operator ``(d/dt)^{2p}``.
    """
    if k < 0:
        raise ValueError("transverse frequency k must be >= 0")
    if p < 1:
        raise ValueError("power p must be >= 1")
    return SpectrumVector.from_frequencies([-k] * p + [k] * p)


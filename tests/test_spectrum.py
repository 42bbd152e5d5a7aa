"""Frequency-multiset construction and the structured families."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyshannon.spectrum import SpectrumVector, radial_spectrum, strip_spectrum


def test_from_frequencies_merges_repeats():
    sv = SpectrumVector.from_frequencies([0.0, 0.0, 0.0, 0.0])
    assert sv.entries == ((0.0, 4),)
    assert sv.order == 4
    assert sv.expand() == (0.0, 0.0, 0.0, 0.0)


def test_from_frequencies_sorts_and_merges_near_duplicates():
    sv = SpectrumVector.from_frequencies([1.0, -1.0, 1.0 + 1e-14])
    assert sv.entries == ((-1.0, 1), (1.0, 2))


def test_distinct_frequencies_stay_separate():
    sv = SpectrumVector.from_frequencies([2.0, -3.0])
    assert sv.entries == ((-3.0, 1), (2.0, 1))
    assert not sv.is_symmetric()


def test_empty_spectrum_rejected():
    with pytest.raises(ValueError):
        SpectrumVector.from_frequencies([])


def test_symmetry_detection():
    assert SpectrumVector.from_frequencies([-1.0, 1.0]).is_symmetric()
    assert SpectrumVector.from_frequencies([0.0, 0.0]).is_symmetric()
    assert not SpectrumVector.from_frequencies([0.0, 1.0]).is_symmetric()


def test_symmetrized_doubles_order():
    sv = SpectrumVector.from_frequencies([2.0, -3.0])
    sym = sv.symmetrized()
    assert sym.order == 4
    assert sym.is_symmetric()
    assert sym.expand() == (-3.0, -2.0, 2.0, 3.0)


def test_freq_sum():
    assert SpectrumVector.from_frequencies([1.0, 3.0, -2.0, 0.0]).freq_sum() == 2.0


# --- structured families ------------------------------------------------------

def test_radial_spectrum_examples():
    assert radial_spectrum(0, 3, 1).expand() == (-1.0, 0.0)
    assert radial_spectrum(1, 3, 2).expand() == (-2.0, 0.0, 1.0, 3.0)
    assert radial_spectrum(0, 2, 1).entries == ((0.0, 2),)


def test_radial_spectrum_general_k():
    # n = 3: degree-k harmonic gives {k, -k-1}
    for k in range(6):
        assert radial_spectrum(k, 3, 1).expand() == tuple(sorted((float(k), float(-k - 1))))


def test_strip_spectrum_examples():
    assert strip_spectrum(0, 2).entries == ((0.0, 4),)
    assert strip_spectrum(3, 1).expand() == (-3.0, 3.0)


@given(k=st.floats(0.0, 50.0), p=st.integers(1, 4))
def test_strip_spectrum_always_symmetric(k, p):
    sv = strip_spectrum(k, p)
    assert sv.is_symmetric()
    assert sv.order == 2 * p


def _indicial_poly(k, n, p):
    """prod_{j<p} q(z - 2j), q(w) = w (w + n - 2) - k (k + n - 2): Delta^p
    applied to r^z Y_k is this polynomial times r^(z - 2p) Y_k."""
    out = np.array([1.0])
    for j in range(p):
        # q(z - 2j) = z^2 + (n - 2 - 4j) z + 2j (2j - n + 2) - k (k + n - 2)
        const = 2 * j * (2 * j - n + 2) - k * (k + n - 2)
        out = np.polymul(out, [1.0, n - 2.0 - 4 * j, const])
    return out


def test_indicial_polynomial_example():
    # n = 3, p = 1: z^2 + z - k(k + 1), rooted at k and -k - 1
    for k in range(6):
        assert list(_indicial_poly(k, 3, 1)) == [1.0, 1.0, -k * (k + 1.0)]


def test_radial_spectrum_roots_the_indicial_polynomial():
    # every entry of radial_spectrum is a root of Delta^p's indicial
    # polynomial on r^z Y_k, of exactly its multiplicity, and the
    # multiplicities add up to the degree 2p
    for n in (2, 3, 4):
        for p in (1, 2, 3):
            for k in range(9):
                poly = _indicial_poly(k, n, p)
                sv = radial_spectrum(k, n, p)
                assert len(poly) - 1 == 2 * p == sv.order
                for lam, mult in sv.entries:
                    derivs = [np.polyder(poly, m) for m in range(mult + 1)]
                    scale = [np.polyval(np.abs(d), abs(lam)) for d in derivs]
                    vals = [abs(np.polyval(d, lam)) for d in derivs]
                    assert all(v <= 1e-12 * c for v, c in zip(vals[:mult], scale))
                    assert vals[mult] > 1e-6 * scale[mult]

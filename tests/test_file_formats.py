"""The on-disk formats: damaged files load or fail with FormatError, the
layouts stay put, and saves are atomic.

In the fuzz test a few bytes of a valid file are flipped at random; whatever
the loader makes of the result, it must either return an object or raise
FormatError (the loaders' documented failure), never another exception type
or a hang.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyshannon.records import FormatError
from polyshannon.shannon1d import KernelTable, SamplingGrid, synthesize_kernel
from polyshannon.spectrum import SpectrumVector
from polyshannon.spherical import PolysplineField, random_polyspline_field
from polyshannon.strip import StripField, random_strip_field, torus_modes


def _kernel(path):
    sv = SpectrumVector.from_frequencies([3.0, -3.0])
    synthesize_kernel(sv, SamplingGrid(8, 4)).save(path)
    return KernelTable.load


def _sphere(path):
    rng = np.random.default_rng(5)
    gen = random_polyspline_field(rng, n=3, p=1, degree_max=2, j_min=-3, j_max=3)
    gen.sphere_field(-3, 3).save(path)
    return PolysplineField.load


def _strip(path):
    rng = np.random.default_rng(6)
    gen = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-3, j_max=3)
    gen.plane_field(-3, 3).save(path)
    return StripField.load


FORMATS = {
    "pskt": _kernel,
    "sphere-binary": _sphere,
    "strip-binary": _strip,
}

flips = st.lists(
    st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)),
    min_size=1,
    max_size=3,
)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_flipped_bytes_load_or_raise_value_error(tmp_path, fmt):
    path = tmp_path / fmt
    load = FORMATS[fmt](path)
    raw = path.read_bytes()
    load(path)  # the undamaged file loads

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flips)
    def check(changes):
        damaged = bytearray(raw)
        for where, mask in changes:
            damaged[int(where * len(raw))] ^= mask
        path.write_bytes(bytes(damaged))
        try:
            load(path)
        except FormatError:
            pass

    check()


def test_layouts_are_pinned(tmp_path):
    # written out by hand, so a drift in any header or entry layout shows
    path = tmp_path / "f"
    _kernel(path)
    assert path.read_bytes()[:60] == bytes.fromhex(
        "50534b54" "0100" "00" "00" "0200" "0000"  # PSKT v1, interp, 2 entries
        "08000000" "fcffffff" "4100000000000000"  # per_unit 8, t_min -4, 65 values
        "00000000000008c0" "01000000" "00000000"  # entry -3.0, multiplicity 1
        "0000000000000840" "01000000" "00000000"  # entry 3.0, multiplicity 1
    )
    PolysplineField(3, 1, 1, -3, np.zeros((7, 4))).save(path)
    assert path.read_bytes() == bytes.fromhex(
        "50535046" "0100" "0000"  # PSPF v1, pad
        "03000000" "01000000" "01000000"  # n 3, p 1, K 1
        "fdffffff" "0700000000000000"  # j_min -3, 7 spheres
    ) + bytes(7 * 4 * 8)
    modes = torus_modes(2, 1)
    StripField(2, 1, 1, -2, modes, np.zeros((5, 5), dtype=complex)).save(path)
    assert path.read_bytes()[:40] == bytes.fromhex(
        "50535346" "0100" "0000"  # PSSF v1, pad
        "02000000" "01000000" "01000000"  # dim 2, p 1, K 1
        "feffffff" "0500000000000000" "0500000000000000"  # j_min -2, 5 planes, 5 modes
    )


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_saves_are_atomic(tmp_path, monkeypatch, fmt):
    source, path = tmp_path / "source", tmp_path / fmt
    obj = FORMATS[fmt](source)(source)
    source.unlink()
    path.write_bytes(b"the old file")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        obj.save(path)
    assert path.read_bytes() == b"the old file"
    assert list(tmp_path.iterdir()) == [path]

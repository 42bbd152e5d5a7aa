"""The one on-disk format, the PSKT kernel table: every constructible table
loads back equal, damaged files load or fail with FormatError, the layout
stays put, and saves are atomic.  Fields and generators have no file form;
their constructors reject inconsistent or non-finite values as the table's
does, so those cases are checked here beside the table's.

In the fuzz test a few bytes of a valid file are flipped at random; whatever
the loader makes of the result, it must either return an object or raise
FormatError (the loader's documented failure), never another exception type
or a hang.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyshannon.shannon1d import FormatError
from polyshannon.shannon1d import (
    KernelTable,
    SamplingGrid,
    synthesize_dual,
    synthesize_kernel,
)
from polyshannon.spectrum import SpectrumVector
from polyshannon.spherical import PolysplineField, SyntheticPolyspline
from polyshannon.strip import StripField, SyntheticStripField

SV = SpectrumVector.from_frequencies([3.0, -3.0])


def _kernel(path):
    synthesize_kernel(SV, SamplingGrid(8, 4)).save(path)
    return KernelTable.load


FORMATS = {"pskt": _kernel}


def _records():
    """Small kernel tables: both kinds on two grids."""
    for synthesize in (synthesize_kernel, synthesize_dual):
        for grid in (SamplingGrid(8, 4), SamplingGrid(16, 6)):
            yield synthesize(SV, grid)


def _same(a, b) -> bool:
    """Same type and fields, arrays equal element for element."""
    if type(a) is not type(b):
        return False
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def test_every_record_loads_back_equal(tmp_path):
    path = tmp_path / "record"
    for obj in _records():
        obj.save(path)
        assert _same(type(obj).load(path), obj), obj


# A sphere field's degree K and a strip field's mode list are read from the
# sample columns, so a shape no K or cutoff fits is not constructible.
@pytest.mark.parametrize("build", [
    pytest.param(lambda: KernelTable(SV, "cardinal", 8, -4, np.zeros(65)),
                 id="pskt-unknown-kind"),
    pytest.param(lambda: KernelTable(SV, "interp", 4, -4, np.zeros(33)),
                 id="pskt-per-unit-below-8"),
    pytest.param(lambda: KernelTable(SV, "interp", 8, 0, np.zeros(1)),
                 id="pskt-t-min-not-negative"),
    pytest.param(lambda: KernelTable(SV, "interp", 8, -4, np.zeros(64)),
                 id="pskt-one-value-short"),
    pytest.param(lambda: KernelTable(SV, "interp", 8, -4, np.zeros((65, 1))),
                 id="pskt-values-not-1d"),
    pytest.param(lambda: KernelTable(SV, "dual", 8, -4, np.full(65, np.inf)),
                 id="pskt-infinite-values"),
    pytest.param(lambda: PolysplineField(3, 1, -3, np.ones((7, 5))),
                 id="pspf-5-channels"),
    pytest.param(lambda: PolysplineField(3, 1, -3, np.ones((7, 0))),
                 id="pspf-no-channels"),
    pytest.param(lambda: PolysplineField(3, 1, -3, np.ones(4)),
                 id="pspf-samples-not-2d"),
    pytest.param(lambda: PolysplineField(3, 1, -3, np.full((7, 4), np.nan)),
                 id="pspf-nan-samples"),
    pytest.param(lambda: PolysplineField(2, 1, -3, np.ones((7, 4))),
                 id="pspf-n-2"),
    pytest.param(lambda: SyntheticPolyspline(3, 1, -3, np.ones((3, 5))),
                 id="sphere-generator-3-rows"),
    pytest.param(lambda: SyntheticPolyspline(3, 2, -6, np.ones(4)),
                 id="sphere-generator-coeffs-not-2d"),
    pytest.param(lambda: SyntheticPolyspline(3, 1, -3, np.full((4, 5), np.nan)),
                 id="sphere-generator-nan-coeffs"),
    pytest.param(lambda: StripField(2, 1, 2, -2, np.ones((5, 5), complex)),
                 id="pssf-cutoff-2-with-5-columns"),
    pytest.param(lambda: StripField(2, 1, 1, -2, np.ones((5, 13), complex)),
                 id="pssf-cutoff-1-with-13-columns"),
    pytest.param(lambda: StripField(0, 1, 1, -2, np.ones((5, 1), complex)),
                 id="pssf-dimension-0"),
    pytest.param(lambda: StripField(2, 1, -1, -2, np.ones((5, 0), complex)),
                 id="pssf-negative-cutoff"),
    pytest.param(lambda: StripField(2, 1, 1, -2, np.ones(5, complex)),
                 id="pssf-samples-not-2d"),
    pytest.param(lambda: StripField(2, 1, 1, -2, np.full((5, 5), 1j * np.inf)),
                 id="pssf-infinite-samples"),
    pytest.param(lambda: SyntheticStripField(2, 1, 1, -2, np.ones((13, 3), complex)),
                 id="strip-generator-13-rows"),
    pytest.param(lambda: SyntheticStripField(2, 1, 1, -2, np.ones(5, complex)),
                 id="strip-generator-coeffs-not-2d"),
    pytest.param(lambda: SyntheticStripField(2, 1, 1, -2, np.full((5, 3), 1j * np.inf)),
                 id="strip-generator-infinite-coeffs"),
])
def test_inconsistent_or_non_finite_records_are_not_constructible(build):
    with pytest.raises(ValueError):
        build()


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
    # written out by hand, so a drift in the header or entry layout shows
    path = tmp_path / "f"
    _kernel(path)
    assert path.read_bytes()[:60] == bytes.fromhex(
        "50534b54" "0100" "00" "00" "0200" "0000"  # PSKT v1, interp, 2 entries
        "08000000" "fcffffff" "4100000000000000"  # per_unit 8, t_min -4, 65 values
        "00000000000008c0" "01000000" "00000000"  # entry -3.0, multiplicity 1
        "0000000000000840" "01000000" "00000000"  # entry 3.0, multiplicity 1
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

"""Damaged files in every on-disk format load or fail with ValueError.

A few bytes of a valid file are flipped at random; whatever the loader makes
of the result, it must either return an object or raise ValueError (the
loaders' documented failure), never another exception type or a hang.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyshannon.shannon1d import KernelTable, SamplingGrid, synthesize_kernel
from polyshannon.spectrum import SpectrumVector
from polyshannon.spherical import PolysplineField, random_polyspline_field
from polyshannon.strip import StripField, random_strip_field


def _kernel(path):
    sv = SpectrumVector.from_frequencies([3.0, -3.0])
    synthesize_kernel(sv, SamplingGrid(8, 4)).save(path)
    return KernelTable.load


def _sphere(fmt):
    def write(path):
        rng = np.random.default_rng(5)
        gen = random_polyspline_field(rng, n=3, p=1, degree_max=2, j_min=-3, j_max=3)
        getattr(gen.sphere_field(-3, 3), f"save_{fmt}")(path)
        return getattr(PolysplineField, f"load_{fmt}")

    return write


def _strip(fmt):
    def write(path):
        rng = np.random.default_rng(6)
        gen = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-3, j_max=3)
        getattr(gen.plane_field(-3, 3), f"save_{fmt}")(path)
        return getattr(StripField, f"load_{fmt}")

    return write


FORMATS = {
    "pskt": _kernel,
    "sphere-text": _sphere("text"),
    "sphere-binary": _sphere("binary"),
    "strip-text": _strip("text"),
    "strip-binary": _strip("binary"),
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
        except ValueError:
            pass

    check()

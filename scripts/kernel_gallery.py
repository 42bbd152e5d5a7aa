"""Synthesize the interpolating and dual kernels for one frequency multiset.

Prints symbol margin, tail ratios, and cardinality residual, and writes
a three-column table (t, interpolant, dual) ready for plotting:

    python3 scripts/kernel_gallery.py --frequencies 3,-3 --out gallery.dat
"""

import argparse

import numpy as np

from polyshannon import (
    SamplingGrid,
    SpectrumVector,
    symbol_margin,
    synthesize_dual,
    synthesize_kernel,
)
from polyshannon.cli import _cardinal_residual, _tail_ratio


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frequencies", default="0,0,0,0",
                    help="comma-separated frequency list (default cubic)")
    ap.add_argument("--per-unit", type=int, default=64)
    ap.add_argument("--half-width", type=int, default=30)
    ap.add_argument("--out", default="kernel-gallery.dat")
    args = ap.parse_args()

    sv = SpectrumVector.from_frequencies(
        [float(s) for s in args.frequencies.replace(",", " ").split()]
    )
    grid = SamplingGrid(args.per_unit, args.half_width)
    s0 = synthesize_kernel(sv, grid)
    dual = synthesize_dual(sv, grid)
    margin = symbol_margin(sv)

    ts = np.arange(len(s0.values)) / s0.per_unit + s0.t_min

    print(f"spectrum          {sv}")
    print(f"symbol margin     {margin.min_abs:.6g} .. {margin.max_abs:.6g} "
          f"(relative {margin.relative:.3g})")
    print(f"cardinal residual {_cardinal_residual(s0):.3e}")
    print(f"tail ratios       (max on the last unit interval / max) "
          f"interpolant {_tail_ratio(s0):.3e}, dual {_tail_ratio(dual):.3e}")

    cols = np.column_stack([ts, s0.values, dual.values])
    np.savetxt(args.out, cols, fmt="%.17g", header="t s0 dual")
    print(f"wrote {args.out} ({len(ts)} rows)")


if __name__ == "__main__":
    main()

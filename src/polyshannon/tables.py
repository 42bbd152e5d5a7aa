"""Uniform-grid function tables with 6-point Lagrange evaluation."""

from __future__ import annotations

import numpy as np

#: prod_{j != k} (k - j) for nodes 0..5
_DENOM6 = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def interp6(
    values: np.ndarray,
    t0: float,
    h: float,
    t,
    knot_every: int,
) -> np.ndarray:
    """Evaluate a uniformly tabulated function by 6-point Lagrange interpolation.

    ``values[l]`` holds f(t0 + l*h).  Queries outside the tabulated range
    return 0 (tables here always hold functions that are zero or negligible
    beyond their grid).

    Splines are only piecewise-analytic: they kink at their knots, and a
    polynomial stencil straddling a kink is worthless.  ``knot_every`` gives
    the knot spacing in grid steps (knots at l = 0, knot_every, 2*knot_every,
    ...), and the stencil is clamped inside the knot interval containing
    the query.

    At a grid node the interpolant reproduces the stored value exactly (the
    Lagrange weights come out as exact 0s and 1s), which several bit-identity
    checks downstream rely on.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    n = len(values)
    if n < 6:
        raise ValueError("table must hold at least 6 samples")
    if knot_every < 5:
        raise ValueError("need at least 5 grid steps between knots")

    s = (t - t0) / h
    out = np.zeros_like(s)
    inside = (s >= 0.0) & (s <= n - 1)
    si = s[inside]

    cell = np.floor(si).astype(int)
    seg = np.minimum(cell // knot_every, (n - 2) // knot_every)
    lo = seg * knot_every
    hi = np.minimum(lo + knot_every - 5, n - 6)
    lo = np.minimum(lo, n - 6)
    j0 = np.clip(cell - 2, lo, hi)
    x = si - j0  # within [0, 5] plus clamping slack

    acc = np.zeros_like(si)
    diffs = x[:, None] - np.arange(6.0)[None, :]
    for k in range(6):
        w = np.ones_like(si)
        for j in range(6):
            if j != k:
                w = w * diffs[:, j]
        acc += (w / _DENOM6[k]) * values[j0 + k]
    out[inside] = acc
    return out[0] if scalar else out

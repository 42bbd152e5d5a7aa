"""Command-line front end: experiments, kernel cache, invariant runner.

Commands (``polyshannon <command> --config <path> [--out <dir>] [--seed <u64>]``):

* ``kernel1d``          synthesize one Shannon-type kernel; emit table file,
                        CSV samples, and a text summary (margin, tail,
                        cardinal residual).
* ``zeros``             Euler-Frobenius zeros of one spectrum.
* ``decay``             per-degree kernel suprema sweep (radial channels).
* ``reconstruct-sphere`` synthetic sphere-data experiment with error table.
* ``reconstruct-strip``  synthetic hyperplane-data experiment.
* ``verify``            deterministic invariant suite; exit 1 on any failure.

Configs are flat ``key = value`` text (primary) or a JSON object (when the
path ends in ``.json``); unknown keys are rejected.  All randomness flows
from one 64-bit seed (default printed in every summary).  CSV output is
RFC-4180 style: CRLF line endings, header row mandatory, floats rendered
with ``repr`` so identical runs are byte-identical.  The ``verify`` report
contains no wall-clock fields — timing goes to stdout — so criterion-grade
determinism holds; the reconstruction error tables do include a runtime
column and are documented as nondeterministic in that one column.  Kernel
files live in ``<out>/kernels/<spectrum-hash>-<grid-hash>.pskt``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .shannon1d import (
    KernelTable,
    NarrowGridError,
    NotSamplableError,
    SamplingGrid,
    cardinal_series,
    symbol_margin,
    synthesize_dual,
    synthesize_kernel,
    tb_superposition,
)
from .spectrum import SpectrumVector, radial_spectrum, strip_spectrum
from .spherical import (
    DEGREE_CAP,
    decay_check,
    random_polyspline_field,
    reconstruct_spherical,
)
from .strip import random_strip_field, reconstruct_strip
from .tbspline import (
    CancellationError,
    ConditioningError,
    ConvergenceError,
    EFAccuracyError,
    EFStructureError,
    ef_zeros,
    euler_frobenius,
    euler_spline,
    euler_spline_resolvent,
    tb_chebyshev,
)

DEFAULT_SEED = 20260822

MODES = ("kernel1d", "zeros", "decay", "reconstruct-sphere",
         "reconstruct-strip", "verify")

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)


class ConfigError(ValueError):
    """Malformed or out-of-range experiment configuration."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment parameters; every field has a usable default."""

    mode: str | None = None
    frequencies: tuple[float, ...] | None = None
    k: int = 0
    n: int = 3
    p: int = 1
    dim: int = 2
    K: int = 4
    per_unit: int = 64
    half_width: int = 30
    j_min: int = -6
    j_max: int = 6
    queries: int = 1000
    seed: int = DEFAULT_SEED
    tol: float = 0.0  # 0 = per-command default
    csv_step: int = 8
    k_min: int = 8
    k_max: int = 32

    def validate(self) -> None:
        if self.mode is not None and self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.queries < 1:
            raise ConfigError("queries must be >= 1")
        if self.csv_step < 1:
            raise ConfigError("csv_step must be >= 1")
        try:
            self.grid  # SamplingGrid checks per_unit and half_width
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.j_max <= self.j_min:
            raise ConfigError("j_max must exceed j_min")
        if self.p < 1 or self.n < 2 or self.k < 0 or self.K < 0 or self.dim < 1:
            raise ConfigError("spectral parameters out of range")
        if self.tol < 0.0:
            raise ConfigError("tol must be nonnegative")
        if not 0 <= self.k_min <= self.k_max <= 32:
            raise ConfigError("decay sweep requires 0 <= k_min <= k_max <= 32")

    @property
    def grid(self) -> SamplingGrid:
        return SamplingGrid(self.per_unit, self.half_width)


_INT_KEYS = {"k", "n", "p", "dim", "K", "per_unit", "half_width",
             "j_min", "j_max", "queries", "seed", "csv_step",
             "k_min", "k_max"}
_FLOAT_KEYS = {"tol"}


def _coerce(key: str, value) -> object:
    if key == "mode":
        return str(value)
    if key == "frequencies":
        if isinstance(value, str):
            parts = value.replace(",", " ").split()
            value = [float(tok) for tok in parts]
        return tuple(float(v) for v in value)
    if key in _INT_KEYS:
        if isinstance(value, bool) or (isinstance(value, float) and value != int(value)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be a number, got {value!r}") from None
    raise ConfigError(f"unknown config key {key!r}")


def parse_config(path: Path | str | None) -> ExperimentConfig:
    """Load an ExperimentConfig; missing path means all defaults."""
    cfg = ExperimentConfig()
    if path is None:
        cfg.validate()
        return cfg
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    updates: dict[str, object] = {}
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigError("JSON config must be an object")
        items = payload.items()
    else:
        items = []
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            items.append((key.strip(), value.strip()))
    known = {f.name for f in fields(ExperimentConfig)}
    for key, value in items:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, value)
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def config_digest(cfg: ExperimentConfig) -> str:
    canon = "|".join(
        f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(ExperimentConfig)
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


class RunReport:
    """Append-only check list rendered identically to CSV and text."""

    def __init__(self, config_hash: str, seed: int) -> None:
        self.config_hash = config_hash
        self.seed = seed
        self._rows: list[CheckRow] = []

    def add(self, name: str, value: float, bound: float) -> None:
        self._rows.append(CheckRow(name, float(value), float(bound)))

    @property
    def rows(self) -> tuple[CheckRow, ...]:
        return tuple(self._rows)

    def all_passed(self) -> bool:
        return all(row.passed for row in self._rows)

    def write_csv(self, path: Path) -> None:
        header = ["name", "value", "bound", "status", "config_hash",
                  "format_version"]
        rows = [
            [row.name, repr(row.value), repr(row.bound),
             "pass" if row.passed else "FAIL", self.config_hash,
             str(REPORT_FORMAT_VERSION)]
            for row in self._rows
        ]
        _write_csv(path, header, rows)

    def write_text(self, path: Path) -> None:
        lines = [
            f"polyshannon verify report (format {REPORT_FORMAT_VERSION})",
            f"config {self.config_hash}  seed {self.seed}",
            "",
        ]
        width = max((len(r.name) for r in self._rows), default=4)
        for row in self._rows:
            status = "pass" if row.passed else "FAIL"
            lines.append(
                f"{row.name.ljust(width)}  {repr(row.value):>24}  "
                f"<= {repr(row.bound):>12}  {status}"
            )
        lines.append("")
        verdict = "ALL CHECKS PASSED" if self.all_passed() else "FAILURES PRESENT"
        lines.append(verdict)
        path.write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# kernel cache
# --------------------------------------------------------------------------

def _spectrum_hash(sv: SpectrumVector) -> str:
    canon = "|".join(f"{repr(v)}x{m}" for v, m in sv.entries)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _grid_hash(grid: SamplingGrid, kind: str) -> str:
    canon = f"{grid.per_unit}|{grid.half_width}|{kind}"
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def cached_kernel(
    sv: SpectrumVector, grid: SamplingGrid, cache_dir: Path
) -> tuple[KernelTable, Path, bool]:
    """Load the kernel for (spectrum, grid) from disk or synthesize and store.

    One file per (spectrum-hash, grid-hash); a stale or foreign file at the
    expected name is ignored and rewritten.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    name = f"{_spectrum_hash(sv)}-{_grid_hash(grid, 'interp')}.pskt"
    path = cache_dir / name
    if path.exists():
        try:
            tab = KernelTable.load(path)
        except ValueError:
            tab = None
        if (
            tab is not None
            and tab.spectrum == sv
            and tab.per_unit == grid.per_unit
            and tab.t_min == -grid.half_width
        ):
            return tab, path, True
    tab = synthesize_kernel(sv, grid)
    tab.save(path)
    return tab, path, False


def _kernel_source(cfg: ExperimentConfig, out: Path):
    """spectrum -> KernelTable on the config grid, through the on-disk cache."""
    cache = out / "kernels"
    return lambda sv: cached_kernel(sv, cfg.grid, cache)[0]


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _config_spectrum(cfg: ExperimentConfig) -> SpectrumVector:
    if cfg.frequencies is not None:
        return SpectrumVector.from_frequencies(cfg.frequencies)
    return radial_spectrum(cfg.k, cfg.n, cfg.p)


def cmd_kernel1d(cfg: ExperimentConfig, out: Path) -> int:
    sv = _config_spectrum(cfg)
    if sv.order % 2 == 1:
        print(
            f"error: sampling needs even order N = 2p; got N = {sv.order} "
            f"for {sv}",
            file=sys.stderr,
        )
        return 2
    tab, path, hit = cached_kernel(sv, cfg.grid, out / "kernels")
    grid_t = tab.t_min + np.arange(len(tab.values)) / tab.per_unit
    step = cfg.csv_step
    rows = [
        [repr(float(t)), repr(float(v))]
        for t, v in zip(grid_t[::step], tab.values[::step])
    ]
    _write_csv(out / "kernel1d.csv", ["t", "s0"], rows)

    margin = symbol_margin(sv)
    edge = max(abs(float(tab.values[0])), abs(float(tab.values[-1])))
    integers = np.arange(tab.t_min + 1, -tab.t_min)
    node_vals = tab(integers.astype(float))
    node_vals[integers == 0] -= 1.0
    residual = float(np.max(np.abs(node_vals)))
    summary = [
        f"spectrum {sv}",
        f"seed {cfg.seed}",
        f"kernel file {path.name} (cache {'hit' if hit else 'miss'})",
        f"margin min |phi*| {margin.min_abs!r}",
        f"margin max |phi*| {margin.max_abs!r}",
        f"margin relative {margin.relative!r}",
        f"tail bound (edge magnitude) {edge!r}",
        f"cardinal residual {residual!r}",
    ]
    (out / "kernel1d-summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def cmd_zeros(cfg: ExperimentConfig, out: Path) -> int:
    sv = _config_spectrum(cfg)
    zeros = ef_zeros(sv)
    rows = [[str(i), repr(float(z))] for i, z in enumerate(zeros)]
    _write_csv(out / "zeros.csv", ["index", "zero"], rows)
    recip = 0.0
    if sv.is_symmetric() and len(zeros) > 0:
        prods = [zeros[i] * zeros[len(zeros) - 1 - i] for i in range(len(zeros))]
        recip = max(abs(float(p) - 1.0) for p in prods)
    summary = [
        f"spectrum {sv}",
        f"order {sv.order}",
        f"zero count {len(zeros)}",
        f"reciprocal pairing residual {recip!r}",
    ]
    (out / "zeros-summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def cmd_decay(cfg: ExperimentConfig, out: Path) -> int:
    rows_out = []
    sweep = decay_check(cfg.n, cfg.p, cfg.k_max, cfg.grid)
    for row in sweep[cfg.k_min :]:
        rows_out.append(
            [str(row.degree), repr(row.sup_fourier), repr(row.sup_time)]
        )
    _write_csv(out / "decay.csv", ["k", "sup_fourier", "sup_time"], rows_out)
    window = [r for r in sweep if cfg.k_min <= r.degree <= cfg.k_max and r.degree > 0]
    summary = [f"n {cfg.n}  p {cfg.p}  k range [{cfg.k_min}, {cfg.k_max}]"]
    if window:
        prods = [r.degree * r.sup_fourier for r in window]
        sups = [r.sup_time for r in window]
        summary.append(f"k*sup_fourier max/min {max(prods) / min(prods)!r}")
        summary.append(f"sup_time max/median {max(sups) / float(np.median(sups))!r}")
    (out / "decay-summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def _sphere_queries(rng, count):
    r = np.exp(rng.uniform(-2.0, 2.0, size=count))
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r, d


def _finish_recon(out: Path, name: str, cfg: ExperimentConfig, t0: float,
                  coord: np.ndarray, abs_err: np.ndarray, max_err: float,
                  rms: float) -> None:
    """Write ``<name>.csv`` (error row, whole-command runtime) and
    ``<name>-plot.dat`` (error against the sorted query coordinate)."""
    runtime = time.perf_counter() - t0
    _write_csv(
        out / f"{name}.csv",
        ["K", "j_range", "max_err", "rms_err", "runtime"],
        [[str(cfg.K), f"{cfg.j_min}..{cfg.j_max}", repr(max_err), repr(rms),
          repr(runtime)]],
    )
    plot_lines = [
        f"{repr(float(coord[i]))} {repr(float(abs_err[i]))}"
        for i in np.argsort(coord)
    ]
    (out / f"{name}-plot.dat").write_text("\n".join(plot_lines) + "\n")


def cmd_reconstruct_sphere(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.perf_counter()
    if cfg.n != 3:
        raise ConfigError(f"reconstruct-sphere needs n = 3, got n = {cfg.n}")
    if cfg.K > DEGREE_CAP:
        raise ConfigError(
            f"reconstruct-sphere needs K <= {DEGREE_CAP}, got K = {cfg.K}"
        )
    rng = np.random.default_rng(cfg.seed)
    gen = random_polyspline_field(
        rng, n=cfg.n, p=cfg.p, degree_max=cfg.K, j_min=cfg.j_min, j_max=cfg.j_max
    )
    fld = gen.sphere_field(cfg.j_min, cfg.j_max)
    r, d = _sphere_queries(rng, cfg.queries)
    got = reconstruct_spherical(fld, r, d, kernel=_kernel_source(cfg, out))
    want = gen.eval(r, d)
    scale = float(np.max(np.abs(want)))
    abs_err = np.abs(got - want)
    max_err = float(np.max(abs_err)) / scale
    rms = float(np.sqrt(np.mean(abs_err**2))) / scale
    _finish_recon(out, "recon-sphere", cfg, t0, r, abs_err / scale, max_err, rms)
    tol = cfg.tol if cfg.tol > 0.0 else 1e-4
    print(
        f"seed {cfg.seed}  K {cfg.K}  spheres {cfg.j_min}..{cfg.j_max}  "
        f"max relative error {max_err!r} (tol {tol!r})"
    )
    return 0 if max_err <= tol else 1


def cmd_reconstruct_strip(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    gen = random_strip_field(
        rng, dimension=cfg.dim, p=cfg.p, cutoff=cfg.K, j_min=cfg.j_min,
        j_max=cfg.j_max,
    )
    fld = gen.plane_field(cfg.j_min, cfg.j_max)
    t = rng.uniform(-3.0, 3.0, size=cfg.queries)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.queries, cfg.dim))
    got = reconstruct_strip(fld, t, ys, kernel=_kernel_source(cfg, out))
    want = gen.eval(t, ys)
    scale = float(np.max(np.abs(want)))
    abs_err = np.abs(got - want)
    max_err = float(np.max(abs_err))
    rms = float(np.sqrt(np.mean(abs_err**2)))
    _finish_recon(out, "recon-strip", cfg, t0, t, abs_err, max_err, rms)
    tol = cfg.tol if cfg.tol > 0.0 else 1e-5
    print(
        f"seed {cfg.seed}  cutoff {cfg.K}  planes {cfg.j_min}..{cfg.j_max}  "
        f"max error {max_err!r} (tol {tol!r}, field scale {scale!r})"
    )
    return 0 if max_err <= tol else 1


# --------------------------------------------------------------------------
# the verify suite
# --------------------------------------------------------------------------

def _gl(f, a, b):
    x = 0.5 * (b - a) * _GL_X + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(_GL_W, f(x)))


def _battery():
    classical = [SpectrumVector.from_frequencies([0.0] * (2 * p))
                 for p in range(1, 5)]
    strips = [strip_spectrum(float(k), p)
              for p in (1, 2) for k in range(0, 9)]
    radial = [radial_spectrum(k, 3, p)
              for p in (1, 2) for k in range(0, 17)]
    return classical, strips, radial


def _zeros_deviation(sv: SpectrumVector) -> float:
    zeros = ef_zeros(sv)
    if len(zeros) != sv.order - 2:
        return math.inf
    dev = 0.0
    for z in zeros:
        dev = max(dev, 0.0 if z < 0.0 else abs(z) + 1e-6)
    if sv.is_symmetric():
        m = len(zeros)
        for i in range(m):
            dev = max(dev, abs(zeros[i] * zeros[m - 1 - i] - 1.0))
    return dev


def _lpi_deviation(svs) -> tuple[float, float]:
    lower = upper = 0.0
    xi = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    for sv in svs:
        poly = euler_frobenius(sv)
        on_circle = np.abs(poly(np.exp(1j * xi)))
        lo, hi = abs(poly(-1.0)), abs(poly(1.0))
        scale = max(1.0, hi)
        lower = max(lower, float(np.max(lo - on_circle)) / scale)
        upper = max(upper, float(np.max(on_circle - hi)) / scale)
    return lower, upper


def _identity_residuals(svs, rng) -> tuple[float, float]:
    # Cross the two independent evaluation routes: the pole/residue closed
    # form against the finite TB-spline sum.  Same-route comparisons would be
    # term-by-term identical and prove nothing.  Residuals are scaled by the
    # all-positive sum at |lambda|, which majorizes every signed variant.
    shift = half = 0.0
    for sv in svs:
        n = sv.order
        for _ in range(20):
            x = float(rng.uniform(0.0, 1.0))
            lam = float(rng.uniform(0.2, 5.0)) * (-1.0) ** rng.integers(0, 2)
            a = euler_spline_resolvent(sv, x + 1.0, lam)
            b = lam * euler_spline(sv, x, lam)
            den = euler_spline(sv, x + 1.0, abs(lam))
            shift = max(shift, abs(a - b) / den)
            if sv.is_symmetric() and n % 2 == 0:
                c = euler_spline_resolvent(sv, n / 2.0, lam)
                d = lam ** (n // 2) * euler_spline(sv, 0.0, lam)
                half = max(half, abs(c - d) / euler_spline(sv, n / 2.0, abs(lam)))
    return shift, half


def _symmetry_residual(svs, rng) -> float:
    worst = 0.0
    for sv in svs:
        if not sv.is_symmetric():
            continue
        n = sv.order
        for _ in range(20):
            lam = float(rng.uniform(0.2, 5.0)) * (-1.0) ** rng.integers(0, 2)
            a = euler_spline_resolvent(sv, n / 2.0, lam)
            b = euler_spline(sv, n / 2.0, 1.0 / lam)
            den = euler_spline(sv, n / 2.0, abs(lam))
            worst = max(worst, abs(a - b) / den)
    return worst


def _biorthogonality_deviation(sv: SpectrumVector) -> float:
    n = sv.order
    dual = synthesize_dual(sv)
    tb = tb_chebyshev(sv)
    worst = 0.0
    for tau in range(-3, 4):
        acc = 0.0
        for m in range(n):
            acc += _gl(
                lambda t: dual(t) * tb(t - tau),
                float(tau + m), float(tau + m + 1),
            )
        want = 1.0 if tau == 0 else 0.0
        worst = max(worst, abs(acc - want))
    return worst


def _reconstruction_residual(sv: SpectrumVector, grid: SamplingGrid, rng) -> float:
    tab = synthesize_kernel(sv, grid)
    coeffs = rng.uniform(-1.0, 1.0, size=17)
    ts = np.linspace(-3.0, 3.0, 601)
    exact = tb_superposition(sv, -8, coeffs, ts)
    samples = tb_superposition(sv, -8, coeffs, np.arange(-40.0, 41.0))
    rebuilt = cardinal_series(tab, -40, samples, ts)
    return float(np.max(np.abs(rebuilt - exact))) / max(
        1.0, float(np.max(np.abs(exact)))
    )


def _kernel_residuals(grid: SamplingGrid, rng) -> tuple[float, float, float]:
    cubic = SpectrumVector.from_frequencies([0.0, 0.0, 0.0, 0.0])
    tab = synthesize_kernel(cubic, grid)
    integers = np.arange(tab.t_min + 1, -tab.t_min).astype(float)
    node_vals = tab(integers)
    node_vals[integers == 0.0] -= 1.0
    cardinal = float(np.max(np.abs(node_vals)))

    recon = _reconstruction_residual(cubic, grid, rng)
    # The cubic kernel is piecewise polynomial, which the table stencil
    # reproduces at any resolution; an exponential pair is the honest probe
    # of whether the configured grid resolves off-lattice evaluation.
    stiff = _reconstruction_residual(
        SpectrumVector.from_frequencies([3.0, -3.0]), grid, rng
    )
    return cardinal, recon, stiff


def run_verify(cfg: ExperimentConfig) -> RunReport:
    """The deterministic invariant suite behind ``polyshannon verify``."""
    rng = np.random.default_rng(cfg.seed)
    report = RunReport(config_digest(cfg), cfg.seed)
    classical, strips, radial = _battery()

    for label, group in (("classical", classical), ("strip", strips),
                         ("radial", radial)):
        dev = 0.0
        for sv in group:
            if sv.order >= 3:
                dev = max(dev, _zeros_deviation(sv))
        report.add(f"zeros/{label}", dev, 1e-8)

    symmetric = [sv for sv in classical + strips if sv.order >= 2]
    lower, upper = _lpi_deviation(symmetric)
    report.add("lpi/lower", lower, 1e-10)
    report.add("lpi/upper", upper, 1e-10)

    shift, half = _identity_residuals(classical + strips + radial, rng)
    report.add("identity/shift", shift, 1e-9)
    report.add("identity/halfperiod", half, 1e-9)
    report.add("identity/reciprocal", _symmetry_residual(symmetric, rng), 1e-9)

    for name, freqs in (
        ("cubic", [0.0, 0.0, 0.0, 0.0]),
        ("sym4", [-1.0, 0.0, 0.0, 1.0]),
        ("exp2", [3.0, -3.0]),
    ):
        sv = SpectrumVector.from_frequencies(freqs)
        report.add(f"biorth/{name}", _biorthogonality_deviation(sv), 1e-5)

    cardinal, recon, stiff = _kernel_residuals(cfg.grid, rng)
    report.add("kernel/cardinal", cardinal, 1e-10)
    report.add("kernel/reconstruction", recon, 1e-7)
    report.add("kernel/stiff-reconstruction", stiff, 1e-7)

    sweep = decay_check(3, 1, 16)
    window = [r for r in sweep if 8 <= r.degree <= 16]
    prods = [r.degree * r.sup_fourier for r in window]
    sups = [r.sup_time for r in window]
    report.add("decay/fourier-ratio", max(prods) / min(prods), 4.0)
    report.add("decay/time-ratio", max(sups) / float(np.median(sups)), 3.0)

    gen = random_polyspline_field(rng, n=3, p=1, degree_max=4, j_min=-5,
                                  j_max=5)
    fld = gen.sphere_field(-5, 5)
    r, d = _sphere_queries(rng, 200)
    r = np.clip(r, math.exp(-1.5), math.exp(1.5))
    got = reconstruct_spherical(fld, r, d)
    want = gen.eval(r, d)
    scale = float(np.max(np.abs(want)))
    report.add("sphere/max-rel-err", float(np.max(np.abs(got - want))) / scale,
               1e-4)
    # the paper's Shannon series on the configured tables against the
    # coefficient-domain default
    tables = reconstruct_spherical(
        fld, r, d, kernel=lambda sv: synthesize_kernel(sv, cfg.grid)
    )
    report.add("recon/routes", float(np.max(np.abs(tables - got))) / scale, 1e-7)

    sgen = random_strip_field(rng, dimension=2, p=1, cutoff=2, j_min=-6,
                              j_max=6)
    sfld = sgen.plane_field(-6, 6)
    t = rng.uniform(-2.5, 2.5, size=100)
    ys = rng.uniform(0.0, 2.0 * math.pi, size=(100, 2))
    sgot = reconstruct_strip(sfld, t, ys)
    swant = sgen.eval(t, ys)
    report.add("strip/max-err", float(np.max(np.abs(sgot - swant))), 1e-5)

    return report


def cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    t0 = time.perf_counter()
    report = run_verify(cfg)
    report.write_csv(out / "verify-report.csv")
    report.write_text(out / "verify-report.txt")
    elapsed = time.perf_counter() - t0
    status = "PASS" if report.all_passed() else "FAIL"
    print(f"verify: {status} ({len(report.rows)} checks, seed {cfg.seed}, "
          f"{elapsed:.1f}s wall)")
    for row in report.rows:
        if not row.passed:
            print(f"  FAIL {row.name}: {row.value!r} > {row.bound!r}")
    return 0 if report.all_passed() else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

#: numerical failures that the input spectrum or configuration causes: exit 2
_INPUT_NUMERICAL_ERRORS = (
    CancellationError,
    ConditioningError,
    ConvergenceError,
    EFAccuracyError,
    EFStructureError,
    NarrowGridError,
)

_COMMANDS = {
    "kernel1d": cmd_kernel1d,
    "zeros": cmd_zeros,
    "decay": cmd_decay,
    "reconstruct-sphere": cmd_reconstruct_sphere,
    "reconstruct-strip": cmd_reconstruct_strip,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyshannon",
        description="Cardinal exponential-spline sampling experiments",
    )
    parser.add_argument("command", choices=MODES)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("polyshannon-out"))
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        cfg.validate()
        if cfg.mode is not None and cfg.mode != args.command:
            raise ConfigError(
                f"config mode {cfg.mode!r} does not match command "
                f"{args.command!r}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, out)
    except NotSamplableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _INPUT_NUMERICAL_ERRORS as exc:
        # one line even when the message carries an array repr
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

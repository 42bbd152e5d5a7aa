"""The four benchmark workloads: inputs, operations and output checks.

Each workload makes its inputs from the seed in ``setup`` and then offers
the operations of one round (``ROUND``):

* ``cold``  the operation with every program cache empty (``experiment_s``)
* ``warm``  the same operation with every cache filled (``rerun_s``)
* ``fail``  ``sphere-cli`` only: the command on a kernel cache holding a
            truncated entry, which fails today (see README.md)

``check_op`` compares each operation's output with the first one's and
``check_final`` scores the first output against a computation made apart
from the program's reconstruction path.  Both run outside every timed part.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.special import sph_harm_y

from polyshannon import cli, shannon1d, spherical, strip, tables, tbspline
from polyshannon.spectrum import radial_spectrum, strip_spectrum

#: relative agreement required between tb_exact (Green's-function sum) and
#: tb_tabulate (FFT of the symbol plus 6-point interpolation) at per_unit 64
TB_CROSS_TOL = 5e-6

#: indices of the queries scored against the independent reference
SUBSAMPLE = 128


class CheckError(AssertionError):
    """An output disagrees with its reference."""


def program_caches():
    """cache_clear of every lru cache in polyshannon, taken before tracing."""
    clears = []
    for mod in (cli, shannon1d, spherical, strip, tables, tbspline):
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", None) == mod.__name__:
                clears.append(clear)
    return clears


def _digits(rel_err: float) -> float:
    return -math.log10(max(rel_err, 1e-300))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def real_harmonics(degree: int, directions: np.ndarray) -> np.ndarray:
    """Real orthonormal harmonics of one degree, (2k+1, count), from scipy.

    Same ordering and sign convention as ``spherical.sph_harm`` but computed
    by scipy's complex ``sph_harm_y``, apart from the program's ``lpmv`` route.
    """
    theta = np.arccos(np.clip(directions[:, 2], -1.0, 1.0))
    phi = np.arctan2(directions[:, 1], directions[:, 0])
    rows = []
    for m in range(-degree, degree + 1):
        y = sph_harm_y(degree, abs(m), theta, phi)
        if m == 0:
            rows.append(y.real)
        else:
            rows.append(math.sqrt(2.0) * (y.real if m > 0 else y.imag))
    return np.array(rows)


def tb_translates(spectrum, t: np.ndarray, shifts: np.ndarray,
                  cross_check: bool = True) -> np.ndarray:
    """Q_N(t - s) for every shift s, (len(shifts), len(t)).

    The values come from ``tb_exact``.  With ``cross_check`` every one of them
    is compared with ``tb_tabulate``, which works from the Fourier transform.
    """
    arg = (t[None, :] - shifts[:, None]).ravel()
    exact = tbspline.tb_exact(spectrum, arg)
    if not cross_check:
        return exact.reshape(len(shifts), len(t))
    table = tbspline.tb_tabulate(spectrum, 64)
    dev = float(np.max(np.abs(exact - table(arg)))) / float(np.max(np.abs(table.values)))
    _require(dev <= TB_CROSS_TOL,
             f"tb_exact and tb_tabulate differ by {dev:.2e} for {spectrum}")
    return exact.reshape(len(shifts), len(t))


class SphereCli:
    """``reconstruct-sphere`` through ``cli.main``, K=8, p=2, spheres -6..6."""

    ROUND = ("cold", "warm", "warm", "fail")

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.config = work / "sphere.cfg"
        degree, queries = (2, 10) if smoke else (8, 150)
        self.config.write_text(
            "mode = reconstruct-sphere\n"
            f"K = {degree}\np = 2\nn = 3\nj_min = -6\nj_max = 6\n"
            f"queries = {queries}\nper_unit = 64\n"
        )
        self.out = work / "out"
        self.first = None

    def _command(self, out: Path, seed: int):
        rc = _run_cli(["reconstruct-sphere", "--config", str(self.config),
                       "--out", str(out), "--seed", str(seed)])
        if rc != 0:
            raise RuntimeError(f"reconstruct-sphere exited with {rc}")
        with open(out / "recon-sphere.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        return row["max_err"], row["rms_err"]

    def cold(self):
        shutil.rmtree(self.out / "kernels", ignore_errors=True)
        return self._command(self.out, self.seed)

    def warm(self):
        return self._command(self.out, self.seed)

    def prepare_fail(self) -> None:
        """A copy of the filled cache with the k = 0 entry cut to 20 bytes."""
        target = self.work / "truncated"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.out / "kernels", target / "kernels")
        want = radial_spectrum(0, 3, 2)
        for path in sorted((target / "kernels").glob("*.pskt")):
            if shannon1d.KernelTable.load(path).spectrum == want:
                path.write_bytes(path.read_bytes()[:20])
                return
        raise CheckError("no k = 0 kernel in the cache to truncate")

    def fail(self):
        # a fixed seed: the failure must not depend on the workload seed
        return self._command(self.work / "truncated", cli.DEFAULT_SEED)

    def check_op(self, kind: str, result) -> None:
        if kind == "fail":
            return
        if self.first is None:
            self.first = result
        _require(result == self.first,
                 f"recon-sphere.csv error columns changed: {result} vs {self.first}")

    def check_final(self) -> float:
        _require(self.first is not None, "no successful command")
        return _digits(float(self.first[0]))


class Verify:
    """The ``verify`` invariant battery through ``cli.main``."""

    ROUND = ("cold", "warm")

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        self.seed = seed
        self.out = work / "verify"
        self.first = None

    def _command(self):
        rc = _run_cli(["verify", "--out", str(self.out), "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"verify exited with {rc}")
        return ((self.out / "verify-report.csv").read_bytes(),
                (self.out / "verify-report.txt").read_bytes())

    def cold(self):
        return self._command()

    def warm(self):
        return self._command()

    def check_op(self, kind: str, result) -> None:
        if self.first is None:
            self.first = result
        _require(result == self.first, "verify reports differ between calls")

    def check_final(self) -> float:
        _require(self.first is not None, "no successful verify")
        rows = {row["name"]: float(row["value"])
                for row in csv.DictReader(io.StringIO(self.first[0].decode()))}
        return _digits(max(rows["sphere/max-rel-err"], rows["strip/max-err"]))


class SphereDense:
    """Library ``reconstruct_spherical``, K=8, p=2, 20000 queries."""

    ROUND = ("cold", "warm", "warm", "warm")
    TOL = 1e-4
    INTERP_TOL = 1e-8

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        degree, count = (2, 500) if smoke else (8, 20000)
        rng = np.random.default_rng(seed)
        self.gen = spherical.random_polyspline_field(
            rng, n=3, p=2, degree_max=degree, j_min=-6, j_max=6)
        self.field = self.gen.sphere_field(-6, 6)
        self.r = np.exp(rng.uniform(-2.0, 2.0, size=count))
        d = rng.normal(size=(count, 3))
        self.d = d / np.linalg.norm(d, axis=1, keepdims=True)
        # interior spheres e^j, j = -4..4: the reconstruction must return the data
        self.js = np.repeat(np.arange(-4, 5), 16)
        e = rng.normal(size=(len(self.js), 3))
        self.e = e / np.linalg.norm(e, axis=1, keepdims=True)
        self.first = None

    def cold(self):
        return spherical.reconstruct_spherical(self.field, self.r, self.d)

    warm = cold

    def check_op(self, kind: str, result) -> None:
        if self.first is None:
            self.first = result
        _require(np.array_equal(result, self.first),
                 "reconstruction changed between repetitions")

    def _reference(self, r: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Field values from the generator's V_0 coefficients."""
        gen = self.gen
        v = np.log(r)
        shifts = gen.i_min + np.arange(gen.coeffs.shape[1], dtype=float)
        out = np.zeros(len(v))
        for k in range(gen.degree_max + 1):
            q = tb_translates(gen.spectrum(k), v, shifts)
            block = gen.coeffs[k * k:(k + 1) * (k + 1)]
            out += np.sum((block @ q) * real_harmonics(k, d), axis=0)
        return out

    def _sphere_data(self) -> np.ndarray:
        """Field values at (e^j, e) from the sphere samples themselves."""
        out = np.zeros(len(self.js))
        samples = self.field.samples[self.js - self.field.j_min]
        for k in range(self.field.degree_max + 1):
            block = samples[:, k * k:(k + 1) * (k + 1)]
            out += np.sum(block.T * real_harmonics(k, self.e), axis=0)
        return out

    def check_final(self) -> float:
        _require(self.first is not None, "no successful reconstruction")
        want = self._reference(self.r[:SUBSAMPLE], self.d[:SUBSAMPLE])
        rel = float(np.max(np.abs(self.first[:SUBSAMPLE] - want))) / float(
            np.max(np.abs(want)))
        _require(rel <= self.TOL, f"relative error {rel:.2e} above {self.TOL}")
        at_data = spherical.reconstruct_spherical(
            self.field, np.exp(self.js.astype(float)), self.e)
        data = self._sphere_data()
        dev = float(np.max(np.abs(at_data - data))) / float(np.max(np.abs(data)))
        _require(dev <= self.INTERP_TOL,
                 f"interpolation property off by {dev:.2e} on the sample spheres")
        return _digits(rel)


class StripDense:
    """Library ``reconstruct_strip``, dimension 2, cutoff 8, p=1, 10000 queries."""

    ROUND = ("cold", "warm", "warm", "warm")
    TOL = 1e-5

    def setup(self, seed: int, smoke: bool, work: Path) -> None:
        cutoff, count = (2, 500) if smoke else (8, 10000)
        rng = np.random.default_rng(seed)
        self.gen = strip.random_strip_field(
            rng, dimension=2, p=1, cutoff=cutoff, j_min=-6, j_max=6)
        self.field = self.gen.plane_field(-6, 6)
        self.t = rng.uniform(-3.0, 3.0, size=count)
        self.ys = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
        self.first = None

    def cold(self):
        return strip.reconstruct_strip(self.field, self.t, self.ys)

    warm = cold

    def check_op(self, kind: str, result) -> None:
        if self.first is None:
            self.first = result
        _require(np.array_equal(result, self.first),
                 "reconstruction changed between repetitions")

    def _reference(self, t: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Field values from the generator's V_0 coefficients, one TB matrix per |kappa|.

        Tabulating an order-2 spectrum costs a quarter second, so the TB
        values are cross-checked for every sixth |kappa| and the stiffest one.
        """
        gen = self.gen
        shifts = gen.i_min + np.arange(gen.coeffs.shape[1], dtype=float)
        stiffest = gen.cutoff ** 2
        translates = {}
        acc = np.zeros(len(t), dtype=complex)
        for coeffs, kappa in zip(gen.coeffs, gen.modes):
            ksq = sum(c * c for c in kappa)
            if ksq not in translates:
                sv = strip_spectrum(math.sqrt(ksq), gen.smoothness)
                check = len(translates) % 6 == 0 or ksq == stiffest
                translates[ksq] = tb_translates(sv, t, shifts, check)
            acc += (coeffs @ translates[ksq]) * np.exp(1j * (ys @ np.asarray(kappa)))
        return acc.real

    def check_final(self) -> float:
        _require(self.first is not None, "no successful reconstruction")
        want = self._reference(self.t[:SUBSAMPLE], self.ys[:SUBSAMPLE])
        rel = float(np.max(np.abs(self.first[:SUBSAMPLE] - want))) / float(
            np.max(np.abs(want)))
        _require(rel <= self.TOL, f"relative error {rel:.2e} above {self.TOL}")
        return _digits(rel)


WORKLOADS = {
    "sphere-cli": SphereCli,
    "sphere-dense": SphereDense,
    "strip-dense": StripDense,
    "verify": Verify,
}

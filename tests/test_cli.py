"""End-to-end checks of the command-line driver.

Everything goes through ``main(argv)`` rather than subprocess so failures
carry real tracebacks; one subprocess test at the bottom covers the
installed console script.
"""

import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from polyshannon import cli, ef_zeros, spherical, SpectrumVector
from polyshannon.shannon1d import BoundaryTailWarning, NotSamplableError, SamplingGrid
from polyshannon.cli import (
    ConfigError,
    DEFAULT_SEED,
    ExperimentConfig,
    config_digest,
    main,
    parse_config,
)


# --- configuration ------------------------------------------------------------

def test_no_config_gives_defaults():
    cfg = parse_config(None)
    assert cfg == ExperimentConfig()
    assert cfg.seed == DEFAULT_SEED
    assert cfg.grid == SamplingGrid()


def test_flat_config_parses_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "mode = zeros\n"
        "frequencies = 0, 0, 0.5, -0.5\n"
        "per_unit = 32\n"
        "tol = 1e-3\n"
        "\n"
    )
    cfg = parse_config(path)
    assert cfg.mode == "zeros"
    assert cfg.frequencies == (0.0, 0.0, 0.5, -0.5)
    assert cfg.per_unit == 32
    assert cfg.tol == pytest.approx(1e-3)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("no_such_knob = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_malformed_value_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("per_unit = many\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_threads_key_is_unknown(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("threads = 2\n")
    with pytest.raises(ConfigError, match="unknown config key 'threads'"):
        parse_config(path)


@pytest.mark.parametrize("text, message", [
    ("mode = bogus", "unknown mode 'bogus'"),
    ("seed = 18446744073709551616", "unsigned 64-bit"),
    ("queries = 0", "queries must be >= 1"),
    ("csv_step = 0", "csv_step must be >= 1"),
    ("j_min = 3\nj_max = 3", "j_max must exceed j_min"),
    ("p = 0", "spectral parameters out of range"),
    ("n = 1", "spectral parameters out of range"),
    ("k = -1", "spectral parameters out of range"),
    ("K = -1", "spectral parameters out of range"),
    ("dim = 0", "spectral parameters out of range"),
    ("tol = -1e-3", "tol must be nonnegative"),
    ("tol = small", "tol must be a number"),
    ("tol = nan", "tol must be nonnegative"),
    ("frequencies = a b", "frequencies must be numbers"),
    ("frequencies =", "at least one frequency"),
    ("frequencies = nan nan", "frequency must be finite"),
    ("frequencies = 1e400 0", "frequency must be finite"),
    ("k_min = 5\nk_max = 4", "decay sweep requires"),
    (f"k_max = {spherical.DEGREE_CAP + 1}",
     f"k_max <= {spherical.DEGREE_CAP}"),
    ("K 4", "expected 'key = value'"),
    ('{"p": 2}', "expected 'key = value'"),
    (None, "config file not found"),
])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, text, message):
    # a text starting with "{" goes to a .json file, which is flat text too
    cfg = tmp_path / ("c.json" if text and text.startswith("{") else "c.cfg")
    if text is not None:
        cfg.write_text(text + "\n")
    assert main(["zeros", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


def test_config_digest_tracks_every_field(tmp_path):
    base = ExperimentConfig()
    assert config_digest(base) != config_digest(replace(base, seed=1))
    assert config_digest(base) != config_digest(replace(base, per_unit=32))
    assert config_digest(base) == config_digest(ExperimentConfig())


# --- exit codes ---------------------------------------------------------------

def test_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["zeros", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_mode_command_mismatch_exits_2(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mode = decay\n")
    assert main(["zeros", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_odd_order_spectrum_exits_2(tmp_path, capsys):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("frequencies = 0, 0, 0\n")
    code = main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "even order N = 2p" in capsys.readouterr().err


def test_first_order_zeros_exit_2(tmp_path, capsys):
    cfg = tmp_path / "first.cfg"
    cfg.write_text("frequencies = 0\n")
    code = main(["zeros", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "N >= 2" in err and err.count("\n") == 1


@pytest.mark.parametrize("where", ["config-is-a-directory", "config-not-utf-8",
                                   "out-is-a-file", "kernels-is-a-file",
                                   "cache-entry-is-a-directory"])
def test_unusable_paths_exit_2_with_one_line(tmp_path, capsys, where):
    cfg, out = tmp_path / "c.cfg", tmp_path / "o"
    command, bad = "zeros", out
    if where == "config-is-a-directory":
        cfg.mkdir()
    elif where == "config-not-utf-8":
        cfg.write_bytes(b"mode = z\xe9ros\n")
    elif where == "out-is-a-file":
        cfg.write_text("mode = zeros\n")
        out.write_text("a file")
    elif where == "kernels-is-a-file":
        cfg.write_text("mode = kernel1d\n")
        command, bad = "kernel1d", out / "kernels"
        out.mkdir()
        bad.write_text("a file")
    else:
        cfg.write_text("mode = kernel1d\n")
        assert main(["kernel1d", "--config", str(cfg), "--out", str(out)]) == 0
        (bad,) = (out / "kernels").glob("*.pskt")
        bad.unlink()
        bad.mkdir()
        command = "kernel1d"
        capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    if where.startswith("config"):
        assert err.startswith("config error: cannot read")
    else:
        assert err.startswith("error: cannot use --out") and str(bad) in err


def test_near_coincident_frequencies_exit_2_without_traceback(tmp_path, capsys):
    cfg = tmp_path / "close.cfg"
    cfg.write_text("frequencies = 0 1e-10 3 -3\n")
    code = main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConditioningError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("freqs", ["800, -800", "700, 700, -700, -700"])
def test_overflowing_spectrum_exits_2_at_once(tmp_path, capsys, freqs):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"frequencies = {freqs}\n")
    t0 = time.perf_counter()
    code = main(["kernel1d", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConditioningError: ")
    assert "overflow float64" in err and err.count("\n") == 1


def test_not_samplable_spectrum_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def vanishing(sv, grid):
        raise NotSamplableError(f"sampled symbol of {sv} vanishes\non the circle")

    monkeypatch.setattr(cli, "synthesize_kernel", vanishing)
    assert main(["kernel1d", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotSamplableError: sampled symbol of ")
    assert err.count("\n") == 1


# --- kernel1d -----------------------------------------------------------------

def test_kernel1d_outputs_and_cache(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["kernel1d", "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert "cache miss" in first

    csv_text = (out / "kernel1d.csv").read_bytes()
    assert csv_text.startswith(b"t,s0\r\n")  # header row, CRLF line endings
    assert (out / "kernel1d-summary.txt").exists()
    cached = list((out / "kernels").glob("*.pskt"))
    assert len(cached) == 1

    assert main(["kernel1d", "--out", str(out)]) == 0
    assert "cache hit" in capsys.readouterr().out


def test_kernel1d_tail_ratio_sees_the_cut_kernel(tmp_path, capsys):
    # classical N = 16 decays slowly: on the last unit interval of the
    # default support |S_0| is still about 2e-5 of its maximum, while at the
    # integer ends themselves it vanishes by cardinality
    cfg = tmp_path / "k.cfg"
    cfg.write_text("frequencies = " + " ".join(["0"] * 16) + "\n")
    out = tmp_path / "run"
    assert main(["kernel1d", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    label = "tail ratio (last unit interval max|S_0| / max|S_0|) "
    lines = (out / "kernel1d-summary.txt").read_text().splitlines()
    (line,) = [line for line in lines if line.startswith(label)]
    assert float(line[len(label):]) >= 1e-6


def test_kernel1d_cache_is_bit_stable(tmp_path):
    out = tmp_path / "run"
    main(["kernel1d", "--out", str(out)])
    blob = next((out / "kernels").glob("*.pskt")).read_bytes()
    main(["kernel1d", "--out", str(out)])
    assert next((out / "kernels").glob("*.pskt")).read_bytes() == blob


def test_truncated_cache_entry_is_rebuilt(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 1\np = 2\nqueries = 20\nj_min = -4\nj_max = 4\n")
    out = tmp_path / "o"
    argv = ["reconstruct-sphere", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    entries = sorted((out / "kernels").glob("*.pskt"))
    good = entries[0].read_bytes()
    entries[0].write_bytes(good[:20])
    assert main(argv) == 0
    capsys.readouterr()
    assert entries[0].read_bytes() == good
    assert sorted((out / "kernels").iterdir()) == entries  # no temporary left


def test_non_finite_cache_entry_is_rebuilt(tmp_path):
    sv = SpectrumVector.from_frequencies([3.0, -3.0])
    cache = tmp_path / "kernels"
    first, path, hit = cli.cached_kernel(sv, SamplingGrid(16, 12), cache)
    assert not hit
    for bad in (np.nan, np.inf):
        raw = bytearray(path.read_bytes())
        raw[-8 * 5 : -8 * 4] = np.array([bad], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        tab, _, hit = cli.cached_kernel(sv, SamplingGrid(16, 12), cache)
        assert not hit
        assert np.all(np.isfinite(tab.values))
        assert np.array_equal(tab.values, first.values)
    assert cli.cached_kernel(sv, SamplingGrid(16, 12), cache)[2]


def test_dual_cache_entry_is_rebuilt(tmp_path):
    sv = SpectrumVector.from_frequencies([3.0, -3.0])
    cache = tmp_path / "kernels"
    first, path, _ = cli.cached_kernel(sv, SamplingGrid(16, 12), cache)
    good = path.read_bytes()
    raw = bytearray(good)
    raw[6] = 1  # the kind byte: "dual"
    path.write_bytes(bytes(raw))
    tab, _, hit = cli.cached_kernel(sv, SamplingGrid(16, 12), cache)
    assert not hit
    assert tab.kind == "interp"
    assert np.array_equal(tab.values, first.values)
    assert path.read_bytes() == good


# --- zeros --------------------------------------------------------------------

def test_zeros_csv_matches_library(tmp_path, capsys):
    cfg = tmp_path / "z.cfg"
    cfg.write_text("frequencies = 0,0,0,0,0,0,0,0\n")
    out = tmp_path / "o"
    assert main(["zeros", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "zeros.csv").read_text().strip().splitlines()
    assert rows[0] == "index,zero"
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    want = ef_zeros(SpectrumVector.from_frequencies([0.0] * 8))
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)


# --- decay --------------------------------------------------------------------

def test_decay_runs_and_reports_ratios(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("k_min = 8\nk_max = 10\nper_unit = 16\nhalf_width = 24\n")
    out = tmp_path / "o"
    assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "decay.csv").read_text().strip().splitlines()
    assert rows[0] == "k,sup_fourier,sup_time"
    assert len(rows) == 1 + 3  # one row per degree in [k_min, k_max]


def test_decay_uses_the_config_grid(tmp_path, capsys, monkeypatch):
    # the kernel suprema sit at S_0(0) = 1 on every grid, so decay.csv moves
    # with the grid only in its last bits: watch the grid reach decay_check
    asked = []

    def spy(n, p, k_max, grid):
        asked.append(grid)
        return spherical.decay_check(n, p, k_max, grid)

    monkeypatch.setattr(cli, "decay_check", spy)
    for per_unit in (8, 16):
        cfg = tmp_path / f"d{per_unit}.cfg"
        cfg.write_text(f"k_min = 1\nk_max = 2\nper_unit = {per_unit}\n"
                       "half_width = 20\n")
        out = tmp_path / f"o{per_unit}"
        assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
        want = ["k,sup_fourier,sup_time"] + [
            f"{row.degree},{row.sup_fourier!r},{row.sup_time!r}"
            for row in spherical.decay_check(3, 1, 2, SamplingGrid(per_unit, 20))[1:]
        ]
        assert (out / "decay.csv").read_text().splitlines() == want
    capsys.readouterr()
    assert asked == [SamplingGrid(8, 20), SamplingGrid(16, 20)]


def test_decay_median_has_the_bits_of_np_median():
    # statistics.median in place of np.median: the middle value of an odd
    # window and the mean of the two middle values of an even one
    rng = np.random.default_rng(4)
    for count in (5, 6, 8, 9):
        for _ in range(50):
            sups = rng.uniform(0.5, 2.0, count)
            sweep = [spherical.DecayRow(k, 1.0, float(v)) for k, v in enumerate(sups, 1)]
            _, ratio = cli._decay_ratios(sweep, 1, count)
            assert ratio.hex() == (max(sups) / float(np.median(sups))).hex()


def test_decay_leaves_numpy_ma_unloaded(tmp_path):
    # np.median's first call imports numpy.ma, about 7 ms of every fresh
    # decay and verify command
    cfg = tmp_path / "d.cfg"
    cfg.write_text("k_min = 1\nk_max = 4\n")
    code = ("import sys; from polyshannon import cli; "
            f"code = cli.main(['decay', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"


def test_span_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("span = 256\n")
    assert main(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key 'span'" in capsys.readouterr().err


def test_zero_half_width_exits_2(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("half_width = 0\n")
    assert main(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "half_width" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kernel1d", "decay", "reconstruct-sphere"])
def test_half_width_below_the_order_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("half_width = 1\nk_min = 0\nk_max = 1\nqueries = 5\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NarrowGridError:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["reconstruct-sphere", "reconstruct-strip"])
def test_sample_range_below_the_order_exits_2(tmp_path, capsys, command):
    # j_max - j_min = 4 planes or spheres apart, order 2p = 6
    cfg = tmp_path / "c.cfg"
    cfg.write_text("j_min = -2\nj_max = 2\np = 3\nqueries = 5\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NarrowGridError:") and err.count("\n") == 1


def test_reconstruct_sphere_rejects_n_other_than_3(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n = 2\nK = 1\nqueries = 5\nk_min = 0\nk_max = 2\n")
    out = tmp_path / "o"
    assert main(["reconstruct-sphere", "--config", str(cfg), "--out", str(out)]) == 2
    assert "n = 3" in capsys.readouterr().err
    for command in ("kernel1d", "zeros", "decay"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()


def test_reconstruct_sphere_rejects_degrees_beyond_the_cap(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"K = {spherical.DEGREE_CAP + 1}\nqueries = 5\n")
    t0 = time.perf_counter()
    code = main(["reconstruct-sphere", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"K <= {spherical.DEGREE_CAP}" in err
    assert err.count("\n") == 1


# --- reconstruction commands --------------------------------------------------

def test_reconstruct_sphere_small(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 2\nqueries = 50\nj_min = -4\nj_max = 4\n")
    out = tmp_path / "o"
    assert main(["reconstruct-sphere", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = (out / "recon-sphere.csv").read_text().strip().splitlines()
    assert header == "K,j_range,max_err,rms_err,runtime"
    fields = row.split(",")
    assert fields[0] == "2" and fields[1] == "-4..4"
    assert float(fields[2]) < 1e-4
    assert (out / "recon-sphere-plot.dat").exists()


def test_reconstruct_strip_small(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("K = 2\nqueries = 60\nj_min = -5\nj_max = 5\n")
    out = tmp_path / "o"
    assert main(["reconstruct-strip", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = (out / "recon-strip.csv").read_text().strip().splitlines()
    assert header == "K,j_range,max_err,rms_err,runtime"
    assert float(row.split(",")[2]) < 1e-5


def test_reconstruct_strip_in_high_dimension(tmp_path, capsys):
    # the 61 modes of the cutoff-1 ball in 30 transverse dimensions, found
    # without walking the 3^30 cube
    cfg = tmp_path / "t.cfg"
    cfg.write_text("dim = 30\nK = 1\nqueries = 50\n")
    out = tmp_path / "o"
    assert main(["reconstruct-strip", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len((out / "recon-strip-plot.dat").read_text().splitlines()) == 50


def test_reconstruct_sphere_deterministic_but_for_runtime(tmp_path, capsys):
    # both reconstruct commands: the error row but for its runtime column,
    # and the error plot byte for byte
    cfg = tmp_path / "s.cfg"
    cfg.write_text("K = 2\nqueries = 40\nj_min = -5\nj_max = 5\n")
    for name in ("sphere", "strip"):
        rows, plots = [], []
        for d in ("a", "b"):
            out = tmp_path / name / d
            main([f"reconstruct-{name}", "--config", str(cfg), "--out", str(out)])
            capsys.readouterr()
            rows.append((out / f"recon-{name}.csv").read_text().strip().splitlines()[1])
            plots.append((out / f"recon-{name}-plot.dat").read_bytes())
        first, second = (r.split(",") for r in rows)
        assert first[:4] == second[:4]  # everything except the runtime column
        assert plots[0] == plots[1]


def test_reconstruct_strip_uses_the_kernel_cache(tmp_path, capsys, monkeypatch):
    # and the sphere command: one table per |kappa|^2 in {0, 1, 2, 4}, per k <= 2
    cfg = tmp_path / "t.cfg"
    cfg.write_text("K = 2\nqueries = 40\nj_min = -5\nj_max = 5\n")

    def no_synthesis(*args, **kwargs):
        raise AssertionError("kernel synthesized despite a filled cache")

    for name, tables in (("strip", 4), ("sphere", 3)):
        out = tmp_path / name
        argv = [f"reconstruct-{name}", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        first = (out / f"recon-{name}.csv").read_text().splitlines()[1].split(",")
        plot = (out / f"recon-{name}-plot.dat").read_bytes()
        entries = sorted((out / "kernels").glob("*.pskt"))
        assert len(entries) == tables
        blobs = [path.read_bytes() for path in entries]

        with monkeypatch.context() as patch:
            patch.setattr(cli, "synthesize_kernel", no_synthesis)
            assert main(argv) == 0
        capsys.readouterr()
        second = (out / f"recon-{name}.csv").read_text().splitlines()[1].split(",")
        assert first[2:4] == second[2:4]  # max_err and rms_err
        assert (out / f"recon-{name}-plot.dat").read_bytes() == plot
        assert [path.read_bytes() for path in entries] == blobs


def test_reconstruct_queries_stay_in_the_safe_band(tmp_path, capsys):
    # queries are drawn where no kernel tail is cut, [j_min + 2, j_max - 2],
    # so a -4..4 run stays silent; a range with no such band is bad input
    cfg = tmp_path / "b.cfg"
    cfg.write_text("K = 2\nqueries = 40\nj_min = -4\nj_max = 4\n")
    for name, coord in (("sphere", np.log), ("strip", lambda t: t)):
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryTailWarning)
            assert main([f"reconstruct-{name}", "--config", str(cfg),
                         "--out", str(out)]) == 0
        t = coord(np.loadtxt(out / f"recon-{name}-plot.dat")[:, 0])
        assert -2.0 <= t.min() and t.max() <= 2.0
    for j_min, j_max in ((-1, 2), (5, 12)):
        cfg.write_text(f"K = 2\nqueries = 40\nj_min = {j_min}\nj_max = {j_max}\n")
        for name in ("sphere", "strip"):
            argv = [f"reconstruct-{name}", "--config", str(cfg),
                    "--out", str(tmp_path / "empty")]
            assert main(argv) == 2
            assert "no query band" in capsys.readouterr().err


# --- verify -------------------------------------------------------------------

def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["verify", "--out", str(out)]) == 0
        capsys.readouterr()
    a, b = (out / "verify-report.csv" for out in outs)
    assert a.read_bytes() == b.read_bytes()
    ta, tb = (out / "verify-report.txt" for out in outs)
    assert ta.read_bytes() == tb.read_bytes()
    # wall-clock time goes to stdout only, never into the report files
    assert b"wall" not in a.read_bytes()
    assert b"ALL CHECKS PASSED" in ta.read_bytes()


def test_verify_batches_its_euler_splines(monkeypatch):
    # exactly one call per battery spectrum, over the rows of all three
    # identity checks and all of the spectrum's draws; one call per draw
    # would make thousands
    calls = []
    euler_spline = cli.euler_spline

    def counting(sv, x, lam):
        calls.append(sv)
        return euler_spline(sv, x, lam)

    monkeypatch.setattr(cli, "euler_spline", counting)
    assert cli.run_verify(ExperimentConfig()).all_passed()
    battery = [sv for group in cli._battery() for sv in group]
    assert calls == battery


def test_verify_batches_its_resolvent(monkeypatch):
    # exactly one resolvent call per battery spectrum, over the rows of all
    # three identity checks and all of the spectrum's draws; one call per
    # draw would make thousands
    calls = []
    resolvent = cli.euler_spline_resolvent

    def counting(sv, x, lam):
        calls.append(sv)
        return resolvent(sv, x, lam)

    monkeypatch.setattr(cli, "euler_spline_resolvent", counting)
    assert cli.run_verify(ExperimentConfig()).all_passed()
    battery = [sv for group in cli._battery() for sv in group]
    assert calls == battery


def test_verify_draws_keep_the_stream():
    # rng.random() and a sign flip in place of uniform(0.0, 1.0),
    # uniform(0.2, 5.0) and (-1.0) ** integers(0, 2): the same floats, bit
    # for bit, and the same generator state after 10^4 draws
    new, old = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(10_000):
        x = float(old.uniform(0.0, 1.0))
        lam = float(old.uniform(0.2, 5.0)) * (-1.0) ** old.integers(0, 2)
        assert new.random().hex() == x.hex()
        assert cli._draw_lam(new).hex() == float(lam).hex()
    assert new.bit_generator.state == old.bit_generator.state


def test_verify_detects_degraded_grid(tmp_path, capsys):
    cfg = tmp_path / "degr.cfg"
    cfg.write_text("per_unit = 8\n")
    out = tmp_path / "o"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "kernel/stiff-reconstruction" in capsys.readouterr().out
    assert "FAIL" in (out / "verify-report.txt").read_text()


def test_verify_seed_flag_lands_in_report(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["verify", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert "seed 7" in (out / "verify-report.txt").read_text()


# --- console script -----------------------------------------------------------

def test_console_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "polyshannon.cli", "zeros", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert "zero count" in res.stdout

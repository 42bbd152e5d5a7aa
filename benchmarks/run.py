"""polyshannon benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload sphere-dense --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload in turn,
each in a fresh process.  ``--smoke`` shrinks every input so that a run
takes seconds.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same figures with raw seconds beside the normalised ones.
See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: a second pool thread competes with the host
# scheduler on a two-core machine and makes wall times swing (README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, Clock, Reference, pin_to_one_cpu
from tracer import Tracer, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "experiment_s": "s",
    "rerun_s": "s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

#: (metric, unit, layer, field); field names a LayerTotals attribute
PER_LAYER = [
    ("tbspline.tb_exact.hp_points", "count", "tbspline.tb_exact", "hp_points"),
    ("tbspline.tb_exact.hp_s", "s", "tbspline.tb_exact", "hp_s"),
    ("tbspline.tb_exact.float_points", "count", "tbspline.tb_exact", "float_points"),
    ("tbspline.tb_exact.float_s", "s", "tbspline.tb_exact", "float_s"),
    ("tbspline.ef_zeros.calls", "count", "tbspline.ef_zeros", "calls"),
    ("tbspline.ef_zeros.s", "s", "tbspline.ef_zeros", "total_s"),
    ("tbspline.euler_spline.s", "s", "tbspline.euler_spline", "total_s"),
    ("tbspline.euler_spline_resolvent.s", "s", "tbspline.euler_spline_resolvent",
     "total_s"),
    ("shannon1d.synthesize_dual.s", "s", "shannon1d.synthesize_dual", "total_s"),
    ("shannon1d.synthesize_kernel.calls", "count", "shannon1d.synthesize_kernel",
     "calls"),
    ("shannon1d.synthesize_kernel.s", "s", "shannon1d.synthesize_kernel", "total_s"),
    ("shannon1d.tb_superposition.s", "s", "shannon1d.tb_superposition", "total_s"),
    ("spherical.oracle_s", "s", "spherical.oracle", "total_s"),
    ("strip.oracle_s", "s", "strip.oracle", "total_s"),
    ("tables.interp6.points", "count", "tables.interp6", "points"),
    ("tables.interp6.s", "s", "tables.interp6", "total_s"),
    ("spherical.sph_harm.points", "count", "spherical.sph_harm", "points"),
    ("spherical.sph_harm.s", "s", "spherical.sph_harm", "total_s"),
    ("spherical.reconstruct_spherical.self_s", "s", "spherical.reconstruct_spherical",
     "self_s"),
    ("strip.reconstruct_strip.self_s", "s", "strip.reconstruct_strip", "self_s"),
    ("cli.cached_kernel.calls", "count", "cli.cached_kernel", "calls"),
    ("cli.cached_kernel.hit_ratio", "ratio", "cli.cached_kernel", "hit_ratio"),
    ("cli.cached_kernel.s", "s", "cli.cached_kernel", "total_s"),
    ("spherical.radial_kernel.calls", "count", "spherical.radial_kernel", "calls"),
    ("spherical.radial_kernel.hit_ratio", "ratio", "spherical.radial_kernel",
     "hit_ratio"),
    ("strip.strip_kernel.calls", "count", "strip.strip_kernel", "calls"),
    ("strip.strip_kernel.hit_ratio", "ratio", "strip.strip_kernel", "hit_ratio"),
]

WORKLOAD_NAMES = ("sphere-cli", "sphere-dense", "strip-dense", "verify")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one setup probe: every workload in seconds")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)  # child process timed for setup_s
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("seconds must be positive")
    return args


def _import_program():
    if not (ROOT / "src" / "polyshannon" / "__init__.py").is_file():
        print(f"error: no polyshannon sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _work_dir() -> Path:
    work = HERE / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _probe_setup(args) -> int:
    """Child process: imports plus input generation, then report ready.

    It then waits for its standard input to close, so that it sits idle while
    the parent takes the reference slice that closes the measurement.
    """
    workloads = _import_program()
    work = _work_dir()
    try:
        workloads.WORKLOADS[args.workload]().setup(args.seed, args.smoke, work)
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _setup_sample(args, clock):
    """Timing of one fresh process from its start to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    clock.forget()
    procs = []

    def start_and_wait_ready():
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        procs.append(proc)
        return proc.stdout.readline().strip()

    try:
        line, timing = clock.time(start_and_wait_ready)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.stdout.read()
            proc.stdout.close()
            proc.wait()
    if line != "ready" or procs[0].returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {procs[0].returncode})")
    return timing


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(args, workloads, clock, work):
    """Whole rounds of the workload's operations for about --seconds."""
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed, args.smoke, work)
    clear_caches = workloads.program_caches()
    clock.forget()

    tracer = Tracer() if args.trace else None
    run = dict(timings={"cold": [], "warm": [], "fail": []}, traced_warm=[],
               roots={}, attempted=0, failed=0, rounds=0, traced_rounds=0,
               errors=[], check_errors=[], tracer=tracer)
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    longest = 0.0
    # start a round only if it is expected to end within --seconds
    while (run["rounds"] < min_rounds
           or time.perf_counter() - start + longest <= args.seconds):
        round_start = time.perf_counter()
        traced = tracer is not None and run["rounds"] % 2 == 0
        if traced:
            tracer.install()
        try:
            for kind in wl.ROUND:
                _operation(wl, kind, run, clock, clear_caches, tracer if traced else None,
                           workloads.CheckError)
        finally:
            if traced:
                tracer.uninstall()
                run["traced_rounds"] += 1
        run["rounds"] += 1
        longest = max(longest, time.perf_counter() - round_start)
    return wl, run


def _operation(wl, kind, run, clock, clear_caches, tracer, check_error):
    """One timed operation: prepare, time, count a failure, check the output."""
    run["attempted"] += 1
    op = getattr(wl, kind)
    try:
        prepare = getattr(wl, "prepare_" + kind, None)
        if prepare is not None:
            prepare()
            clock.forget()
        if kind == "cold":
            for clear in clear_caches:
                clear()
        if tracer is not None:
            root = len(tracer.spans)
            result, timing = clock.time(tracer.run, "op." + kind, op)
            run["roots"][root] = timing
        else:
            result, timing = clock.time(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        run["failed"] += 1
        run["errors"].append(f"{kind}: {type(exc).__name__}: {exc}")
        clock.forget()
        return
    if tracer is not None:
        if kind == "warm":
            run["traced_warm"].append(timing)
    else:
        run["timings"][kind].append(timing)
    try:
        wl.check_op(kind, result)
    except check_error as exc:
        run["check_errors"].append(f"{kind}: {exc}")


def _layer_metrics(run, clock) -> tuple[dict, dict]:
    """Per-layer metrics per traced round, and the full layer table."""
    def scale(root):
        timing = run["roots"].get(root)  # None for an operation that failed
        return 1.0 if timing is None else clock.normalised(timing) / timing.raw

    tracer, per_round = run["tracer"], max(run["traced_rounds"], 1)
    totals, wall, unattributed = aggregate(tracer.spans, scale)
    metrics = {}
    for name, unit, layer, fld in PER_LAYER:
        row = totals.get(layer)
        if row is None:
            value = 0.0
        elif fld == "hit_ratio":
            value = row.hits / row.hit_known if row.hit_known else 0.0
        elif fld == "float_points":
            value = row.points - row.hp_points
        elif fld == "float_s":
            value = row.total_s - row.hp_s
        else:
            value = getattr(row, fld)
        if unit != "ratio":
            value /= per_round
        metrics[name] = {"value": value, "unit": unit}
    traced = _median([clock.normalised(t) for t in run["traced_warm"]])
    untraced = _median([clock.normalised(t) for t in run["timings"]["warm"]])
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.attributed_share"] = {
        "value": 1.0 - unattributed / wall if wall > 0 else 0.0, "unit": "ratio"}
    table = {name: vars(row) for name, row in sorted(totals.items())}
    table["(unattributed: workload code outside every layer)"] = {
        "self_s": unattributed, "wall_s": wall}
    return metrics, table


def _print_table(title, rows):
    print(title)
    for name, norm, raw, unit in rows:
        raw_text = "" if raw is None else f"{raw:>14.6g}"
        print(f"  {name:<40}{norm:>14.6g}{raw_text:>15}  {unit}")


def run_one(args) -> int:
    workloads = _import_program()
    work = _work_dir()
    clock = Clock(Reference())
    try:
        probes = [_setup_sample(args, clock) for _ in range(1 if args.smoke else 3)]
        wl, run = _measure(args, workloads, clock, work)
        errors = run["check_errors"]
        accuracy = 0.0
        try:
            accuracy = wl.check_final()
        except workloads.CheckError as exc:
            errors.append(f"final: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()
    correct = not errors

    series = {"setup_s": probes, "experiment_s": run["timings"]["cold"],
              "rerun_s": run["timings"]["warm"]}
    raw = {name: _median([t.raw for t in ts]) for name, ts in series.items()}
    end_to_end = {name: _median([clock.normalised(t) for t in ts])
                  for name, ts in series.items()}
    end_to_end["accuracy_digits"] = accuracy
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_slices = clock.reference.slices
    speed = NOMINAL_S / _median(ref_slices)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {run['rounds']} of {'+'.join(wl.ROUND)}  "
          f"attempted {run['attempted']}  failed {run['failed']}")
    print(f"samples: setup {len(probes)}  cold {len(series['experiment_s'])}  "
          f"warm {len(series['rerun_s'])};  "
          f"machine speed {speed:.3f} of nominal "
          f"(reference {_median(ref_slices) * 1e3:.3f} ms, nominal "
          f"{NOMINAL_S * 1e3:.3f} ms, {len(ref_slices)} slices)")
    for line, count in collections.Counter(run["errors"]).items():
        print(f"failed {count}x {line}")
    for line in errors:
        print(f"INCORRECT {line}")
    _print_table(f"{'end-to-end':<42}{'normalised':>14}{'raw':>15}", [
        (name, end_to_end[name], raw.get(name), END_TO_END[name])
        for name in END_TO_END])

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "rounds": run["rounds"], "round": wl.ROUND,
              "attempted": run["attempted"], "failed": run["failed"],
              "errors": run["errors"], "check_errors": errors, "raw": raw, "normalised": end_to_end,
              "samples": {name: [[t.raw, clock.normalised(t)] for t in ts]
                          for name, ts in series.items()},
              "reference_slices": ref_slices, "nominal_s": NOMINAL_S}
    if args.trace:
        metrics, table = _layer_metrics(run, clock)
        _print_table(f"{'per-layer, per traced round':<42}{'value':>14}", [
            (name, m["value"], None, m["unit"]) for name, m in metrics.items()])
        print("layer table (normalised seconds, totals over traced rounds):")
        for name, row in table.items():
            cells = "  ".join(f"{k} {v:.6g}" for k, v in row.items())
            print(f"  {name}: {cells}")
        record["per_layer"] = metrics
        record["layers"] = table
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for span in run["tracer"].spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent,
                                     span.attrs]) + "\n")

    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; one combined summary."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    pin_to_one_cpu()
    if args.probe_setup:
        return _probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

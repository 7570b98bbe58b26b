"""turanlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload lambda12 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` and the checks use ``tests/oracles.py``.  A run measures set-up in
fresh processes, then repeats rounds while another fits in ``--seconds``
(at least the workload's ``rounds``): a pass over the workload's library
operations, then its ``python -m turanlab`` subprocesses.  After the timed
rounds every answer is checked against an independent reference.  The last line of stdout is the
JSON result; ``--trace 0`` reports the end-to-end metrics in reference
seconds (wall seconds rescaled to a fixed machine speed, see refclock.py),
``--trace 1`` the per-layer metrics of traced passes in wall seconds.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("lambda12", "lambda3", "pi_small_n", "sigma_seq")
# A traced run needs an untraced and a traced pass.
MIN_TRACED_ROUNDS = 2
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SUBPROCESS_TIMEOUT = 120

CLI_SUBCOMMANDS = ("lubell", "lagrangian", "turan", "classify12", "certify", "sigma")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _subprocess(argv, stdin=""):
    """Run a child to completion; returns (start, end, exit code, stdout bytes)."""
    start = time.perf_counter()
    done = subprocess.run(argv, input=stdin.encode(), capture_output=True,
                          env=_env(), cwd=ROOT, timeout=SUBPROCESS_TIMEOUT)
    return start, time.perf_counter(), done.returncode, done.stdout


def _timed_subprocess(clock, argv, stdin=""):
    """Like _subprocess, but returns (seconds, exit code, stdout bytes):
    reference seconds with a child clock, which samples the start-up speed
    before and after the child; wall seconds without."""
    if clock is None:
        start, end, code, out = _subprocess(argv, stdin)
        return end - start, code, out
    if not clock.samples or time.perf_counter() - clock.samples[-1][1] > 1.0:
        # the last samples are too old to describe this child
        clock.sample(clock.window)
    start, end, code, out = _subprocess(argv, stdin)
    clock.sample(clock.window)  # also the samples before the next child
    return clock.seconds(start, end), code, out


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed the
    clock samples is the speed of the CPU that runs the measured work."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> None:
    """In a fresh process: import turanlab and build the workload's inputs."""
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def start_bare_python() -> None:
    """The child clock's probe."""
    _subprocess([sys.executable, "-c", "pass"])


def measure_setup(workload: str, seed: int, clock) -> tuple[float, float]:
    """Median over SETUP_REPEATS probes, in reference seconds of the child
    clock and in wall seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    ref_times, wall_times = [], []
    clock.sample(clock.window)
    for _ in range(SETUP_REPEATS):
        start, _, code, out = _subprocess(argv)
        clock.sample(clock.window)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        seconds = json.loads(out.decode().splitlines()[-1])["setup_s"]
        # the probe ran between the samples taken before and after it
        ref_times.append(clock.seconds(start, start + seconds))
        wall_times.append(seconds)
    return statistics.median(ref_times), statistics.median(wall_times)


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Pass:
    seconds: float  # reference seconds with a clock, else wall seconds
    op_seconds: list  # the same, per operation
    wall_seconds: float  # wall seconds, calibration excluded
    outcomes: list  # per op: (result or exception, payload text or None)


def run_pass(wl, canonical_form, serialize, tracer=None, clock=None) -> Pass:
    """One pass over the operations.  With a clock, the machine's speed is
    sampled throughout and times are reference seconds."""
    canonical_form.cache_clear()
    intervals = []
    outcomes = []
    if clock is not None:
        clock.start_timer()
    try:
        start = time.perf_counter()
        for index, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_id = index
            t0 = time.perf_counter()
            try:
                result = op.call()
                text = (serialize.dumps_canonical(op.payload(result)) + "\n"
                        if op.payload is not None else None)
            except Exception as exc:  # checked, counted and reported after timing
                result, text = exc, None
            intervals.append((t0, time.perf_counter()))
            outcomes.append((result, text))
        end = time.perf_counter()
    finally:
        if clock is not None:
            clock.stop_timer()
    if clock is None:
        return Pass(end - start, [b - a for a, b in intervals], end - start, outcomes)
    return Pass(clock.seconds(start, end), [clock.seconds(a, b) for a, b in intervals],
                end - start - clock.calibration_within(start, end), outcomes)


def run_cli(wl, done: Pass, child_clock=None):
    """Each CLI call once; returns [(subcommand, seconds, matched)]."""
    index = {op.name: i for i, op in enumerate(wl.ops)}
    rows = []
    for call in wl.cli:
        expected = done.outcomes[index[call.op]][1]
        seconds, code, out = _timed_subprocess(
            child_clock, [sys.executable, "-m", "turanlab", *call.args], call.stdin)
        matched = code == 0 and expected is not None and out == expected.encode()
        rows.append((call.args[0], seconds, matched))
    return rows


def run_rounds(wl, seconds, tracer=None, clock=None, child_clock=None):
    """Rounds while another one fits in `seconds`, at least `wl.rounds` (or
    MIN_TRACED_ROUNDS).  With a tracer, odd rounds run traced; the others
    stay untraced.  With clocks, times are reference seconds: `clock` for
    passes, `child_clock` for CLI children."""
    import spans
    import turanlab.hypercore
    import turanlab.serialize

    canonical_form = turanlab.hypercore.canonical_form
    least = wl.rounds if tracer is None else MIN_TRACED_ROUNDS
    plain, traced_passes, layer_rows, cli_rows = [], [], [], []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        rounds = len(plain) + len(traced_passes)
        if rounds >= least and elapsed + elapsed / rounds > seconds:
            break
        if tracer is not None and rounds % 2 == 1:
            tracer.clear()
            tracer.install()
            try:
                done = run_pass(wl, canonical_form, turanlab.serialize, tracer)
            finally:
                tracer.uninstall()
            layer_rows.append(spans.layer_metrics(tracer, canonical_form.cache_info()))
            traced_passes.append(done)
        else:
            done = run_pass(wl, canonical_form, turanlab.serialize, clock=clock)
            plain.append(done)
        cli_rows.extend(run_cli(wl, done, child_clock) for _ in range(wl.cli_repeats))
    return plain, traced_passes, layer_rows, cli_rows


def layer_metrics(layer_rows, cli_rows) -> dict:
    """Medians of the traced passes' layer metrics, plus CLI timings."""
    metrics = {
        name: (statistics.median(row[name][0] for row in layer_rows), unit)
        for name, (_, unit) in layer_rows[0].items()
    }
    metrics["cli.import_s"] = (measure_import(), "s")
    for sub in CLI_SUBCOMMANDS:
        times = [s for rows in cli_rows for name, s, _ in rows if name == sub]
        metrics[f"cli.{sub}_s"] = (statistics.median(times) if times else 0.0, "s")
    return metrics


def measure_import() -> float:
    argv = [sys.executable, "-c", "import turanlab.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        seconds, code, _ = _timed_subprocess(None, argv)
        if code != 0:
            raise RuntimeError("import turanlab.cli failed")
        times.append(seconds)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# checking


def check_rounds(wl, passes, cli_rows):
    """Returns (attempted, failed, wrong, exact, exact_base, failures)."""
    from turanlab.errors import TuranLabError

    attempted = failed = wrong = exact = base = 0
    failures = []
    for done in passes:
        for op, (result, _) in zip(wl.ops, done.outcomes):
            attempted += 1
            base += op.exact_ref
            if isinstance(result, Exception):
                failed += 1
                # an error type of the library is an honest refusal; any
                # other exception is a defect
                wrong += not isinstance(result, TuranLabError)
                failures.append(f"{op.name}: raised {type(result).__name__}: {result}")
                continue
            verdict = op.check(result)
            exact += bool(verdict.exact)
            if not verdict.ok:
                failed += 1
                wrong += 1
                failures.append(f"{op.name}: {verdict.detail}")
    for rows in cli_rows:
        for subcommand, _, matched in rows:
            attempted += 1
            if not matched:
                failed += 1
                wrong += 1
                failures.append(f"cli {subcommand}: stdout differs from the library")
    return attempted, failed, wrong, exact, base, failures


# ---------------------------------------------------------------------------
# provenance


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "turanlab" / "__init__.py").is_file() or not (
        TESTS / "oracles.py"
    ).is_file():
        sys.stderr.write(
            "error: run from a turanlab source checkout (needs src/turanlab "
            "and tests/oracles.py)\n")
        return 2
    # after this script's own directory, before any installed turanlab
    sys.path[1:1] = [str(SRC), str(TESTS)]

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    traced = bool(args.trace)
    pin_to_one_cpu()
    # compiles bytecode on a fresh checkout, so no measured child pays for it
    _subprocess([sys.executable, "-c", "import turanlab.cli"])
    import refclock  # imports numpy, so not before a set-up probe's timing

    clock = child_clock = None
    setup_s = setup_wall_s = None
    if not traced:
        clock = refclock.RefClock()
        child_clock = refclock.RefClock(start_bare_python, refclock.START_REF_S, window=2)
        setup_s, setup_wall_s = measure_setup(args.workload, args.seed, child_clock)

    import workloads

    wl = workloads.build(args.workload, args.seed)
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
    plain, traced_passes, layer_rows, cli_rows = run_rounds(
        wl, args.seconds, tracer, clock, child_clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = plain + traced_passes
    attempted, failed, wrong, exact, base, failures = check_rounds(wl, passes, cli_rows)

    solve_s = statistics.median(p.seconds for p in plain)
    if traced:
        metrics = layer_metrics(layer_rows, cli_rows)
        metrics["trace.overhead_s"] = (
            statistics.median(p.seconds for p in traced_passes) - solve_s, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.json.gz",
                     [op.name for op in wl.ops])
    else:
        metrics = {
            "solve_s": (solve_s, "s"),
            "slowest_op_s": (statistics.median(max(p.op_seconds) for p in plain), "s"),
            "cli_s": (statistics.median(sum(s for _, s, _ in rows) for rows in cli_rows),
                      "s"),
            "setup_s": (setup_s, "s"),
            "exact_share": (exact / base, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    record = {
        "provenance": provenance(args.workload, args.seed, traced),
        "rounds": len(passes),
        "failed_share": failed / attempted,
        "exact_base_per_pass": base // len(passes),
        "failures": sorted(set(failures)),
        "ops": [
            {"name": op.name, "seconds": [p.op_seconds[i] for p in passes]}
            for i, op in enumerate(wl.ops)
        ],
        "cli": [[[name, seconds] for name, seconds, _ in rows] for rows in cli_rows],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    if clock is not None:
        record["wall"] = {
            "solve_s": statistics.median(p.wall_seconds for p in plain),
            "setup_s": setup_wall_s,
            "calibrate_s": clock.typical(),
            "calibrate_samples": len(clock.samples),
            "bare_python_s": child_clock.typical(),
            "bare_python_samples": len(child_clock.samples),
        }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for line in sorted(set(failures)):
        print(f"# failed: {line}")
    print(json.dumps({key: record[key] for key in
                      ("provenance", "rounds", "failed_share", "exact_base_per_pass",
                       "wall") if key in record}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

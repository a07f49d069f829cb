"""koszulkit benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload hom_q --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the engine from ``src/`` and
the Hom oracle and goldens from ``tests/``.  A run sets up the workload
several times, runs one warm-up pass, then runs passes over fresh seeded
task lists until ``--seconds`` have gone by, checking every result outside
the timed loop.

Every time is reported at the reference speed of ``calibrate.py``: a fixed
calibration quantum runs before each task, and a pass's times are scaled by
the quantum's reference time over its mean time in that pass; process
start-ups are scaled the same way by the start-up time of a bare
interpreter run next to them.  This takes out the drift of a shared host's
CPU speed, which otherwise moves a whole run by a third.

With ``--trace 0`` it reports the end-to-end metrics: the mean wall and CPU
time of a pass, task latency percentiles, set-up time (the median start-up
of a fresh interpreter that imports the engine plus the median in-process
set-up), peak RSS and the median start-up time of a fresh
``python -m koszulkit.cli`` process.  With ``--trace 1`` it runs each pass
twice, untraced and then traced, and reports the per-layer metrics of
``layers.py`` per pass, plus the trace overhead; the spans are written to
``.perfbench_work/`` when the run ends.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import QUANTUM_REF_S, quantum, timed_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_REPEATS = 5
SETUP_QUANTA = 20
COLD_START_RUNS = 20
WORKLOAD_NAMES = ("hom_q", "koszul_cli", "triangles_fp")


def load_engine() -> float:
    """Import the engine from this checkout; returns the time spent
    importing ``koszulkit.cli`` after the core package."""
    engine = ROOT / "src" / "koszulkit" / "__init__.py"
    oracle = ROOT / "tests" / "oracle_hom.py"
    for needed in (engine, oracle):
        if not needed.is_file():
            raise SystemExit(f"perfbench: {needed.relative_to(ROOT)} not found; "
                             "run from the root of a koszulkit checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import koszulkit
    t1 = time.perf_counter()
    import koszulkit.cli  # noqa: F401  (pulls in every engine module)
    t2 = time.perf_counter()
    if Path(koszulkit.__file__).resolve() != engine.resolve():
        raise SystemExit(f"perfbench: imported koszulkit from {koszulkit.__file__}, not {engine}")
    return t2 - t1


def run_pass(tasks):
    """Run one task list, a calibration quantum before each task; returns
    (wall s, CPU s, per-task latencies in s, results) at the reference speed."""
    results, latencies, cpu, quantum_wall, quantum_cpu = [], [], 0.0, 0.0, 0.0
    for task in tasks:
        qw, qc = quantum()
        quantum_wall += qw
        quantum_cpu += qc
        c = time.process_time()
        t = time.perf_counter()
        try:
            result = task.run()
        except Exception as exc:  # a task that raises is a failed task
            result = exc
        latencies.append(time.perf_counter() - t)
        cpu += time.process_time() - c
        results.append(result)
    wall_scale = QUANTUM_REF_S * len(tasks) / quantum_wall
    cpu_scale = QUANTUM_REF_S * len(tasks) / quantum_cpu
    latencies = [lat * wall_scale for lat in latencies]
    return sum(latencies), cpu * cpu_scale, latencies, results


def count_failures(tasks, results) -> int:
    failed = 0
    for task, result in zip(tasks, results):
        try:
            ok = not isinstance(result, Exception) and task.check(result)
        except Exception as exc:
            result, ok = exc, False
        if not ok:
            failed += 1
            if isinstance(result, Exception) and failed <= 3:
                traceback.print_exception(result, file=sys.stderr)
    return failed


def engine_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def fresh_import_s() -> float:
    """Median start-up time of a fresh interpreter that imports the engine."""
    argv = [sys.executable, "-c", "import koszulkit.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, proc = timed_start(argv, ROOT, engine_env())
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: importing the engine failed:\n{proc.stderr.decode()}")
        times.append(elapsed)
    return statistics.median(times)


def timed_setup(wl) -> float:
    """``wl.setup()`` at the reference speed, from quanta run around it."""
    before = [quantum()[0] for _ in range(SETUP_QUANTA)]
    t = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - t
    after = [quantum()[0] for _ in range(SETUP_QUANTA)]
    return elapsed * QUANTUM_REF_S / statistics.fmean(before + after)


def cold_start() -> tuple[float, bool]:
    """Start-up time of one fresh ``python -m koszulkit.cli validate FIX_PT`` run."""
    argv = [sys.executable, "-m", "koszulkit.cli", "validate", "FIX_PT"]
    elapsed, proc = timed_start(argv, ROOT, engine_env())
    try:
        ok = proc.returncode == 0 and json.loads(proc.stdout)["payload"]["ok"] is True
    except (ValueError, KeyError):
        ok = False
    return elapsed, ok


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, seconds: int):
    """One warm-up pass, then passes until ``seconds`` have gone by, with
    the cold-start samples spread over the same window."""
    walls, cpus, latencies, colds = [], [], [], []
    attempted, failed = 1, 0
    failed += not cold_start()[1]              # warms the caches; not timed
    tasks = wl.tasks(0)
    results = run_pass(tasks)[3]
    attempted += len(tasks)
    failed += count_failures(tasks, results)
    start = time.perf_counter()
    p = 1
    while p <= MIN_PASSES or time.perf_counter() - start < seconds:
        tasks = wl.tasks(p)
        wall, cpu, lat, results = run_pass(tasks)
        walls.append(wall)
        cpus.append(cpu)
        latencies.extend(lat)
        attempted += len(tasks)
        failed += count_failures(tasks, results)
        p += 1
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(colds) < COLD_START_RUNS * share:
            elapsed, ok = cold_start()
            colds.append(elapsed)
            attempted += 1
            failed += not ok
    metrics = {
        "wall_s": (statistics.fmean(walls), "s"),
        "cpu_s": (statistics.fmean(cpus), "s"),
        "task_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "task_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "cold_start_s": (statistics.median(colds), "s"),
    }
    notes = {"timed passes": len(walls), "task samples": len(latencies), "cold starts": len(colds)}
    return metrics, attempted, failed, notes


def measure_traced(wl, seconds: int, cli_import_s: float, spans_path: Path):
    from layers import derive, install
    from spans import Recorder

    rec = Recorder()
    untraced = traced = 0.0
    attempted = failed = report_bytes = 0
    start = time.perf_counter()
    p = 0
    while p < 1 or time.perf_counter() - start < seconds:
        for tracing in (False, True):
            tasks = wl.tasks(p)          # fresh inputs for each of the two runs
            uninstall = install(rec) if tracing else None
            try:
                wall, _, _, results = run_pass(tasks)
            finally:
                if uninstall:
                    uninstall()
            if tracing:
                traced += wall
                report_bytes += wl.report_bytes(results)
            else:
                untraced += wall
            attempted += len(tasks)
            failed += count_failures(tasks, results)
        p += 1
    rec.write(spans_path)
    metrics = derive(rec, p, {
        "cli.report_bytes": report_bytes / p,
        "cli.import_s": cli_import_s,
        "trace.overhead_frac": (traced - untraced) / untraced,
    })
    notes = {"traced passes": p, "spans": len(rec.name), "spans file": spans_path.relative_to(ROOT)}
    return {k: (v["value"], v["unit"]) for k, v in metrics.items()}, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    cli_import_s = load_engine()
    from workloads import WORK_DIR, WORKLOADS

    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        wl = cls(args.seed, ROOT, reference)
        setups.append(timed_setup(wl))

    if args.trace:
        spans_path = ROOT / WORK_DIR / f"spans-{args.workload}-{args.seed}.bin"
        metrics, attempted, failed, notes = measure_traced(wl, args.seconds, cli_import_s, spans_path)
    else:
        metrics, attempted, failed, notes = measure(wl, args.seconds)
        metrics["setup_s"] = (fresh_import_s() + statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  tasks attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads hom_q koszul_cli triangles_fp \\
        --seeds 101-110 --seconds 30 [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (q3 - q1) / median.  With ``--out`` it writes the same
figures as JSON, in the form ``baseline.json`` keeps them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({' '.join(argv)}):\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run reported failures ({' '.join(argv)}):\n{proc.stdout}")
    return result


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
                     "spread": round((q3 - q1) / median, 4) if median else 0.0,
                     "unit": first["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            metrics = results[-1]["metrics"]
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in metrics.items()), flush=True)
        report[workload] = summarise(results)
        for name, s in report[workload].items():
            print(f"  {workload:<13} {name:<36} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

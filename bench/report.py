"""Run every workload untraced and traced, print one table, optionally save it.

    python3 bench/report.py --seed 1 --seconds 15 [--out bench/results/FILE.json]

Each run is a separate ``bench/run.py`` process, as a single measurement
would be. The table lists every end-to-end metric with its unit per
workload, the workload-specific figures beside them, every per-layer metric
of the traced run, and the tracing overhead: traced minus untraced
``op_p50_s``. On every workload it also compares the per-op gap between the
op wall time and the sum of span self times with that overhead.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    lines = res.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("# detail "):]) for ln in lines if ln.startswith("# detail "))
    return {**json.loads(lines[-1]), **detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload or WORKLOADS:
        plain = one_run(workload, args.seed, args.seconds, 0)
        traced = one_run(workload, args.seed, args.seconds, 1)
        overhead = traced["metrics"]["traced.op_p50_s"]["value"] - plain["extra"]["op_p50_s"][0]
        gap = traced["metrics"]["traced.self_sum_gap_s"]["value"]
        report[workload] = {
            "environment": plain["environment"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "workload_figures": {k: {"value": v, "unit": u} for k, (v, u) in plain["extra"].items()},
            "per_layer": traced["metrics"],
            "tracing_overhead_s": overhead,
            "self_sum_gap_within_overhead": gap <= abs(overhead),
            "failures": plain["failures"] + traced["failures"],
        }
        w = report[workload]
        print(f"== {workload}: correct={w['correct']} attempted={w['attempted']} failed={w['failed']}")
        for section in ("end_to_end", "workload_figures", "per_layer"):
            for name, m in w[section].items():
                print(f"   {section:<16} {name:<44} {m['value']:>16.6g} {m['unit']}")
        print(f"   tracing overhead (traced - untraced op_p50_s): {overhead:.6g} s; "
              f"op wall minus summed self times: {gap:.6g} s "
              f"({'within' if w['self_sum_gap_within_overhead'] else 'outside'} the overhead)")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

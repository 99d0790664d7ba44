"""phononbus benchmark: one run of one workload.

    python3 bench/run.py --workload protocol-mix --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is loaded from ``src``.
Inputs come from ``--seed``; every output is checked against references
computed here. Human-readable lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from the traced run with ``--trace 1``. Workloads are described in
``workloads.py``.

BLAS and OpenMP are pinned to one thread before numpy loads: with the default
two threads on two cores, run-to-run times vary by up to 60%.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phononbus" / "__init__.py").is_file():
        print(f"error: no phononbus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import phononbus
    import workloads
    from tracing import MissingHook

    if Path(phononbus.__file__).resolve().parent != ROOT / "src" / "phononbus":
        print(f"error: phononbus loaded from {phononbus.__file__}, not from the checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    try:
        result = workloads.run_workload(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingHook as exc:
        print(f"error: tracing hook missing: {exc}", file=sys.stderr)
        return 2
    detail = {k: result[k] for k in ("environment", "extra", "failures", "op_durations_s")}
    print(f"# detail {json.dumps(detail, sort_keys=True)}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"# {args.workload:<14} {name:<44} {value:>16.6g} {unit}")
    print(f"# checks: {result['extra']['oracle_checks'][0]} oracle comparisons, "
          f"{result['attempted']} checked operations, {result['failed']} failed")
    for failure in result["failures"]:
        print("# FAILED " + failure.replace("\n", " | "))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

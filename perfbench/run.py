"""Drop-throughput benchmark for the d2dcache simulator.

Usage, from the repository root:

    python3 perfbench/run.py --workload coop_k30 --seed 1 --seconds 35 --trace 0

Runs one workload (see bench.WORKLOADS and perfbench/METRICS.md) against the
library in ./src, prints one "name value unit" line per metric, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end set, measured untraced; with --trace 1 they
are the per-layer set from a traced replay.  Artifacts (results.csv files,
spans.jsonl, result.json) go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# setup_s is the median of this many set-ups: this process's and fresh child
# interpreters' for the rest
SETUP_RUNS = 3


def units_of() -> dict:
    """Metric name -> unit, from the BENCHMARK.json next to the sources."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def setup(workload_name: str):
    """Import the library, validate the workload config and warm up; the
    span from interpreter start to here is one set-up sample."""
    if not (SRC / "d2dcache" / "__init__.py").is_file():
        sys.exit(f"error: library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bench

    if workload_name not in bench.WORKLOADS:
        sys.exit(f"error: unknown workload {workload_name!r}; "
                 f"choose from {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[workload_name]
    bench.warm_up(bench.workload_config(workload))
    return bench, workload, time.perf_counter() - START


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running this script's set-up."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    bench, workload, setup_s = setup(args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    units = units_of()
    out = bench.OUT_ROOT / workload.name / f"seed{args.seed}_trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    metrics, report = bench.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), out
    )
    if not args.trace:
        samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_RUNS - 1)]
        metrics["setup_s"] = statistics.median(samples)

    machine = bench.machine()
    correct = (
        report["failed"] == 0
        and report["csv_identical"]
        and all(math.isfinite(v) for v in metrics.values())
    )
    (out / "result.json").write_text(
        json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "machine": machine, "report": report, "metrics": metrics}, indent=2),
        encoding="utf-8",
    )
    for error in report["errors"]:
        print(error.rstrip(), file=sys.stderr)
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name}: {report['attempted']} drops in {report['units']} units, "
          f"failed_drop_share {report['failed_drop_share']!r} share, "
          f"drop latency samples {report['drop_samples']}, "
          f"results.csv identical across passes: {report['csv_identical']}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

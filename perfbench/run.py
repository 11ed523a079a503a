"""Run the flowcast benchmark: each workload in a fresh worker process.

    python3 perfbench/run.py                                # every workload
    python3 perfbench/run.py --workload train_n8_static --seed 3 --seconds 30 --trace 1

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json and ``--seed`` to
the seed the stored reference was made at.

For each workload, the inputs are generated from the seed and written as CSV
(plus a checkpoint for inference) to a scratch directory; a worker process,
with BLAS pinned to one thread, sets up from those files and runs the closed
loop. The lines before the last describe each run (environment, sample
counts, every metric under its per-workload name); the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import flowcast  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Workload, generate_inputs  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")   # scratch inputs and span files
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "step_s": "s", "windows_per_s": "windows/s",
                    "peak_rss_mb": "MB"}
# The end-to-end metrics under the names each kind of workload gives them.
NAMED = {
    "train": {"step_s": "train_step_s", "windows_per_s": "train_windows_per_s"},
    "infer": {"step_s": "infer_batch_s", "windows_per_s": "infer_windows_per_s"},
}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 reference: str | None = REFERENCE) -> dict:
    """Generate the inputs, run the worker process and return its result."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=RUNS_DIR) as tmp:
        generate_inputs(w, seed, tmp)
        result_path = os.path.join(tmp, "result.json")
        cmd = [sys.executable, WORKER, "--workload", w.name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--inputs", tmp, "--result", result_path]
        if reference:
            cmd += ["--reference", reference]
        if trace:
            cmd += ["--spans", os.path.join(RUNS_DIR, f"spans-{w.name}-seed{seed}.jsonl")]
        subprocess.run(cmd, env={**os.environ, **PINNED_THREADS}, check=True,
                       timeout=WORKER_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as f:
            return json.load(f)


def metrics_of(result: dict) -> dict:
    """The metrics of the result line: name -> {"value", "unit"}."""
    if result["trace"]:
        pairs = tracing.per_layer_metrics(result["per_layer"])
    else:
        pairs = {name: (result["end_to_end"][name], unit)
                 for name, unit in END_TO_END_UNITS.items()}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def report_lines(result: dict) -> list[str]:
    """Human-readable description of one run, every metric with its unit."""
    named = NAMED[result["kind"]]
    lines = [f"# {result['workload']} seed={result['seed']} trace={int(result['trace'])}",
             "# env " + json.dumps(result["env"], sort_keys=True),
             "# samples " + json.dumps(result["samples"])]
    for name, unit in {**END_TO_END_UNITS, "cold_setup_s": "s", "warmup_s": "s"}.items():
        lines.append(f"{named.get(name, name):<24} {result['end_to_end'][name]:.6g} {unit}")
    share = result["failed"] / result["attempted"]
    lines.append(f"{'failed_op_share':<24} {share:.6g} ratio "
                 f"({result['failed']} of {result['attempted']})")
    lines += [f"# failure {text}" for text in result["failures"]]
    for name, value in result.get("per_layer", {}).items():
        unit = "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else \
            "ratio" if name.endswith("_share") else "count"
        lines.append(f"{name:<32} {value:.6g} {unit}")
    return lines


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in results:
        for name, metric in metrics_of(r).items():
            metrics[f"{r['workload']}.{name}" if prefix else name] = metric
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED, help="input seed")
    parser.add_argument("--seconds", type=float, help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(flowcast.__file__).startswith(SRC + os.sep):
        parser.error(f"flowcast was imported from {flowcast.__file__}, not from {SRC}")

    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            args.seconds = json.load(f)["run_seconds"]

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(report_lines(result)), flush=True)
        results.append(result)
    print(result_line(results, prefix=args.workload is None))
    return 0


if __name__ == "__main__":
    sys.exit(main())

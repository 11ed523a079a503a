"""One workload run, in its own process: set up from the generated files,
warm up, then run steps or batches in a closed loop for the given seconds.

Launched by run.py with the BLAS thread count pinned through the
environment; writes one JSON result file and, when traced, a span file.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --inputs DIR --result PATH [--reference PATH] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from flowcast import autodiff as ad  # noqa: E402
from flowcast import data  # noqa: E402
from flowcast import model as md  # noqa: E402
from flowcast import training as tr  # noqa: E402
from flowcast.autodiff import Tensor  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import (INPUT_STEPS, OUTPUT_STEPS, REFERENCE_SEED, WORKLOADS, Workload,  # noqa: E402
                       input_paths)

RTOL = 1e-9          # relative tolerance of every correctness comparison
SETUP_SHARE = 0.05   # share of the measuring window spent repeating the set-up
MIN_SETUPS = 5       # warm set-ups a run makes at the least
MIN_TIMED_STEPS = 2  # a traced run needs one traced and one untraced step
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRAIN_CONFIG = tr.TrainConfig()


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def checksum(a: np.ndarray) -> list[float]:
    """Absolute sum, sum and a position-weighted sum of an array: a wrong
    value, sign or layout changes at least one of them."""
    flat = np.ravel(a)
    return [float(np.abs(flat).sum()), float(flat.sum()),
            float(flat @ np.cos(np.arange(flat.size)))]


def mismatch(got: dict, ref: dict) -> str | None:
    """Name the first check value of ``got`` that differs from ``ref`` by more
    than RTOL of the reference's leading (absolute) value."""
    for key, ref_values in ref.items():
        scale = abs(ref_values[0])
        for i, (g, r) in enumerate(zip(got[key], ref_values)):
            if not abs(g - r) <= RTOL * scale:
                return f"{key}[{i}] = {g!r}, expected {r!r}"
    return None


def check_step(w: Workload, pos: int, pred: np.ndarray, got: dict,
               earlier: dict | None, reference: dict | None) -> str | None:
    """Why a step's outputs are wrong, or None: predictions must be finite and
    shaped [B, T_out, N], and the check values must match both the first step
    at the same cycle position and the stored reference."""
    expected = (w.batch, OUTPUT_STEPS, w.nodes)
    if pred.shape != expected:
        return f"predictions shaped {pred.shape}, expected {expected}"
    values = [v for vs in got.values() for v in vs]
    if not all(math.isfinite(v) for v in values) or not np.isfinite(pred).all():
        return "non-finite loss, gradient or prediction"
    if earlier is not None and (diff := mismatch(got, earlier)):
        return f"differs from this run's earlier step at cycle position {pos}: {diff}"
    if reference is not None and (diff := mismatch(got, reference)):
        return f"differs from the reference at cycle position {pos}: {diff}"
    return None


class Setup:
    """Everything a workload needs before its first step, built from the
    generated files exactly as a user's run would."""

    def __init__(self, w: Workload, seed: int, paths: dict, span):
        with span("setup"):
            with span("data.load_series"):
                series = data.load_series(paths["series"])
            with span("data.load_adjacency"):
                adjacency = data.load_adjacency(paths["adjacency"])
            with span("data.windows"):
                train_seg, _, test_seg = data.chronological_split(
                    series, min_segment=INPUT_STEPS + OUTPUT_STEPS)
                normalizer = data.Normalizer.fit(train_seg.values)
                segment = train_seg if w.kind == "train" else test_seg
                x, y = data.make_windows(normalizer.normalize(segment.values),
                                         INPUT_STEPS, OUTPUT_STEPS)
                count = w.cycle * w.batch
                if x.shape[0] < count:
                    raise ValueError(f"{w.name}: {x.shape[0]} windows, need {count}")
                if w.kind == "train":
                    order = np.random.default_rng(seed).permutation(x.shape[0])[:count]
                else:
                    order = np.arange(count)
                self.batches = [(x[idx], y[idx]) for idx in np.split(order, w.cycle)]
            if w.kind == "train":
                with span("model.build"):
                    self.model = md.Forecaster(md.config_from_dict(w.model_config(seed)),
                                               adjacency=adjacency)
                self.initial = self.model.params.values_copy()
            else:
                with span("model.checkpoint_load"):
                    echo, values = md.load_checkpoint(paths["checkpoint"])
                with span("model.build"):
                    self.model = md.Forecaster(md.config_from_dict(echo["model"]),
                                               adjacency=adjacency)
                with span("model.checkpoint_load"):
                    self.model.params.load_values(values)


def train_step(model: md.Forecaster, adam: tr.AdamState, x: np.ndarray, y: np.ndarray,
               tracer: tracing.Tracer | None) -> tuple[float, np.ndarray, dict]:
    """The calls training.fit makes per batch; returns the loss, the
    predictions and, when traced, the tape statistics."""
    span = tracer.span if tracer else nullcontext
    model.params.zero_grads()
    pred = model.forward(Tensor(x), training=True)
    with span("model.loss"):
        loss = md.l1_loss(pred, Tensor(y))
    value = loss.item()
    stats = {}
    if tracer:
        stats = tracing.tape_stats()
        tracing.trace_backward_rules(tracer)
    with span("autodiff.backward"):
        ad.backward(loss)
    with span("training.adam"):
        tr.adam_step(model.params, adam, TRAIN_CONFIG)
    return value, pred.data, stats


def run(w: Workload, seed: int, seconds: float, trace: bool, paths: dict,
        reference: dict | None) -> tuple[dict, tracing.Tracer | None]:
    """Set up, warm up and run the closed loop; returns the result record.

    ``reference`` maps cycle positions to stored check values; it applies only
    at REFERENCE_SEED. Every step is also compared with the first step this
    run made at the same cycle position.

    The first set-up is the cold one the steps run on. ``setup_s`` is the
    median of the warm set-ups repeated between timed steps, SETUP_SHARE of
    the window in all, so they sample the same host conditions as the steps.
    """
    tracer = tracing.Tracer() if trace else None
    span = tracer.span if tracer else nullcontext
    patches = tracing.Patches(tracer) if trace else None

    setup_times = []

    def timed_setup() -> Setup:
        if tracer:
            tracer.step = f"setup-{len(setup_times)}"
        t0 = perf_counter()
        state = Setup(w, seed, paths, span)
        setup_times.append(perf_counter() - t0)
        return state

    state = timed_setup()
    refs = reference if seed == REFERENCE_SEED else None
    observed, failures = {}, []
    warmup_times, step_times, tape = [], [], []
    traced_steps, traced_times, untraced_times = [], [], []
    adam = None
    step = 0
    loop_start = None
    while True:
        warm = step < w.warmup
        if not warm:
            if loop_start is None:
                loop_start = perf_counter()
            elapsed = perf_counter() - loop_start
            if len(step_times) >= MIN_TIMED_STEPS and \
                    elapsed + statistics.median(step_times) > seconds:
                break
        pos = step % w.cycle
        x, y = state.batches[pos]
        traced = trace and (warm or len(step_times) % 2 == 0)
        if tracer:
            tracer.step = step if traced else None
        if w.kind == "train" and pos == 0:
            state.model.params.load_values(state.initial)
            adam = tr.AdamState(state.model.params)
        stats = {}
        failure = None
        with patches.installed() if traced else nullcontext():
            t0 = perf_counter()
            try:
                with span("step") if traced else nullcontext():
                    if w.kind == "train":
                        loss, pred, stats = train_step(state.model, adam, x, y,
                                                       tracer if traced else None)
                    else:
                        with span("training.predict") if traced else nullcontext():
                            pred = state.model.predict(x)
            except Exception as exc:  # a failed step is counted, the loop goes on
                ad.reset_tape()
                failure = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0

        if failure is None:
            got = {"pred": checksum(pred)}
            if w.kind == "train":
                got["loss"] = [loss]
                got["grad"] = checksum(np.concatenate(
                    [p.grad.ravel() for _, p in state.model.params]))
            failure = check_step(w, pos, pred, got, observed.get(pos),
                                 refs[str(pos)] if refs is not None else None)
            observed.setdefault(pos, got)
        if failure is not None:
            failures.append(f"step {step}: {failure}")

        if warm:
            warmup_times.append(dt)
        else:
            step_times.append(dt)
            if traced:
                traced_steps.append(step)
                traced_times.append(dt)
                if stats:
                    tape.append(stats)
            elif trace:
                untraced_times.append(dt)
            while sum(setup_times[1:]) < SETUP_SHARE * (perf_counter() - loop_start):
                timed_setup()
        step += 1
    while len(setup_times) <= MIN_SETUPS:
        timed_setup()

    windows = w.batch * len(step_times)
    result = {
        "workload": w.name,
        "kind": w.kind,
        "seed": seed,
        "trace": trace,
        "env": environment(seed),
        "samples": {"setup": len(setup_times) - 1, "warmup": len(warmup_times),
                    "steps": len(step_times)},
        "attempted": step,
        "failed": len(failures),
        "failures": failures[:5],
        "end_to_end": {
            "setup_s": statistics.median(setup_times[1:]),
            "cold_setup_s": setup_times[0],
            "warmup_s": sum(warmup_times),
            "step_s": statistics.median(step_times),
            "windows_per_s": windows / sum(step_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "observed": {str(pos): values for pos, values in sorted(observed.items())},
    }
    if trace:
        result["samples"].update(traced_steps=len(traced_steps),
                                 untraced_steps=len(untraced_times))
        result["per_layer"] = _per_layer(tracer, traced_steps, traced_times, untraced_times, tape)
    return result, tracer


def _per_layer(tracer, traced_steps, traced_times, untraced_times, tape) -> dict:
    grouped = tracer.by_step()
    per_step = [tracing.step_layers(grouped[s]) for s in traced_steps]
    per_setup = [tracing.setup_layers(grouped[k]) for k in grouped
                 if isinstance(k, str) and k.startswith("setup-") and k != "setup-0"]
    layers = {name: statistics.median(r[name] for r in per_step) for name in per_step[0]}
    layers.update({name: statistics.median(r[name] for r in per_setup) for name in per_setup[0]})
    for name in ("autodiff.tape_entries", "autodiff.tape_retained_mb"):
        layers[name] = statistics.median(s[name] for s in tape) if tape else 0
    layers["trace.step_s"] = statistics.median(traced_times)
    layers["trace.overhead_share"] = layers["trace.step_s"] / statistics.median(untraced_times) - 1
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--reference")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as f:
            reference = json.load(f).get(w.name)
    result, tracer = run(w, args.seed, args.seconds, bool(args.trace),
                         input_paths(args.inputs), reference)
    if tracer is not None and args.spans:
        tracer.write_jsonl(args.spans)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

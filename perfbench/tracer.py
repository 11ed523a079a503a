"""Spans recorded from outside the library, and the per-layer metrics built
from them.

A traced step patches the public functions of each layer with wrappers that
record one span per call: (id, parent id, step id, name, start, end). Forward
ops are the public functions of ``flowcast.autodiff``; backward rules are the
closures on the tape, wrapped just before ``backward`` and named by the op
that recorded them (``einsum.<locals>.back`` -> ``einsum``). Spans stay in
memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Ops the per-layer metrics name one by one; every other op counts as "other".
NAMED_OPS = ("einsum", "matmul", "softmax", "layer_norm", "select", "stack", "concat",
             "sigmoid", "tanh", "mul", "add", "scalar_affine", "transpose", "reshape",
             "relu", "dropout")
OP_LABELS = NAMED_OPS + ("other",)
_NOT_OPS = {"tape", "reset_tape", "no_grad", "backward"}

# per-layer metric -> span name, summed over one step
STEP_STAGES = {
    "model.forward_s": "model.forward",
    "graphs.build_s": "graphs.build",
    "recurrent.encode_s": "recurrent.encode",
    "attention.global_s": "attention.global",
    "model.loss_s": "model.loss",
    "autodiff.backward_s": "autodiff.backward",
    "training.adam_s": "training.adam",
    "training.predict_s": "training.predict",
}
# per-layer metric -> span name, summed over one set-up
SETUP_STAGES = {
    "trace.setup_s": "setup",
    "data.load_series_s": "data.load_series",
    "data.load_adjacency_s": "data.load_adjacency",
    "data.windows_s": "data.windows",
    "model.checkpoint_load_s": "model.checkpoint_load",
}


def op_functions(autodiff) -> list[str]:
    """Names of the public differentiable ops of the autodiff module."""
    return sorted(name for name, fn in vars(autodiff).items()
                  if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                  and not name.startswith("_") and name not in _NOT_OPS)


def op_label(op: str) -> str:
    return op if op in NAMED_OPS else "other"


class Tracer:
    """In-memory span recorder. ``step`` is stamped on every span opened
    while it is set."""

    def __init__(self):
        # Closed spans are tuples of numbers and strings, which the garbage
        # collector stops tracking, so a long run's spans do not slow it.
        self.spans = []      # (id, parent, step, name, start, end), in closing order
        self.step = None
        self._open = []      # (id, name, start) of the spans still open
        self._next_id = 0

    def begin(self, name: str):
        self._open.append((self._next_id, name, perf_counter()))
        self._next_id += 1

    def end(self):
        end = perf_counter()
        sid, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans.append((sid, parent, self.step, name, start, end))

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def by_step(self) -> dict:
        grouped = defaultdict(list)
        for s in self.spans:
            grouped[s[2]].append(s)
        return grouped

    def write_jsonl(self, path: str):
        keys = ("id", "parent", "step", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


class Patches:
    """The wrappers a traced step installs on the library, removed after it."""

    def __init__(self, tracer: Tracer):
        from flowcast import attention, autodiff, model, recurrent

        targets = [(autodiff, op, f"autodiff.{op}.fwd") for op in op_functions(autodiff)]
        targets += [
            (recurrent, "encode_sequence", "recurrent.encode"),
            (attention, "apply_global_layer", "attention.global"),
            (model.Forecaster, "build_bundle", "graphs.build"),
            (model.Forecaster, "forward", "model.forward"),
        ]
        self._slots = [(owner, attr, getattr(owner, attr), tracer.wrap(getattr(owner, attr), name))
                       for owner, attr, name in targets]

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapped in self._slots:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._slots:
                setattr(owner, attr, original)


def trace_backward_rules(tracer: Tracer):
    """Wrap every backward rule on the tape so ``backward`` records it."""
    from flowcast import autodiff

    tape = autodiff.tape()
    tape.entries = [
        (out, inputs, tracer.wrap(fn, f"autodiff.{fn.__qualname__.split('.')[0]}.bwd"))
        for out, inputs, fn in tape.entries
    ]


def tape_stats() -> dict:
    """Entry count and bytes of the distinct output arrays on the tape."""
    from flowcast import autodiff

    entries = autodiff.tape().entries
    arrays = {id(out.data): out.data.nbytes for out, _, _ in entries}
    return {"autodiff.tape_entries": len(entries),
            "autodiff.tape_retained_mb": sum(arrays.values()) / 2**20}


def _durations(spans) -> dict:
    total = defaultdict(float)
    for _, _, _, name, start, end in spans:
        total[name] += end - start
    return total


def step_layers(spans) -> dict:
    """Per-layer seconds and op call counts of one step's spans."""
    total = _durations(spans)
    out = {metric: total[name] for metric, name in STEP_STAGES.items()}
    out["model.head_s"] = (out["model.forward_s"] - out["graphs.build_s"]
                           - out["recurrent.encode_s"] - out["attention.global_s"])
    for label in OP_LABELS:
        out[f"autodiff.{label}.calls"] = 0
        out[f"autodiff.{label}.fwd_s"] = 0.0
        out[f"autodiff.{label}.bwd_s"] = 0.0
    for _, _, _, name, start, end in spans:
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "autodiff" and parts[2] in ("fwd", "bwd"):
            label = op_label(parts[1])
            out[f"autodiff.{label}.{parts[2]}_s"] += end - start
            if parts[2] == "fwd":
                out[f"autodiff.{label}.calls"] += 1
    return out


def setup_layers(spans) -> dict:
    total = _durations(spans)
    return {metric: total[name] for metric, name in SETUP_STAGES.items()}


# Per-layer times in seconds that some workload never runs (backward on
# inference, the checkpoint on training, softmax on the static graph, ...)
# are reported as shares of the traced step or set-up instead, so that no
# time metric is a constant zero; the seconds stay in the metric lines.
SECONDS_METRICS = ("trace.step_s", "trace.setup_s", "model.forward_s", "graphs.build_s",
                   "recurrent.encode_s", "attention.global_s", "model.head_s",
                   "data.load_series_s", "data.load_adjacency_s", "data.windows_s")
STEP_SHARE_METRICS = (("autodiff.backward_s", "model.loss_s", "training.adam_s",
                       "training.predict_s")
                      + tuple(f"autodiff.{label}.{phase}_s"
                              for label in OP_LABELS for phase in ("fwd", "bwd")))
SETUP_SHARE_METRICS = ("model.checkpoint_load_s",)
COUNT_METRICS = ("autodiff.tape_entries",) + tuple(f"autodiff.{label}.calls" for label in OP_LABELS)


def per_layer_metrics(layers: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json: name -> (value, unit)."""
    out = {name: (layers[name], "s") for name in SECONDS_METRICS}
    for name in STEP_SHARE_METRICS:
        out[name[:-2] + "_share"] = (layers[name] / layers["trace.step_s"], "ratio")
    for name in SETUP_SHARE_METRICS:
        out[name[:-2] + "_share"] = (layers[name] / layers["trace.setup_s"], "ratio")
    for name in COUNT_METRICS:
        out[name] = (layers[name], "count")
    out["autodiff.tape_retained_mb"] = (layers["autodiff.tape_retained_mb"], "MB")
    out["trace.overhead_share"] = (layers["trace.overhead_share"], "ratio")
    return out

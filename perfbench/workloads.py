"""The benchmark's workloads and the inputs each one is generated from.

A workload fixes the model shape and the load: ``train`` workloads repeat the
calls ``training.fit`` makes per batch, ``infer`` workloads repeat one
``Forecaster.predict`` batch. Both cycle through a fixed list of ``cycle``
batches, and a train workload restarts from the initial parameters at the
start of every cycle, so each step or batch has a stored reference
(``reference.json``) and every repeat of a cycle position must reproduce it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

INPUT_STEPS = 12
OUTPUT_STEPS = 12
CHEB_ORDER = 2
REFERENCE_SEED = 0   # the seed reference.json was made at


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "train" or "infer"
    nodes: int
    series_steps: int    # length of the generated series, in 5-minute ticks
    batch: int
    graph_mode: str
    gst2_variant: str
    warmup: int          # leading steps or batches kept out of the step metrics
    cycle: int           # batches per cycle (see the module docstring)
    embed_dim: int = 8
    hidden_dim: int = 32
    heads: int = 4

    def model_config(self, seed: int) -> dict:
        """ModelConfig fields for this workload; dropout is off so every
        step is deterministic and comparable with the reference."""
        return {
            "n_nodes": self.nodes, "input_steps": INPUT_STEPS, "output_steps": OUTPUT_STEPS,
            "embed_dim": self.embed_dim, "hidden_dim": self.hidden_dim,
            "cheb_order": CHEB_ORDER, "heads": self.heads,
            "graph_mode": self.graph_mode, "gst2_variant": self.gst2_variant,
            "dropout_input": 0.0, "dropout_inner": 0.0, "seed": seed,
        }


WORKLOADS = {w.name: w for w in (
    # Test-suite scale with a static graph and no global block: per-op overhead
    # dominates, and attention or per-step graph changes must show no effect.
    Workload(
        name="train_n8_static", kind="train", nodes=8, series_steps=576, batch=64,
        graph_mode="static", gst2_variant="none", warmup=3, cycle=2,
    ),
    # The ROADMAP baseline: contraction-bound, with the [B, T, h, N, N]
    # attention tensors filling the tape.
    Workload(
        name="train_n100_seq", kind="train", nodes=100, series_steps=576, batch=32,
        graph_mode="sequence_aware", gst2_variant="parallel", warmup=1, cycle=2,
    ),
    # PEMS04 size, inference only (training does not fit): the same recurrent
    # and attention code with no tape, fusion attention and the checkpoint load.
    Workload(
        name="infer_n307_fused", kind="infer", nodes=307, series_steps=576, batch=4,
        graph_mode="sequence_aware", gst2_variant="fused", warmup=1, cycle=6,
    ),
)}


def input_paths(directory: str) -> dict:
    return {
        "series": os.path.join(directory, "series.csv"),
        "adjacency": os.path.join(directory, "adjacency.csv"),
        "checkpoint": os.path.join(directory, "checkpoint.json"),
        "blob": os.path.join(directory, "checkpoint.bin"),
    }


def generate_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Write the series and adjacency CSVs (and, for inference, a checkpoint of
    a freshly initialised model) generated from ``seed`` into ``directory``."""
    from flowcast import data, model

    paths = input_paths(directory)
    series, adjacency = data.synthesize(workload.nodes, workload.series_steps, seed)
    data.write_series_csv(paths["series"], series.values)
    data.write_series_csv(paths["adjacency"], adjacency)
    if workload.kind == "infer":
        cfg = model.config_from_dict(workload.model_config(seed))
        forecaster = model.Forecaster(cfg, adjacency=adjacency)
        model.save_checkpoint(paths["checkpoint"], paths["blob"],
                              {"model": model.config_to_dict(cfg)}, forecaster.params)
    return paths

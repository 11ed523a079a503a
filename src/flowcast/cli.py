"""Command-line harness: train, eval, ablate, gradcheck, synth.

Runs are driven by a JSON config with three sections (data / model / train)
plus a top-level seed; unknown keys are rejected. ``--set key=value`` patches
individual fields, ``--seed`` overrides both the model and training seeds.
All outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import data as dp
from . import model as md
from . import training as tr
from .errors import (ConfigError, InsufficientDataError, InvalidGraphError,
                     ParseError, ShapeError, TrainingDiverged)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

_SYNTH_DEFAULTS = {
    "nodes": 8,
    "steps": 2016,
    "noise_level": 1.0,
    "diffusion": 0.25,
    "seed": None,  # falls back to the run seed
}
_SYNTH_TYPES = {"nodes": "int", "steps": "int", "noise_level": "float", "diffusion": "float",
                "seed": "int"}

_DATA_DEFAULTS = {
    "series_csv": None,
    "adjacency_csv": None,
    "synth": None,
}


def default_run_config() -> dict:
    return {
        "data": dict(_DATA_DEFAULTS),
        "model": md.config_to_dict(md.ModelConfig()),
        "train": {f: getattr(tr.TrainConfig(), f) for f in tr.TrainConfig.__dataclass_fields__},
        "seed": 0,
    }


def _merge_section(base: dict, update: dict, path: str):
    for key, value in update.items():
        if key not in base:
            raise ConfigError(f"unknown config key '{path}{key}'")
        if key == "synth" and value is not None:
            merged = dict(_SYNTH_DEFAULTS)
            if not isinstance(value, dict):
                raise ConfigError("data.synth must be an object")
            for k, v in value.items():
                if k not in merged:
                    raise ConfigError(f"unknown config key 'data.synth.{k}'")
                merged[k] = v
            base[key] = merged
        else:
            base[key] = value


def load_run_config(path: str | None) -> dict:
    if path is None:
        return default_run_config()
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return merge_run_config(raw)


def merge_run_config(raw: dict) -> dict:
    """The default run config updated by the sections of ``raw``; unknown keys
    and non-object sections raise ConfigError."""
    cfg = default_run_config()
    for key, value in raw.items():
        if key == "seed":
            cfg["seed"] = value
        elif key in ("data", "model", "train"):
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{key}' must be an object")
            _merge_section(cfg[key], value, f"{key}.")
        else:
            raise ConfigError(f"unknown config key '{key}'")
    return cfg


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict, sets: list[str]):
    """Apply --set KEY=VALUE pairs. Dotted keys address a section directly;
    bare keys must match exactly one section field."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, raw_value = item.partition("=")
        value = _parse_set_value(raw_value)
        if "." in key:
            section, _, name = key.partition(".")
            if section not in ("data", "model", "train"):
                raise ConfigError(f"unknown config key '{key}'")
            if section == "data" and name.startswith("synth."):
                name, value = "synth", {**(cfg["data"]["synth"] or {}), name[len("synth."):]: value}
            _merge_section(cfg[section], {name: value}, f"{section}.")
        elif key == "seed":
            cfg["seed"] = value
        else:
            hits = [s for s in ("model", "train", "data") if key in cfg[s]]
            if not hits:
                raise ConfigError(f"unknown config key '{key}'")
            if len(hits) > 1:
                raise ConfigError(
                    f"ambiguous key '{key}' (in sections {hits}); qualify it as section.key"
                )
            _merge_section(cfg[hits[0]], {key: value}, f"{hits[0]}.")


def resolve_seeds(cfg: dict, seed_flag: int | None):
    if seed_flag is not None:
        cfg["seed"] = seed_flag
    cfg["model"]["seed"] = cfg["seed"]
    cfg["train"]["seed"] = cfg["seed"]


def load_dataset(cfg: dict) -> tuple[dp.TrafficSeries, np.ndarray | None]:
    """Produce (series, adjacency) from the data section: CSV paths or the
    synthetic generator spec."""
    section = cfg["data"]
    for key in ("series_csv", "adjacency_csv"):
        if section[key] is not None:
            md.check_type(f"data.{key}", section[key], "str")
    if section["series_csv"] is not None:
        series = dp.load_series(section["series_csv"])
        adjacency = None
        if section["adjacency_csv"] is not None:
            adjacency = dp.load_adjacency(section["adjacency_csv"])
        return series, adjacency
    if section["synth"] is not None:
        spec = dict(section["synth"])
        if spec["seed"] is None:
            spec["seed"] = cfg["seed"]
        for key, kind in _SYNTH_TYPES.items():
            md.check_type(f"data.synth.{key}", spec[key], kind)
        return _synthesize("data.synth", spec["nodes"], spec["steps"], spec["seed"],
                           spec["noise_level"], spec["diffusion"])
    raise ConfigError("config needs either data.series_csv or data.synth")


def _synthesize(source: str, nodes: int, steps: int, seed: int, noise_level: float,
                diffusion: float) -> tuple[dp.TrafficSeries, np.ndarray]:
    """data.synthesize, its range errors raised as ConfigError naming ``source``."""
    try:
        return dp.synthesize(nodes, steps, seed, noise_level=noise_level, diffusion=diffusion)
    except ValueError as exc:  # the generator's own range checks
        raise ConfigError(f"{source}: {exc}") from None


def _make_out_dir(path: str):
    """Create an output directory before any data is loaded or model trained,
    so an unusable path (an existing file, or a path under one) ends the
    command at once."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from None


def build_model_config(cfg: dict, n_nodes: int) -> md.ModelConfig:
    model_cfg = md.config_from_dict(cfg["model"])
    if model_cfg.n_nodes is None:
        model_cfg.n_nodes = n_nodes
    elif model_cfg.n_nodes != n_nodes:
        raise ConfigError(
            f"model.n_nodes is {model_cfg.n_nodes} but the data has {n_nodes} nodes"
        )
    model_cfg.validate()
    return model_cfg


def build_train_config(cfg: dict) -> tr.TrainConfig:
    allowed = set(tr.TrainConfig.__dataclass_fields__)
    unknown = set(cfg["train"]) - allowed
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    tcfg = tr.TrainConfig(**cfg["train"])
    tcfg.validate()
    return tcfg


def prepare_splits(series: dp.TrafficSeries, model_cfg: md.ModelConfig):
    window = model_cfg.input_steps + model_cfg.output_steps
    train_seg, val_seg, test_seg = dp.chronological_split(series, min_segment=window)
    normalizer = dp.Normalizer.fit(train_seg.values)
    splits = {}
    for name, seg in (("train", train_seg), ("val", val_seg), ("test", test_seg)):
        x, y = dp.make_windows(normalizer.normalize(seg.values),
                               model_cfg.input_steps, model_cfg.output_steps)
        splits[name] = (x, y)
    return splits, normalizer


def _metrics_json(report: dp.MetricsReport, per_horizon: list[dp.MetricsReport]) -> str:
    doc = report.as_dict()
    doc["per_horizon"] = [
        {"horizon": i + 1, **r.as_dict()} for i, r in enumerate(per_horizon)
    ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _run_training(cfg: dict, out_dir: str, log_progress: bool = True) -> dict:
    _make_out_dir(out_dir)
    series, adjacency = load_dataset(cfg)
    model_cfg = build_model_config(cfg, series.node_count)
    cfg = copy.deepcopy(cfg)
    cfg["model"] = md.config_to_dict(model_cfg)  # echo resolved values
    train_cfg = build_train_config(cfg)
    if model_cfg.graph_mode == "static" and adjacency is None:
        raise ConfigError("graph_mode 'static' needs data.adjacency_csv or synthetic data")
    splits, normalizer = prepare_splits(series, model_cfg)

    model = md.Forecaster(model_cfg, adjacency=adjacency)
    log = None
    if log_progress:
        log = lambda r: print(
            f"epoch {r.epoch}: train_loss={r.train_loss:.5f} val_mae={r.val_mae:.4f}",
            file=sys.stderr,
        )
    result = tr.fit(model, splits["train"], splits["val"], normalizer, train_cfg, log=log)

    tr.write_history_csv(os.path.join(out_dir, "history.csv"), result.history)
    md.save_checkpoint(
        os.path.join(out_dir, "checkpoint.json"),
        os.path.join(out_dir, "checkpoint.bin"),
        cfg, model.params,
    )
    x_test, y_test = splits["test"]
    preds = tr.predict_batched(model, x_test, train_cfg.batch_size)
    report = dp.metrics(preds, y_test, normalizer)
    horizon = dp.metrics_per_horizon(preds, y_test, normalizer)
    dp.write_atomic(os.path.join(out_dir, "metrics.json"), _metrics_json(report, horizon).encode())
    return {"model": model, "result": result, "report": report, "config": cfg}


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    apply_overrides(cfg, args.set or [])
    resolve_seeds(cfg, args.seed)
    outcome = _run_training(cfg, args.out)
    report = outcome["report"]
    print(f"test mae={report.mae:.4f} rmse={report.rmse:.4f} "
          f"mape={'n/a' if report.mape is None else f'{report.mape:.2f}%'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _make_out_dir(args.out)
    config_echo, values = md.load_checkpoint(args.checkpoint)
    try:  # a config the checkpoint carries is part of the checkpoint: exit 2
        cfg = merge_run_config(config_echo)
        if args.data is not None:
            cfg["data"]["series_csv"] = args.data
            cfg["data"]["synth"] = None
        if args.adjacency is not None:
            cfg["data"]["adjacency_csv"] = args.adjacency
        series, adjacency = load_dataset(cfg)
        model_cfg = md.config_from_dict(cfg["model"])
        model_cfg.validate()
        train_cfg = build_train_config(cfg)
    except ConfigError as exc:
        raise ParseError(f"{args.checkpoint}: config echo: {exc}") from None
    if model_cfg.n_nodes != series.node_count:
        print(
            f"error: checkpoint was trained with {model_cfg.n_nodes} nodes "
            f"but the data has {series.node_count}",
            file=sys.stderr,
        )
        return EXIT_DATA
    splits, normalizer = prepare_splits(series, model_cfg)
    model = md.Forecaster(model_cfg, adjacency=adjacency)
    try:
        model.params.load_values(values)
    except (KeyError, ShapeError) as exc:
        raise ParseError(f"{args.checkpoint}: {exc.args[0]}") from None

    x_test, y_test = splits["test"]
    preds = tr.predict_batched(model, x_test, train_cfg.batch_size)
    report = dp.metrics(preds, y_test, normalizer)
    horizon = dp.metrics_per_horizon(preds, y_test, normalizer)
    dp.write_atomic(os.path.join(args.out, "metrics.json"),
                    _metrics_json(report, horizon).encode())
    dp.write_predictions_csv(os.path.join(args.out, "predictions.csv"),
                             normalizer.denormalize(preds))
    print(f"test mae={report.mae:.4f} rmse={report.rmse:.4f} "
          f"mape={'n/a' if report.mape is None else f'{report.mape:.2f}%'}")
    return EXIT_OK


def _convergence_epoch(history: list[tr.EpochRecord]) -> int:
    """First epoch whose validation MAE is within 5% of the best seen."""
    best = min(r.val_mae for r in history)
    for r in history:
        if r.val_mae <= best * 1.05:
            return r.epoch
    return history[-1].epoch


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config)
    apply_overrides(cfg, args.set or [])
    resolve_seeds(cfg, args.seed)
    graph_modes = args.graph_modes.split(",") if args.graph_modes else list(md.GRAPH_MODES)
    variants = args.variants.split(",") if args.variants else list(md.GST2_VARIANTS)
    _make_out_dir(args.out)

    rows = []
    failures = []
    summary = []
    for mode in graph_modes:
        for variant in variants:
            cell = copy.deepcopy(cfg)
            cell["model"]["graph_mode"] = mode
            cell["model"]["gst2_variant"] = variant
            cell_dir = os.path.join(args.out, "cells", f"{mode}__{variant}")
            try:
                outcome = _run_training(cell, cell_dir, log_progress=False)
            except Exception as exc:  # record and continue with the grid
                failures.append({"graph_mode": mode, "variant": variant, "error": str(exc)})
                print(f"cell {mode}/{variant} failed: {exc}", file=sys.stderr)
                continue
            report = outcome["report"]
            rows.append((mode, variant, report.mae, report.rmse, report.mape))
            summary.append({
                "graph_mode": mode,
                "variant": variant,
                "epochs_run": len(outcome["result"].history),
                "best_epoch": outcome["result"].best_epoch,
                "convergence_epoch": _convergence_epoch(outcome["result"].history),
            })
            print(f"cell {mode}/{variant}: mae={report.mae:.4f}")
    lines = ["graph_mode,variant,mae,rmse,mape"]
    for mode, variant, mae, rmse, mape in rows:
        mape_s = "" if mape is None else repr(mape)
        lines.append(f"{mode},{variant},{mae!r},{rmse!r},{mape_s}")
    dp.write_atomic(os.path.join(args.out, "ablation.csv"), ("\n".join(lines) + "\n").encode())
    dp.write_atomic(os.path.join(args.out, "ablation_summary.json"),
                    (json.dumps({"cells": summary, "failures": failures}, indent=2)
                     + "\n").encode())
    baseline = [s for s in summary if s["variant"] == "none"]
    enhanced = [s for s in summary if s["variant"] in ("parallel", "serial", "fused")]
    if baseline and enhanced:
        base_c = float(np.mean([s["convergence_epoch"] for s in baseline]))
        enh_c = float(np.mean([s["convergence_epoch"] for s in enhanced]))
        ratio = base_c / enh_c if enh_c > 0 else float("nan")
        print(f"convergence epochs: none={base_c:.1f} global-aware={enh_c:.1f} "
              f"speedup x{ratio:.2f} (reported, not asserted)")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_run_config(args.config)
    apply_overrides(cfg, args.set or [])
    resolve_seeds(cfg, args.seed)
    # force a desk-size problem regardless of the configured data
    model_cfg = md.config_from_dict(cfg["model"])
    model_cfg.n_nodes = 4
    model_cfg.input_steps = 6
    model_cfg.output_steps = 3
    model_cfg.embed_dim = 2
    model_cfg.hidden_dim = 4
    model_cfg.heads = 2
    model_cfg.cheb_order = 1
    model_cfg.dropout_input = 0.0
    model_cfg.dropout_inner = 0.0
    model_cfg.ffn_dim = 8
    model_cfg.fc_hidden = 16
    model_cfg.validate()
    rng = np.random.default_rng(cfg["seed"])
    x = rng.standard_normal((2, model_cfg.input_steps, model_cfg.n_nodes, 1))
    y = rng.standard_normal((2, model_cfg.output_steps, model_cfg.n_nodes))
    adjacency = None
    if model_cfg.graph_mode == "static":
        _, adjacency = dp.synthesize(model_cfg.n_nodes, 288, int(cfg["seed"]))
    report = tr.grad_check(model_cfg, x, y, adjacency=adjacency, tol=args.tol,
                           seed=cfg["seed"])
    for entry in report.entries:
        status = "ok" if entry.max_rel_err < args.tol else "FAIL"
        print(f"{status}  {entry.name}: checked {entry.checked}, "
              f"max rel err {entry.max_rel_err:.3e}")
    print(f"max relative error {report.max_rel_err:.3e} (tolerance {args.tol:g})")
    return EXIT_OK if report.passed else EXIT_CONFIG


def cmd_synth(args) -> int:
    _make_out_dir(args.out)
    series, adjacency = _synthesize("synth", args.nodes, args.steps, args.seed,
                                    args.noise_level, args.diffusion)
    dp.write_series_csv(os.path.join(args.out, "series.csv"), series.values)
    dp.write_series_csv(os.path.join(args.out, "adjacency.csv"), adjacency)
    print(f"wrote {series.steps}x{series.node_count} series to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowcast",
                                     description="traffic flow forecasting harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", default=None, help="JSON run config")
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config field (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="run seed override")
        p.add_argument("--out", default="out", help="output directory")

    p_train = sub.add_parser("train", help="train a model and write checkpoint/history/metrics")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint manifest JSON")
    p_eval.add_argument("--data", default=None, help="series CSV (defaults to checkpoint data)")
    p_eval.add_argument("--adjacency", default=None, help="adjacency CSV override")
    p_eval.add_argument("--out", default="out", help="output directory")
    p_eval.set_defaults(fn=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="train every graph-mode/variant combination")
    common(p_ablate)
    p_ablate.add_argument("--graph-modes", default=None,
                          help="comma-separated graph modes (default: all)")
    p_ablate.add_argument("--variants", default=None,
                          help="comma-separated layer variants (default: all)")
    p_ablate.set_defaults(fn=cmd_ablate)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    common(p_gc)
    p_gc.add_argument("--tol", type=float, default=1e-4, help="relative error tolerance")
    p_gc.set_defaults(fn=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a synthetic series + adjacency")
    p_synth.add_argument("--nodes", type=int, default=8)
    p_synth.add_argument("--steps", type=int, default=2016)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise-level", type=float, default=1.0)
    p_synth.add_argument("--diffusion", type=float, default=0.25)
    p_synth.add_argument("--out", default="out", help="output directory")
    p_synth.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, InsufficientDataError, InvalidGraphError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

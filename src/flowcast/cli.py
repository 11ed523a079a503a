"""Command-line harness: train, eval, ablate, gradcheck, synth.

Runs are driven by a JSON config with three sections (data / model / train)
plus a top-level seed; unknown keys are rejected. ``--set key=value`` patches
individual fields, ``--seed`` overrides both the model and training seeds.
All outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import data as dp
from . import model as md
from . import training as tr
from .errors import (ConfigError, ForecastNotFinite, InsufficientDataError, InvalidGraphError,
                     ParseError, ShapeError, TrainingDiverged)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

# the input errors ``main`` reports as a data error (exit 2)
_DATA_ERRORS = (ParseError, InsufficientDataError, InvalidGraphError, FileNotFoundError)

# data.synth's keys and the synth command's flags: the parameters of
# data.synthesize, with their kinds and defaults (data.synth's seed defaults
# to the run seed instead)
_SYNTH_PARAMS = inspect.signature(dp.synthesize).parameters
_SYNTH_DEFAULTS = {**{name: p.default for name, p in _SYNTH_PARAMS.items()}, "seed": None}

# the objects a run config nests; data.synth may also be None (no synthetic data)
_SECTIONS = ("data", "model", "train", "data.synth")

# gradcheck's desk-size problem, whatever the configured sizes; its head
# count is the configured one capped at 2, which divides the hidden dim
_GRADCHECK_SIZES = dict(n_nodes=4, input_steps=6, output_steps=3, embed_dim=2, hidden_dim=4,
                        dropout_input=0.0, dropout_inner=0.0, ffn_dim=8, fc_hidden=16)


def default_run_config() -> dict:
    """The run config before any file or --set; the section seeds stay None
    until resolve_run_config copies the top-level seed into them."""
    return {
        "data": {"series_csv": None, "adjacency_csv": None, "synth": None},
        "model": {**dataclasses.asdict(md.ModelConfig()), "seed": None},
        "train": {**dataclasses.asdict(tr.TrainConfig()), "seed": None},
        "seed": 0,
    }


def _merge(base: dict, update: dict, path: str = ""):
    """Update ``base`` in place from ``update``, the one merge behind config
    files, checkpoint echoes and --set. An object given for a section merges
    into it; data.synth, None (no synthetic data) until given, starts from
    _SYNTH_DEFAULTS."""
    for key, value in update.items():
        if key not in base:
            raise ConfigError(f"unknown config key '{path}{key}'")
        name = path + key
        if name in _SECTIONS and (value is not None or name != "data.synth"):
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{name}' must be an object")
            section = dict(base[key] or _SYNTH_DEFAULTS)
            _merge(section, value, name + ".")
            value = section
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
    """The default run config updated from ``raw``; unknown keys and
    non-object sections raise ConfigError."""
    cfg = default_run_config()
    _merge(cfg, raw)
    return cfg


def _parse_set_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict, sets: list[str]):
    """Apply --set KEY=VALUE pairs. Dotted keys address a section (or
    data.synth) directly; bare keys must match exactly one section field."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, raw_value = item.partition("=")
        if "." not in key and key != "seed":
            hits = [s for s in ("model", "train", "data") if key in cfg[s]]
            if not hits:
                raise ConfigError(f"unknown config key '{key}'")
            if len(hits) > 1:
                raise ConfigError(
                    f"ambiguous key '{key}' (in sections {hits}); qualify it as section.key"
                )
            key = f"{hits[0]}.{key}"
        if key.rpartition(".")[0] not in ("", *_SECTIONS):
            raise ConfigError(f"unknown config key '{key}'")
        update = _parse_set_value(raw_value)
        for part in reversed(key.split(".")):
            update = {part: update}
        _merge(cfg, update)


def resolve_run_config(args) -> dict:
    """The run config of train, ablate and gradcheck: the --config file (or
    the defaults), each --set in order, then --seed. The top-level seed seeds
    both the model and training, so a section seed, which it would
    overwrite, is rejected instead."""
    cfg = load_run_config(args.config)
    apply_overrides(cfg, args.set or [])
    for section in ("model", "train"):
        if cfg[section]["seed"] is not None:
            raise ConfigError(f"{section}.seed cannot be set; the top-level 'seed' "
                              "(or --seed) seeds both the model and training")
    seed = cfg["seed"] if args.seed is None else args.seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    cfg["seed"] = cfg["model"]["seed"] = cfg["train"]["seed"] = seed
    return cfg


def load_dataset(cfg: dict) -> tuple[dp.TrafficSeries, np.ndarray | None]:
    """Produce (series, adjacency) from the data section: CSV paths or the
    synthetic generator spec, which makes its own adjacency (so
    data.adjacency_csv beside it is a ConfigError, not silently unread). An
    adjacency CSV sized for another node count than the series is a
    ParseError naming it."""
    section = cfg["data"]
    for key in ("series_csv", "adjacency_csv"):
        if section[key] is not None:
            md.check_type(f"data.{key}", section[key], "str")
    if section["series_csv"] is not None:
        series = dp.load_series(section["series_csv"])
        adjacency = None
        if section["adjacency_csv"] is not None:
            adjacency = dp.load_adjacency(section["adjacency_csv"])
            if len(adjacency) != series.node_count:
                raise ParseError(f"{section['adjacency_csv']}: adjacency has {len(adjacency)} "
                                 f"nodes, but the series has {series.node_count}")
        return series, adjacency
    if section["synth"] is not None:
        if section["adjacency_csv"] is not None:
            raise ConfigError("data.adjacency_csv is read only with data.series_csv; "
                              "data.synth makes its own adjacency")
        spec = dict(section["synth"])
        if spec["seed"] is None:
            spec["seed"] = cfg["seed"]
        return _synthesize("data.synth", spec)
    raise ConfigError("config needs either data.series_csv or data.synth")


def _synthesize(source: str, spec: dict) -> tuple[dp.TrafficSeries, np.ndarray]:
    """data.synthesize on a full synth spec, checked the same way for
    data.synth and the synth command: each value of its parameter's kind,
    and the generator's range errors raised as ConfigError naming ``source``."""
    for name, param in _SYNTH_PARAMS.items():
        md.check_type(f"{source}.{name}", spec[name], param.annotation)
    try:
        return dp.synthesize(**spec)
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
    """The model section as a validated ModelConfig for data with ``n_nodes``
    nodes. Series data has one channel per node and step (``make_windows``
    gives [..., 1]), so a model reading more is refused here rather than in
    its first forward."""
    model_cfg = md.config_from_dict(cfg["model"])
    if model_cfg.n_nodes is None:
        model_cfg.n_nodes = n_nodes
    elif model_cfg.n_nodes != n_nodes:
        raise ConfigError(
            f"model.n_nodes is {model_cfg.n_nodes} but the data has {n_nodes} nodes"
        )
    model_cfg.validate()
    if model_cfg.input_channels != 1:
        raise ConfigError(f"model.input_channels is {model_cfg.input_channels} "
                          "but series data has 1 channel")
    return model_cfg


def build_train_config(cfg: dict) -> tr.TrainConfig:
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


def _score_test_split(model: md.Forecaster, splits: dict, normalizer: dp.Normalizer,
                      batch_size: int, out_dir: str, verbose: bool = True):
    """Forecast the test windows and write metrics.json (overall and per
    horizon) into ``out_dir``; ``verbose`` prints the summary line. Returns
    (report, normalized predictions). Forecasts or metrics that are not
    finite raise ForecastNotFinite before anything is written."""
    x_test, y_test = splits["test"]
    preds = tr.predict_batched(model, x_test, batch_size)
    report = dp.metrics(preds, y_test, normalizer)
    per_horizon = dp.metrics_per_horizon(preds, y_test, normalizer)
    # the MAE averages every denormalized forecast, so it is finite only if
    # they all are
    scores = [v for r in [report] + per_horizon for v in (r.mae, r.rmse, r.mape) if v is not None]
    if not np.isfinite(scores).all():
        raise ForecastNotFinite()
    doc = dataclasses.asdict(report)
    doc["per_horizon"] = [{"horizon": i + 1, **dataclasses.asdict(r)}
                          for i, r in enumerate(per_horizon)]
    dp.write_atomic(os.path.join(out_dir, "metrics.json"),
                    (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())
    if verbose:
        print(f"test mae={report.mae:.4f} rmse={report.rmse:.4f} "
              f"mape={'n/a' if report.mape is None else f'{report.mape:.2f}%'}")
    return report, preds


def _run_training(cfg: dict, out_dir: str, verbose: bool = True):
    """Train one run into ``out_dir``; returns (fit result, test report)."""
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
    if verbose:
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
    report, _ = _score_test_split(model, splits, normalizer, train_cfg.batch_size, out_dir,
                                  verbose)
    return result, report


def cmd_train(args) -> int:
    _run_training(resolve_run_config(args), args.out)
    return EXIT_OK


@contextmanager
def _blame_echo(checkpoint: str):
    """A config the checkpoint carries is part of the checkpoint: its
    ConfigErrors become ParseErrors naming the checkpoint (exit 2)."""
    try:
        yield
    except ConfigError as exc:
        raise ParseError(f"{checkpoint}: config echo: {exc}") from None


def cmd_eval(args) -> int:
    _make_out_dir(args.out)
    config_echo, values = md.load_checkpoint(args.checkpoint)
    with _blame_echo(args.checkpoint):
        cfg = merge_run_config(config_echo)
    if args.data is not None:
        cfg["data"]["series_csv"] = args.data
        cfg["data"]["synth"] = None
    if args.adjacency is not None:
        if cfg["data"]["series_csv"] is None and cfg["data"]["synth"] is not None:
            raise ConfigError(f"--adjacency is read only with series data, and "
                              f"{args.checkpoint} was trained on data.synth; pass --data too")
        cfg["data"]["adjacency_csv"] = args.adjacency
    with _blame_echo(args.checkpoint):
        series, adjacency = load_dataset(cfg)
        model_cfg = build_model_config(cfg, series.node_count)
        train_cfg = build_train_config(cfg)
    splits, normalizer = prepare_splits(series, model_cfg)
    model = md.Forecaster(model_cfg, adjacency=adjacency)
    try:
        model.params.load_values(values)
    except (KeyError, ShapeError) as exc:
        raise ParseError(f"{args.checkpoint}: {exc.args[0]}") from None

    try:
        _, preds = _score_test_split(model, splits, normalizer, train_cfg.batch_size, args.out)
    except ForecastNotFinite as exc:  # the checkpoint's values, not a training run
        raise ParseError(f"{args.checkpoint}: {exc}") from None
    dp.write_predictions_csv(os.path.join(args.out, "predictions.csv"),
                             normalizer.denormalize(preds))
    return EXIT_OK


def _convergence_epoch(history: list[tr.EpochRecord]) -> int:
    """First epoch whose validation MAE is within 5% of the best seen."""
    best = min(r.val_mae for r in history)
    for r in history:
        if r.val_mae <= best * 1.05:
            return r.epoch
    return history[-1].epoch


def cmd_ablate(args) -> int:
    cfg = resolve_run_config(args)
    graph_modes = args.graph_modes.split(",") if args.graph_modes else list(md.GRAPH_MODES)
    variants = args.variants.split(",") if args.variants else list(md.GST2_VARIANTS)
    for flag, values, allowed in (("--graph-modes", graph_modes, md.GRAPH_MODES),
                                  ("--variants", variants, md.GST2_VARIANTS)):
        for value in values:
            if value not in allowed:
                raise ConfigError(f"{flag}: unknown value '{value}'; "
                                  f"allowed: {', '.join(allowed)}")
    _make_out_dir(args.out)

    def cell_config(mode: str, variant: str) -> dict:
        cell = copy.deepcopy(cfg)
        cell["model"]["graph_mode"] = mode
        cell["model"]["gst2_variant"] = variant
        return cell

    # the data and the model settings every cell shares are checked once,
    # before any cell trains; a failed cell is then one the grid caused
    series, _ = load_dataset(cfg)
    build_model_config(cell_config(graph_modes[0], variants[0]), series.node_count)

    rows = []
    failures = []
    summary = []
    for mode in graph_modes:
        for variant in variants:
            cell = cell_config(mode, variant)
            cell_dir = os.path.join(args.out, "cells", f"{mode}__{variant}")
            try:
                result, report = _run_training(cell, cell_dir, verbose=False)
            except (ConfigError, TrainingDiverged) + _DATA_ERRORS as exc:
                # a documented error of this cell: record it and go on; any
                # other exception is a program fault and ends the command
                failures.append({"graph_mode": mode, "variant": variant, "error": str(exc)})
                print(f"cell {mode}/{variant} failed: {exc}", file=sys.stderr)
                continue
            rows.append((mode, variant, report.mae, report.rmse, report.mape))
            summary.append({
                "graph_mode": mode,
                "variant": variant,
                "epochs_run": len(result.history),
                "best_epoch": result.best_epoch,
                "convergence_epoch": _convergence_epoch(result.history),
            })
            print(f"cell {mode}/{variant}: mae={report.mae:.4f}")
    lines = ["graph_mode,variant,mae,rmse,mape"]
    for mode, variant, mae, rmse, mape in rows:
        mape_s = "" if mape is None else repr(mape)
        lines.append(f"{mode},{variant},{mae!r},{rmse!r},{mape_s}")
    dp.write_atomic(os.path.join(args.out, "ablation.csv"), ("\n".join(lines) + "\n").encode())
    dp.write_atomic(os.path.join(args.out, "ablation_summary.json"),
                    (json.dumps({"cells": summary, "failures": failures}, indent=2,
                                allow_nan=False) + "\n").encode())
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
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be a finite number > 0, got {args.tol}")
    cfg = resolve_run_config(args)
    model_cfg = md.config_from_dict(cfg["model"])
    md.check_field_types(model_cfg)
    model_cfg = dataclasses.replace(model_cfg, heads=min(model_cfg.heads, 2), **_GRADCHECK_SIZES)
    model_cfg.validate()
    rng = np.random.default_rng(cfg["seed"])
    x = rng.standard_normal((2, model_cfg.input_steps, model_cfg.n_nodes,
                             model_cfg.input_channels))
    y = rng.standard_normal((2, model_cfg.output_steps, model_cfg.n_nodes))
    adjacency = None
    if model_cfg.graph_mode == "static":
        _, adjacency = dp.synthesize(model_cfg.n_nodes, 288, cfg["seed"])
    report = tr.grad_check(model_cfg, x, y, adjacency=adjacency, tol=args.tol,
                           seed=cfg["seed"])
    failures = set(report.failures)
    for entry in report.entries:
        status = "FAIL" if entry.name in failures else "ok"
        print(f"{status}  {entry.name}: checked {entry.checked}, "
              f"max rel err {entry.max_rel_err:.3e}")
    print(f"max relative error {report.max_rel_err:.3e} (tolerance {args.tol:g})")
    if failures:
        print(f"gradcheck failed: {', '.join(report.failures)}", file=sys.stderr)
    return EXIT_CONFIG if failures else EXIT_OK


def cmd_synth(args) -> int:
    _make_out_dir(args.out)
    series, adjacency = _synthesize("synth", {name: getattr(args, name) for name in _SYNTH_PARAMS})
    dp.write_series_csv(os.path.join(args.out, "series.csv"), series.values)
    dp.write_series_csv(os.path.join(args.out, "adjacency.csv"), adjacency)
    print(f"wrote {series.steps}x{series.node_count} series to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a config error: one line and exit 1, through
        main's mapping, not argparse's usage text and exit 2."""
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowcast", description="traffic flow forecasting harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    p_eval.add_argument("--adjacency", default=None,
                        help="adjacency CSV override (series data only)")
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
    for name, param in _SYNTH_PARAMS.items():
        p_synth.add_argument("--" + name.replace("_", "-"), default=param.default,
                             type={"int": int, "float": float}[param.annotation],
                             help="default: %(default)s")
    p_synth.add_argument("--out", default="out", help="output directory")
    p_synth.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # overflow is reported by the checks that turn it into an exit code
        # (a non-finite loss, parameter, forecast or normalizer), in one line
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

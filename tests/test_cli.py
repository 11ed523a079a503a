import json
import os
import shutil

import numpy as np
import pytest

from flowcast import cli
from flowcast import data as dp
from flowcast.errors import ConfigError


def tiny_overrides(extra=()):
    sets = [
        "model.embed_dim=2", "model.hidden_dim=4", "model.heads=2",
        "model.input_steps=6", "model.output_steps=3",
        "model.ffn_dim=8", "model.fc_hidden=16",
        "model.dropout_input=0.0", "model.dropout_inner=0.0",
        "train.max_epochs=2", "train.batch_size=32",
        "data.synth.nodes=4", "data.synth.steps=300",
    ]
    return sets + list(extra)


def run(argv):
    return cli.main(argv)


# -- config handling --------------------------------------------------------------


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"bogus": 1}}))
    with pytest.raises(ConfigError, match="bogus"):
        cli.load_run_config(str(path))


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"extra": {}}))
    with pytest.raises(ConfigError):
        cli.load_run_config(str(path))


def test_set_override_bare_key():
    cfg = cli.default_run_config()
    cli.apply_overrides(cfg, ["gst2_variant=fused", "lr=0.001"])
    assert cfg["model"]["gst2_variant"] == "fused"
    assert cfg["train"]["lr"] == 0.001


def test_set_override_dotted_and_synth_keys():
    cfg = cli.default_run_config()
    cli.apply_overrides(cfg, ["model.hidden_dim=8", "data.synth.nodes=5"])
    assert cfg["model"]["hidden_dim"] == 8
    assert cfg["data"]["synth"]["nodes"] == 5


def test_set_override_unknown_key_rejected():
    cfg = cli.default_run_config()
    with pytest.raises(ConfigError):
        cli.apply_overrides(cfg, ["nonsense=1"])


def test_set_override_ambiguous_key_rejected():
    cfg = cli.default_run_config()
    cli.apply_overrides(cfg, ["seed=3", "batch_size=16"])  # unambiguous: train only
    assert cfg["train"]["batch_size"] == 16
    cfg["data"]["lr"] = 1  # simulate a colliding key across sections
    with pytest.raises(ConfigError, match="ambiguous"):
        cli.apply_overrides(cfg, ["lr=0.1"])


def _non_utf8_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": "\xff"}')
    return ["--config", str(path)]


@pytest.mark.parametrize("extra,named", [
    pytest.param(["--set", "hidden_dim=abc"], "hidden_dim", id="int_field_not_a_number"),
    pytest.param(["--set", "train.lr=fast"], "lr", id="float_field_not_a_number"),
    pytest.param(["--set", "data.synth.nodes=x"], "data.synth.nodes", id="synth_nodes_not_a_number"),
    pytest.param(["--set", "data.synth.nodes=1"], "2 nodes", id="synth_nodes_too_few"),
    pytest.param(_non_utf8_config, "cfg.json", id="config_not_utf8"),
    pytest.param(lambda tmp_path: ["--config", str(tmp_path)], "cannot read config",
                 id="config_is_a_directory"),
    pytest.param(lambda tmp_path: ["--config", str(tmp_path / "absent.json")], "absent.json",
                 id="config_missing"),
    pytest.param(["--set", "data.series_csv=[1]", "--set", "data.synth=null"], "data.series_csv",
                 id="series_path_not_a_string"),
])
def test_bad_config_value_exits_one(tmp_path, capsys, extra, named):
    if callable(extra):
        extra = extra(tmp_path)
    code = run(["train", "--out", str(tmp_path / "run"),
                *sum([["--set", s] for s in tiny_overrides()], []), *extra])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


def test_missing_data_source_exits_one(tmp_path, capsys):
    code = run(["train", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "series_csv" in capsys.readouterr().err


# -- synth ---------------------------------------------------------------------------


def test_synth_writes_series_and_adjacency(tmp_path):
    out = str(tmp_path / "synth")
    code = run(["synth", "--nodes", "4", "--steps", "300", "--seed", "5", "--out", out])
    assert code == 0
    series = dp.load_series(os.path.join(out, "series.csv"))
    adjacency = dp.load_adjacency(os.path.join(out, "adjacency.csv"))
    assert series.steps == 300 and series.node_count == 4
    assert np.array_equal(adjacency, adjacency.T)


@pytest.mark.parametrize("flag,value,named", [
    pytest.param("--nodes", "0", "2 nodes", id="too_few_nodes"),
    pytest.param("--steps", "5", "288 steps", id="shorter_than_a_day"),
    pytest.param("--diffusion", "5", "diffusion", id="diffusion_out_of_range"),
])
def test_synth_out_of_range_exits_one(tmp_path, capsys, flag, value, named):
    code = run(["synth", flag, value, "--out", str(tmp_path / "synth")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and named in err


@pytest.mark.parametrize("command", ["train", "eval", "ablate", "synth"])
@pytest.mark.parametrize("under_file", [False, True], ids=["out_is_a_file", "out_under_a_file"])
def test_unusable_out_exits_one_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                under_file):
    def no_work(*args, **kwargs):
        pytest.fail("work started before the output directory was checked")

    monkeypatch.setattr(cli, "load_dataset", no_work)
    monkeypatch.setattr(cli.md, "load_checkpoint", no_work)
    monkeypatch.setattr(cli.dp, "synthesize", no_work)
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = str(blocker / "run" if under_file else blocker)
    sets = sum([["--set", s] for s in tiny_overrides()], [])
    argv = {
        "train": ["train", *sets],
        "eval": ["eval", "--checkpoint", str(tmp_path / "checkpoint.json")],
        "ablate": ["ablate", "--graph-modes", "adaptive", "--variants", "none", *sets],
        "synth": ["synth"],
    }[command]
    code = run([*argv, "--out", out])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and out in err


# -- train ---------------------------------------------------------------------------


def test_train_smoke_emits_all_artifacts(tmp_path):
    out = str(tmp_path / "run")
    code = run(["train", "--out", out, "--seed", "7",
                *sum([["--set", s] for s in tiny_overrides()], [])])
    assert code == 0
    for artifact in ("checkpoint.json", "checkpoint.bin", "history.csv", "metrics.json"):
        assert os.path.exists(os.path.join(out, artifact)), artifact
    metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
    assert set(metrics) >= {"mae", "rmse", "mape", "mape_mask_count", "per_horizon"}
    assert len(metrics["per_horizon"]) == 3
    # atomic writes never leave temp files behind
    assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]


def test_train_set_override_echoed_in_checkpoint(tmp_path):
    out = str(tmp_path / "run")
    code = run(["train", "--out", out, "--seed", "1",
                *sum([["--set", s] for s in tiny_overrides(["gst2_variant=fused"])], [])])
    assert code == 0
    manifest = json.loads(open(os.path.join(out, "checkpoint.json")).read())
    assert manifest["config"]["model"]["gst2_variant"] == "fused"
    assert manifest["config"]["model"]["n_nodes"] == 4  # resolved from data
    assert manifest["config"]["seed"] == 1


def test_eval_reproduces_training_test_metrics(tmp_path):
    synth_dir = str(tmp_path / "synth")
    run(["synth", "--nodes", "4", "--steps", "300", "--seed", "2", "--out", synth_dir])
    series_csv = os.path.join(synth_dir, "series.csv")

    train_dir = str(tmp_path / "train")
    code = run(["train", "--out", train_dir, "--seed", "2",
                *sum([["--set", s] for s in tiny_overrides(
                    [f"data.series_csv={series_csv}", "data.synth=null"])], [])])
    assert code == 0

    eval_dir = str(tmp_path / "eval")
    code = run(["eval", "--checkpoint", os.path.join(train_dir, "checkpoint.json"),
                "--data", series_csv, "--out", eval_dir])
    assert code == 0
    trained = json.loads(open(os.path.join(train_dir, "metrics.json")).read())
    evaled = json.loads(open(os.path.join(eval_dir, "metrics.json")).read())
    assert trained == evaled
    assert os.path.exists(os.path.join(eval_dir, "predictions.csv"))


def test_eval_node_mismatch_exits_two(tmp_path, capsys):
    out = str(tmp_path / "run")
    run(["train", "--out", out, "--seed", "3",
         *sum([["--set", s] for s in tiny_overrides()], [])])
    other = str(tmp_path / "other")
    run(["synth", "--nodes", "6", "--steps", "300", "--seed", "3", "--out", other])
    code = run(["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
                "--data", os.path.join(other, "series.csv"),
                "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "4" in err and "6" in err


def test_eval_from_checkpoint_synth_spec(tmp_path):
    out = str(tmp_path / "run")
    run(["train", "--out", out, "--seed", "4",
         *sum([["--set", s] for s in tiny_overrides()], [])])
    eval_dir = str(tmp_path / "eval")
    code = run(["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
                "--out", eval_dir])
    assert code == 0
    trained = json.loads(open(os.path.join(out, "metrics.json")).read())
    evaled = json.loads(open(os.path.join(eval_dir, "metrics.json")).read())
    assert trained == evaled


def test_non_finite_series_cell_exits_two(tmp_path, capsys):
    synth_dir = str(tmp_path / "synth")
    run(["synth", "--nodes", "4", "--steps", "300", "--seed", "8", "--out", synth_dir])
    series_csv = os.path.join(synth_dir, "series.csv")
    lines = open(series_csv).read().split("\n")
    lines[4] = "nan" + lines[4][lines[4].index(","):]
    open(series_csv, "w").write("\n".join(lines))
    code = run(["train", "--out", str(tmp_path / "run"), "--seed", "8",
                *sum([["--set", s] for s in tiny_overrides(
                    [f"data.series_csv={series_csv}", "data.synth=null"])], [])])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 5, column 1" in err


def _latin1_csv(directory):
    path = directory / "latin1.csv"
    path.write_bytes(b"1,2\n\xe9,3\n")
    return path


@pytest.mark.parametrize("make_path,named", [
    pytest.param(lambda d: d, "is a directory", id="directory"),
    pytest.param(_latin1_csv, "not UTF-8", id="not_utf8"),
])
def test_bad_series_path_exits_two(tmp_path, capsys, make_path, named):
    series_csv = make_path(tmp_path)
    code = run(["train", "--out", str(tmp_path / "run"),
                *sum([["--set", s] for s in tiny_overrides(
                    [f"data.series_csv={series_csv}", "data.synth=null"])], [])])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trained") / "run")
    code = run(["train", "--out", out, "--seed", "6",
                *sum([["--set", s] for s in tiny_overrides()], [])])
    assert code == 0
    return out


def _edit_manifest(edit):
    def corrupt(manifest, blob):
        doc = json.loads(open(manifest).read())
        edit(doc)
        open(manifest, "w").write(json.dumps(doc))
    return corrupt


def _truncate_blob(manifest, blob):
    with open(blob, "r+b") as f:
        f.truncate(os.path.getsize(blob) - 8)


def _write_manifest(text):
    return lambda manifest, blob: open(manifest, "w").write(text)


@pytest.mark.parametrize("corrupt,named_file", [
    pytest.param(_truncate_blob, "checkpoint.bin", id="truncated_blob"),
    pytest.param(_write_manifest('{"format_version": 1,'), "checkpoint.json", id="invalid_json"),
    pytest.param(_write_manifest("[1, 2]"), "checkpoint.json", id="not_an_object"),
    pytest.param(_edit_manifest(lambda d: d.pop("parameters")), "checkpoint.json",
                 id="missing_parameters"),
    pytest.param(_edit_manifest(lambda d: d["parameters"].pop(0)), "checkpoint.json",
                 id="missing_parameter"),
    pytest.param(_edit_manifest(lambda d: d["parameters"][0].update(shape=[1])),
                 "checkpoint.json", id="misshaped_parameter"),
    pytest.param(_edit_manifest(lambda d: d.update(blob=5)), "checkpoint.json",
                 id="blob_not_a_name"),
    pytest.param(_edit_manifest(lambda d: d.update(blob="../run/checkpoint.bin")),
                 "checkpoint.json", id="blob_outside_directory"),
    pytest.param(_edit_manifest(lambda d: d.update(parameters=7)), "checkpoint.json",
                 id="parameters_not_a_list"),
    pytest.param(_edit_manifest(lambda d: d.update(config={})), "checkpoint.json",
                 id="config_without_sections"),
    pytest.param(_edit_manifest(lambda d: d.update(config=[1])), "checkpoint.json",
                 id="config_not_an_object"),
    pytest.param(_edit_manifest(lambda d: d["parameters"][0].update(shape=[2.5])),
                 "checkpoint.json", id="shape_not_integers"),
    pytest.param(_edit_manifest(lambda d: d["config"]["model"].update(hidden_dim="4")),
                 "checkpoint.json", id="echo_field_wrong_type"),
    pytest.param(_edit_manifest(lambda d: d["config"]["model"].update(bogus=1)),
                 "checkpoint.json", id="echo_unknown_key"),
])
def test_eval_bad_checkpoint_exits_two(trained_run, tmp_path, capsys, corrupt, named_file):
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run, run_dir)
    manifest = os.path.join(run_dir, "checkpoint.json")
    corrupt(manifest, os.path.join(run_dir, "checkpoint.bin"))
    capsys.readouterr()
    code = run(["eval", "--checkpoint", manifest, "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named_file in err


# -- determinism ----------------------------------------------------------------------


def test_train_bit_identical_reruns(tmp_path):
    outputs = []
    for run_dir in ("a", "b"):
        out = str(tmp_path / run_dir)
        code = run(["train", "--out", out, "--seed", "11",
                    *sum([["--set", s] for s in tiny_overrides()], [])])
        assert code == 0
        outputs.append({
            name: open(os.path.join(out, name), "rb").read()
            for name in ("history.csv", "checkpoint.json", "checkpoint.bin", "metrics.json")
        })
    assert outputs[0] == outputs[1]


# -- gradcheck ------------------------------------------------------------------------


def test_gradcheck_command_passes(tmp_path, capsys):
    code = run(["gradcheck", "--seed", "0", "--set", "gst2_variant=serial"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


# -- ablate ---------------------------------------------------------------------------


def test_ablate_records_failed_cells_and_continues(tmp_path):
    # static mode without an adjacency fails; the other cells still run
    synth_dir = str(tmp_path / "synth")
    run(["synth", "--nodes", "4", "--steps", "300", "--seed", "9", "--out", synth_dir])
    out = str(tmp_path / "ablate")
    code = run(["ablate", "--out", out, "--seed", "9",
                "--graph-modes", "static,adaptive", "--variants", "none",
                *sum([["--set", s] for s in tiny_overrides([
                    f"data.series_csv={os.path.join(synth_dir, 'series.csv')}",
                    "data.synth=null", "train.max_epochs=1"])], [])])
    assert code == 0
    lines = open(os.path.join(out, "ablation.csv")).read().strip().split("\n")
    assert len(lines) == 2  # header + the adaptive cell; static cell failed
    assert lines[1].startswith("adaptive,none,")
    summary = json.loads(open(os.path.join(out, "ablation_summary.json")).read())
    assert len(summary["failures"]) == 1
    assert summary["failures"][0]["graph_mode"] == "static"


def test_ablate_grid_subset(tmp_path):
    out = str(tmp_path / "ablate")
    code = run(["ablate", "--out", out, "--seed", "5",
                "--graph-modes", "adaptive,sequence_aware",
                "--variants", "none,ta_only",
                *sum([["--set", s] for s in tiny_overrides(["train.max_epochs=1"])], [])])
    assert code == 0
    lines = open(os.path.join(out, "ablation.csv")).read().strip().split("\n")
    assert lines[0] == "graph_mode,variant,mae,rmse,mape"
    assert len(lines) == 5  # header + 2x2 grid
    for mode in ("adaptive", "sequence_aware"):
        for variant in ("none", "ta_only"):
            assert os.path.exists(os.path.join(out, "cells", f"{mode}__{variant}", "history.csv"))
    summary = json.loads(open(os.path.join(out, "ablation_summary.json")).read())
    assert len(summary["cells"]) == 4
    assert summary["failures"] == []

import json
import os
import shutil

import numpy as np
import pytest

from flowcast import cli
from flowcast import data as dp
from flowcast import training as tr
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


def _section_seed_config(section):
    def make(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {"seed": 9}}))
        return ["--config", str(path)]
    return make


SEED_NAMED = "seed cannot be set; the top-level 'seed' (or --seed)"


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
    pytest.param(lambda tmp_path: ["--set", f"data.adjacency_csv={tmp_path / 'absent.csv'}"],
                 "data.adjacency_csv", id="adjacency_with_synth_data"),
    pytest.param(["--set", "model.input_channels=2"], "input_channels",
                 id="more_channels_than_the_data"),
    pytest.param(["--set", "train.lr=NaN"], "lr", id="lr_nan"),
    pytest.param(["--set", "train.lr=Infinity"], "lr", id="lr_infinite"),
    pytest.param(["--set", "train.beta1=1.0"], "beta1", id="beta1_one"),
    pytest.param(["--set", "train.beta1=NaN"], "beta1", id="beta1_nan"),
    pytest.param(["--set", "train.beta2=1.5"], "beta2", id="beta2_above_one"),
    pytest.param(["--set", "train.eps=-1"], "eps", id="eps_negative"),
    pytest.param(["--set", "train.eps=0"], "eps", id="eps_zero"),
    pytest.param(["--set", "train.eps=Infinity"], "eps", id="eps_infinite"),
    pytest.param(["--set", "data.synth.noise_level=-1"], "data.synth: noise level",
                 id="synth_noise_negative"),
    pytest.param(["--set", "data.synth.noise_level=NaN"], "data.synth: noise level",
                 id="synth_noise_nan"),
    pytest.param(["--set", "model.seed=5"], "model." + SEED_NAMED, id="model_seed_set"),
    pytest.param(["--set", "train.seed=9"], "train." + SEED_NAMED, id="train_seed_set"),
    pytest.param(_section_seed_config("model"), "model." + SEED_NAMED,
                 id="model_seed_in_config_file"),
    pytest.param(_section_seed_config("train"), "train." + SEED_NAMED,
                 id="train_seed_in_config_file"),
    pytest.param(["--seed", "-1"], "config error: seed must be a non-negative integer, got -1",
                 id="seed_negative"),
    pytest.param(["--set", "seed=1.5"], "config error: seed must be a non-negative integer, got 1.5",
                 id="seed_not_an_integer"),
    pytest.param(["--set", "seed=true"], "config error: seed must be a non-negative integer, "
                 "got True", id="seed_a_bool"),
    pytest.param(["--seed", "1e3"], "config error: flowcast train: argument --seed: invalid int",
                 id="seed_flag_not_an_int"),
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
    pytest.param("--noise-level", "-1", "noise level", id="noise_negative"),
    pytest.param("--noise-level", "nan", "noise level", id="noise_nan"),
    pytest.param("--noise-level", "1e308", "synth: noise level 1e+308 makes the series overflow",
                 id="noise_overflows_the_series"),
    pytest.param("--nodes", "x", "argument --nodes: invalid int value: 'x'",
                 id="nodes_not_a_number"),
    pytest.param("--seed", "-1", "synth: seed must be >= 0, got -1", id="seed_negative"),
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


def test_training_segment_that_cannot_be_normalized_exits_two(tmp_path, capsys):
    # finite readings of about 1e300 have an infinite standard deviation
    code = run(["train", "--out", str(tmp_path / "run"), "--seed", "1",
                *sum([["--set", s] for s in tiny_overrides(
                    ["data.synth.noise_level=1e300"])], [])])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot normalize" in err
    assert not os.path.exists(tmp_path / "run" / "metrics.json")


def test_overflowing_training_run_exits_three_with_one_stderr_line(tmp_path, capsys):
    # the first update overflows the parameters; numpy's overflow warnings
    # must not add lines to the one-line error
    code = run(["train", "--out", str(tmp_path / "run"), "--seed", "1",
                *sum([["--set", s] for s in tiny_overrides(["train.lr=1e308"])], [])])
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("training error:")


def _latin1_csv(directory):
    path = directory / "latin1.csv"
    path.write_bytes(b"1,2\n\xe9,3\n")
    return path


def _path_under_a_file(directory):
    path = directory / "plain.csv"
    path.write_text("1,2\n3,4\n")
    return path / "series.csv"


@pytest.mark.parametrize("key,make_path,named", [
    pytest.param("series_csv", lambda d: d, "is a directory", id="directory"),
    pytest.param("series_csv", _latin1_csv, "not UTF-8", id="not_utf8"),
    pytest.param("series_csv", _path_under_a_file, "Not a directory", id="path_under_a_file"),
    pytest.param("adjacency_csv", _path_under_a_file, "Not a directory",
                 id="adjacency_path_under_a_file"),
])
def test_bad_series_path_exits_two(tmp_path, capsys, key, make_path, named):
    bad = make_path(tmp_path)
    paths = {"series_csv": bad}
    if key == "adjacency_csv":
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n")
        paths = {"series_csv": good, "adjacency_csv": bad}
    code = run(["train", "--out", str(tmp_path / "run"),
                *sum([["--set", s] for s in tiny_overrides(
                    [f"data.{k}={v}" for k, v in paths.items()] + ["data.synth=null"])], [])])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err and str(bad) in err


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
def test_adjacency_shape_mismatch_exits_two_in_every_graph_mode(tmp_path, capsys, mode):
    # an adjacency CSV sized for other nodes than the series is bad data
    synth_dir = str(tmp_path / "synth")
    run(["synth", "--nodes", "4", "--steps", "300", "--seed", "8", "--out", synth_dir])
    adjacency = tmp_path / "adjacency3.csv"
    adjacency.write_text("0,1,1\n1,0,1\n1,1,0\n")
    code = run(["train", "--out", str(tmp_path / "run"),
                *sum([["--set", s] for s in tiny_overrides([
                    f"data.series_csv={os.path.join(synth_dir, 'series.csv')}",
                    f"data.adjacency_csv={adjacency}", "data.synth=null",
                    f"model.graph_mode={mode}"])], [])])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(adjacency) in err and "3 nodes" in err


def test_eval_adjacency_shape_mismatch_exits_two(tmp_path, capsys):
    synth_dir = str(tmp_path / "synth")
    run(["synth", "--nodes", "4", "--steps", "300", "--seed", "9", "--out", synth_dir])
    out = str(tmp_path / "run")
    series = os.path.join(synth_dir, "series.csv")
    assert run(["train", "--out", out, "--seed", "9",
                *sum([["--set", s] for s in tiny_overrides([
                    f"data.series_csv={series}", "data.synth=null",
                    "model.graph_mode=adaptive"])], [])]) == 0
    adjacency = tmp_path / "adjacency3.csv"
    adjacency.write_text("0,1,1\n1,0,1\n1,1,0\n")
    capsys.readouterr()
    code = run(["eval", "--checkpoint", os.path.join(out, "checkpoint.json"),
                "--adjacency", str(adjacency), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(adjacency) in err and "config echo" not in err


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


def _flip_first_blob_byte(manifest, blob):
    # the lowest byte of the first value: a finite value that tiles as before
    with open(blob, "r+b") as f:
        first = f.read(1)[0]
        f.seek(0)
        f.write(bytes([first ^ 1]))


def _append_to_blob(manifest, blob):
    with open(blob, "ab") as f:
        f.write(bytes(24))


def _write_manifest(text):
    return lambda manifest, blob: open(manifest, "w").write(text)


def _two_channel_model(manifest, blob):
    # a well-formed checkpoint of a model that reads two input channels,
    # which series data (one channel) cannot feed
    doc = json.loads(open(manifest).read())
    doc["config"]["model"]["input_channels"] = 2
    model = cli.md.Forecaster(cli.md.config_from_dict(doc["config"]["model"]))
    cli.md.save_checkpoint(manifest, blob, doc["config"], model.params)


def _directory_in_place_of(which):
    def corrupt(manifest, blob):
        path = manifest if which == "manifest" else blob
        os.remove(path)
        os.mkdir(path)
    return corrupt


@pytest.mark.parametrize("corrupt,named_file", [
    pytest.param(_truncate_blob, "checkpoint.bin", id="truncated_blob"),
    pytest.param(_append_to_blob, "checkpoint.bin", id="bytes_after_last_parameter"),
    pytest.param(_flip_first_blob_byte, "checkpoint.bin", id="flipped_byte"),
    pytest.param(_edit_manifest(lambda d: d.pop("blob_sha256")), "checkpoint.json",
                 id="missing_blob_sha256"),
    pytest.param(_edit_manifest(lambda d: d["parameters"][1].update(offset=0)),
                 "checkpoint.bin", id="offset_reused"),
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
    pytest.param(_two_channel_model, "checkpoint.json", id="more_channels_than_the_data"),
    pytest.param(_directory_in_place_of("manifest"), "checkpoint.json",
                 id="manifest_is_a_directory"),
    pytest.param(_directory_in_place_of("blob"), "checkpoint.bin", id="blob_is_a_directory"),
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


def test_eval_non_finite_checkpoint_value_exits_two(trained_run, tmp_path, capsys):
    # a well-formed checkpoint holding one NaN, written by save_checkpoint so
    # that the blob matches its recorded digest: the ReLUs would map it to
    # finite forecasts, so only the load can catch it
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run, run_dir)
    manifest = os.path.join(run_dir, "checkpoint.json")
    config, values = cli.md.load_checkpoint(manifest)
    model = cli.md.Forecaster(cli.md.config_from_dict(config["model"]))
    model.params.load_values(values)
    model.params["embed.node"].data.flat[1] = np.nan
    cli.md.save_checkpoint(manifest, os.path.join(run_dir, "checkpoint.bin"), config,
                           model.params)
    capsys.readouterr()
    code = run(["eval", "--checkpoint", manifest, "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "checkpoint.bin" in err and "'embed.node'" in err
    assert not os.path.exists(tmp_path / "eval" / "metrics.json")


def test_eval_non_finite_forecasts_exit_two_before_any_output(trained_run, tmp_path, capsys):
    # every stored value scaled to 1e300: finite parameters whose forecasts
    # or metrics overflow, so nothing may be written, JSON least of all
    run_dir = str(tmp_path / "run")
    shutil.copytree(trained_run, run_dir)
    manifest = os.path.join(run_dir, "checkpoint.json")
    config, values = cli.md.load_checkpoint(manifest)
    model = cli.md.Forecaster(cli.md.config_from_dict(config["model"]))
    model.params.load_values({name: value * 1e300 for name, value in values.items()})
    cli.md.save_checkpoint(manifest, os.path.join(run_dir, "checkpoint.bin"), config,
                           model.params)
    capsys.readouterr()
    out = tmp_path / "eval"
    code = run(["eval", "--checkpoint", manifest, "--out", str(out)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "checkpoint.json" in err and "not finite" in err
    assert os.listdir(out) == []


def test_eval_v1_checkpoint_fixture_exits_zero(tmp_path, capsys):
    # the committed v1 checkpoint (see tests/test_model.py) evaluates to the
    # test metrics its training run wrote
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoint_v1")
    out = tmp_path / "eval"
    code = run(["eval", "--checkpoint", os.path.join(fixture, "checkpoint.json"),
                "--out", str(out)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    with open(os.path.join(fixture, "metrics.json")) as f:
        want = json.load(f)
    got = json.loads((out / "metrics.json").read_text())
    assert len(got["per_horizon"]) == len(want["per_horizon"]) == 3
    for got_row, want_row in zip([got] + got["per_horizon"], [want] + want["per_horizon"]):
        for key in ("mae", "rmse", "mape", "mape_mask_count"):
            assert abs(got_row[key] - want_row[key]) <= 1e-12 * abs(want_row[key])


def test_eval_adjacency_with_synth_data_exits_one(trained_run, tmp_path, capsys):
    # the checkpoint's data is a synth spec, which makes its own adjacency: an
    # --adjacency file would go unread, so the command refuses it
    not_adjacency = tmp_path / "not-an-adjacency.csv"
    not_adjacency.write_text("1,2,3\n")
    capsys.readouterr()
    code = run(["eval", "--checkpoint", os.path.join(trained_run, "checkpoint.json"),
                "--adjacency", str(not_adjacency), "--out", str(tmp_path / "eval")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--adjacency" in err and "config echo" not in err


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


@pytest.mark.parametrize("mode", ["static", "adaptive", "sequence_aware"])
def test_gradcheck_command_passes(tmp_path, capsys, mode):
    code = run(["gradcheck", "--seed", "0", "--set", "gst2_variant=serial",
                "--set", f"graph_mode={mode}"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_gradcheck_builds_input_with_the_configured_channels(capsys):
    code = run(["gradcheck", "--seed", "0", "--set", "model.input_channels=2"])
    assert code == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_checks_the_configured_chebyshev_order(capsys):
    # the update pool is [d_e=2, K+1, C_in=5, d_h=4]: 160 entries at K=3
    code = run(["gradcheck", "--seed", "1", "--set", "model.cheb_order=3"])
    assert code == 0
    assert "gru.update.weight_pool: checked 160," in capsys.readouterr().out


def test_gradcheck_checks_the_configured_head_count_up_to_two(capsys, monkeypatch):
    # its hidden dim is 4, so one head checks attention at d_k = d
    seen = []
    grad_check = tr.grad_check

    def recording(cfg, *args, **kwargs):
        seen.append(cfg.heads)
        return grad_check(cfg, *args, **kwargs)

    monkeypatch.setattr(tr, "grad_check", recording)
    for heads in (1, 4):
        assert run(["gradcheck", "--seed", "1", "--set", f"model.heads={heads}"]) == 0
    assert seen == [1, 2]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-4"])
def test_gradcheck_tolerance_not_finite_and_positive_exits_one(capsys, tol):
    code = run(["gradcheck", "--seed", "0", f"--tol={tol}"])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--tol" in captured.err


def test_gradcheck_prints_fail_exactly_when_it_exits_one(capsys):
    # at a tolerance below the finite-difference noise some entries fail
    code = run(["gradcheck", "--seed", "0", "--tol", "1e-11"])
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert code == cli.EXIT_CONFIG
    assert any(line.startswith("FAIL") for line in lines)
    assert all(line.startswith(("ok  ", "FAIL  ")) for line in lines)


def test_gradcheck_section_seed_exits_one(capsys):
    code = run(["gradcheck", "--seed", "3", "--set", "train.seed=3"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "train." + SEED_NAMED in err


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


def test_ablate_does_not_record_a_program_fault(tmp_path, monkeypatch):
    # a cell records only the errors main maps to exit codes; anything else
    # ends ablate as it ends train, and is not a result of the grid
    def faulty_fit(*args, **kwargs):
        raise TypeError("a program fault")

    monkeypatch.setattr(cli.tr, "fit", faulty_fit)
    out = str(tmp_path / "ablate")
    with pytest.raises(TypeError, match="a program fault"):
        run(["ablate", "--out", out, "--seed", "9", "--graph-modes", "adaptive",
             "--variants", "none", *sum([["--set", s] for s in tiny_overrides()], [])])
    assert not os.path.exists(os.path.join(out, "ablation_summary.json"))


@pytest.mark.parametrize("extra,named", [
    pytest.param(["--graph-modes", "adaptive,bogus"],
                 "--graph-modes: unknown value 'bogus'; allowed: static, adaptive, sequence_aware",
                 id="unknown_graph_mode"),
    pytest.param(["--variants", "none,bogus"], "--variants: unknown value 'bogus'; allowed: none,",
                 id="unknown_variant"),
    pytest.param(["--set", "model.input_channels=2"], "input_channels",
                 id="more_channels_than_the_data"),
    pytest.param(["--set", "model.seed=5"], "model." + SEED_NAMED, id="model_seed_set"),
])
def test_ablate_bad_grid_or_shared_config_exits_one_before_any_cell(tmp_path, capsys, extra,
                                                                   named):
    out = tmp_path / "ablate"
    code = run(["ablate", "--out", str(out), "--seed", "5",
                *sum([["--set", s] for s in tiny_overrides(["train.max_epochs=1"])], []),
                *extra])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and named in err
    assert not (out / "cells").exists()


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

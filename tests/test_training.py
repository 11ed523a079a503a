import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast import cli
from flowcast import data as dp
from flowcast import model as md
from flowcast import training as tr
from flowcast.autodiff import Tensor
from flowcast.errors import MissingGradientError, TrainingDiverged


def tiny_config(**overrides):
    base = dict(n_nodes=4, input_steps=6, output_steps=3, embed_dim=2, hidden_dim=4,
                heads=2, cheb_order=1, dropout_input=0.0, dropout_inner=0.0,
                ffn_dim=8, fc_hidden=16, gst2_variant="parallel", seed=0)
    base.update(overrides)
    return md.ModelConfig(**base)


def scalar_store(value=0.0):
    store = md.ParameterStore()
    store.add("theta", Tensor(np.array([value])))
    return store


# -- adam --------------------------------------------------------------------


def test_adam_zero_gradient_is_fixed_point():
    store = scalar_store(1.5)
    store["theta"].grad = np.zeros(1)
    state = tr.AdamState(store)
    tr.adam_step(store, state, tr.TrainConfig(weight_decay=0.0))
    assert store["theta"].data[0] == 1.5


def test_adam_first_step_equals_learning_rate():
    # m_hat = 1, v_hat = 1 after bias correction, so the step is -lr/(1+eps)
    store = scalar_store(0.0)
    store["theta"].grad = np.ones(1)
    state = tr.AdamState(store)
    cfg = tr.TrainConfig(lr=0.003)
    tr.adam_step(store, state, cfg)
    assert abs(store["theta"].data[0] - (-0.003 / (1.0 + 1e-8))) < 1e-12
    assert abs(store["theta"].data[0] + 0.003) < 1e-9
    assert state.step == 1


def test_adam_weight_decay_shrinks_parameters():
    store = scalar_store(2.0)
    store["theta"].grad = np.zeros(1)
    state = tr.AdamState(store)
    tr.adam_step(store, state, tr.TrainConfig(weight_decay=0.001))
    assert abs(store["theta"].data[0]) < 2.0


def test_adam_missing_gradient_names_parameter():
    store = scalar_store()
    state = tr.AdamState(store)
    with pytest.raises(MissingGradientError, match="theta"):
        tr.adam_step(store, state, tr.TrainConfig())


def test_adam_second_moment_nonnegative():
    rng = np.random.default_rng(0)
    store = md.ParameterStore()
    store.add("w", Tensor(rng.standard_normal(8)))
    state = tr.AdamState(store)
    cfg = tr.TrainConfig()
    for _ in range(5):
        store["w"].grad = rng.standard_normal(8)
        tr.adam_step(store, state, cfg)
        assert state.v["w"].min() >= 0.0


# -- fit ----------------------------------------------------------------------


def fit_setup(seed=0, steps=400, n=4, noise=1.0):
    series, adjacency = dp.synthesize(n, steps, seed=seed, noise_level=noise)
    cfg = tiny_config(seed=seed)
    train_seg, val_seg, _ = dp.chronological_split(series)
    norm = dp.Normalizer.fit(train_seg.values)
    train = dp.make_windows(norm.normalize(train_seg.values), cfg.input_steps, cfg.output_steps)
    val = dp.make_windows(norm.normalize(val_seg.values), cfg.input_steps, cfg.output_steps)
    return cfg, train, val, norm, adjacency


def test_fit_reduces_training_loss():
    cfg, train, val, norm, _ = fit_setup()
    model = md.Forecaster(cfg)
    result = tr.fit(model, train, val, norm, tr.TrainConfig(max_epochs=8, patience=30, seed=0))
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_fit_constant_validation_stops_at_patience_plus_one(monkeypatch):
    cfg, train, val, norm, _ = fit_setup()
    model = md.Forecaster(cfg)
    monkeypatch.setattr(
        tr, "evaluate", lambda *a, **k: dp.MetricsReport(7.0, 8.0, 10.0, 100)
    )
    result = tr.fit(model, train, val, norm,
                    tr.TrainConfig(max_epochs=50, patience=3, seed=0))
    assert len(result.history) == 4
    assert result.best_epoch == 1


def test_fit_runs_all_epochs_when_always_improving(monkeypatch):
    cfg, train, val, norm, _ = fit_setup()
    model = md.Forecaster(cfg)
    series = iter(range(100, 0, -1))
    monkeypatch.setattr(
        tr, "evaluate",
        lambda *a, **k: dp.MetricsReport(float(next(series)), 8.0, 10.0, 100),
    )
    result = tr.fit(model, train, val, norm,
                    tr.TrainConfig(max_epochs=7, patience=3, seed=0))
    assert len(result.history) == 7
    assert result.best_epoch == 7


def test_fit_restores_best_epoch_parameters():
    cfg, train, val, norm, _ = fit_setup()
    model = md.Forecaster(cfg)
    result = tr.fit(model, train, val, norm,
                    tr.TrainConfig(max_epochs=6, patience=30, seed=0))
    best = min(result.history, key=lambda r: r.val_mae)
    assert result.best_epoch == best.epoch
    assert result.best_val_mae == best.val_mae
    for name, p in model.params:
        assert np.array_equal(p.data, result.best_values[name])
    # the restored model reproduces the recorded best validation MAE
    report = tr.evaluate(model, val[0], val[1], norm, 64)
    assert abs(report.mae - result.best_val_mae) < 1e-9


def test_fit_is_bit_reproducible():
    losses = []
    for _ in range(2):
        cfg, train, val, norm, _ = fit_setup(seed=3)
        model = md.Forecaster(cfg)
        result = tr.fit(model, train, val, norm,
                        tr.TrainConfig(max_epochs=4, patience=30, seed=3))
        losses.append([(r.train_loss, r.val_mae, r.val_rmse) for r in result.history])
    assert losses[0] == losses[1]


def test_fit_reproducible_with_dropout_enabled():
    histories = []
    for _ in range(2):
        cfg, train, val, norm, _ = fit_setup(seed=4)
        cfg.dropout_input = 0.1
        cfg.dropout_inner = 0.1
        model = md.Forecaster(cfg)
        result = tr.fit(model, train, val, norm,
                        tr.TrainConfig(max_epochs=3, patience=30, seed=4))
        histories.append([r.train_loss for r in result.history])
    assert histories[0] == histories[1]


def test_fit_raises_on_divergence():
    cfg, train, val, norm, _ = fit_setup()
    model = md.Forecaster(cfg)
    model.params["head.w2"].data[:] = np.nan
    with pytest.raises(TrainingDiverged) as excinfo:
        tr.fit(model, train, val, norm, tr.TrainConfig(max_epochs=3, seed=0))
    assert excinfo.value.epoch == 1


@pytest.mark.parametrize("mode,variant", [("adaptive", "none"),
                                          ("sequence_aware", "parallel")])
def test_fit_raises_on_a_non_finite_parameter_the_loss_does_not_see(mode, variant):
    # The ReLUs map NaN to 0, so one NaN in the node embedding leaves the loss
    # finite while the update spreads it to most parameters.
    cfg, (x, y), val, norm, _ = fit_setup(n=6)
    cfg.n_nodes, cfg.graph_mode, cfg.gst2_variant = 6, mode, variant
    model = md.Forecaster(cfg)
    model.params["embed.node"].data[0, 0] = np.nan
    batch = -(-x.shape[0] // 3)          # three steps
    with pytest.raises(TrainingDiverged, match="embed.node") as excinfo:
        tr.fit(model, (x, y), val, norm, tr.TrainConfig(max_epochs=1, batch_size=batch))
    assert (excinfo.value.epoch, excinfo.value.parameter) == (1, "embed.node")
    assert np.isfinite(excinfo.value.loss)


def test_history_csv_roundtrip(tmp_path):
    cfg, train, val, norm, _ = fit_setup()
    model = md.Forecaster(cfg)
    result = tr.fit(model, train, val, norm, tr.TrainConfig(max_epochs=3, patience=30, seed=0))
    path = str(tmp_path / "history.csv")
    tr.write_history_csv(path, result.history)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_mae,val_rmse,val_mape"
    assert len(lines) == len(result.history) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == result.history[0].train_loss


# -- gradient checker ------------------------------------------------------------


def test_grad_check_rejects_dropout():
    cfg = tiny_config(dropout_input=0.1)
    x = np.zeros((1, 6, 4, 1))
    y = np.zeros((1, 3, 4))
    with pytest.raises(ValueError):
        tr.grad_check(cfg, x, y)


def test_grad_check_linear_toy_model_near_exact():
    # graph off (static ring), global layer off: the head is the only depth
    adjacency = np.zeros((4, 4))
    for i in range(4):
        adjacency[i, (i + 1) % 4] = adjacency[(i + 1) % 4, i] = 1.0
    cfg = tiny_config(graph_mode="static", gst2_variant="none")
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6, 4, 1))
    y = rng.standard_normal((2, 3, 4))
    report = tr.grad_check(cfg, x, y, adjacency=adjacency, samples_per_tensor=40)
    assert report.max_rel_err < 1e-6
    assert report.passed


def test_grad_check_adaptive_graph_model():
    # one learned graph shared by all steps: its gradient sums over every step
    cfg = tiny_config(graph_mode="adaptive", gst2_variant="none")
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 6, 4, 1))
    y = rng.standard_normal((2, 3, 4))
    report = tr.grad_check(cfg, x, y, samples_per_tensor=40)
    assert report.max_rel_err < 1e-4
    assert report.failures == []


def test_grad_check_full_fused_model():
    cfg = tiny_config(gst2_variant="fused")
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 4, 1))
    y = rng.standard_normal((2, 3, 4))
    report = tr.grad_check(cfg, x, y, samples_per_tensor=40)
    assert report.max_rel_err < 1e-4
    assert report.failures == []


def test_grad_check_reports_every_parameter():
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 6, 4, 1))
    y = rng.standard_normal((1, 3, 4))
    report = tr.grad_check(cfg, x, y, samples_per_tensor=5)
    model = md.Forecaster(cfg)
    assert [e.name for e in report.entries] == model.params.names()
    assert all(e.checked >= 1 for e in report.entries)


def break_analytic_gradient(monkeypatch, name, value):
    """Make grad_check's analytic gradient of the parameter ``name`` read
    ``value`` everywhere: its model's backward runs, then overwrites it."""
    models = []

    class Spy(md.Forecaster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    backward = ad.backward

    def broken_backward(loss):
        backward(loss)
        models[-1].params[name].grad[...] = value

    monkeypatch.setattr(tr, "Forecaster", Spy)
    monkeypatch.setattr(ad, "backward", broken_backward)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_grad_check_fails_a_non_finite_analytic_gradient(monkeypatch, value):
    break_analytic_gradient(monkeypatch, "head.b2", value)
    cfg = tiny_config(graph_mode="adaptive", gst2_variant="none")
    rng = np.random.default_rng(4)
    report = tr.grad_check(cfg, rng.standard_normal((2, 6, 4, 1)),
                           rng.standard_normal((2, 3, 4)), samples_per_tensor=5)
    assert not report.passed and report.failures == ["head.b2"]
    assert not report.max_rel_err < 1e-4          # criterion 1's test


def test_gradcheck_command_exits_one_on_a_nan_analytic_gradient(monkeypatch, capsys):
    break_analytic_gradient(monkeypatch, "head.b2", np.nan)
    code = cli.main(["gradcheck", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert captured.err.count("\n") == 1 and "head.b2" in captured.err
    assert "FAIL  head.b2" in captured.out

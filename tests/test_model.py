import os

import numpy as np
import pytest

from flowcast import autodiff as ad
from flowcast import model as md
from flowcast.autodiff import Tensor
from flowcast.errors import ConfigError, ShapeError

from oracles import finite_diff_grad


def tiny_config(**overrides):
    base = dict(n_nodes=4, input_steps=6, output_steps=3, embed_dim=2, hidden_dim=4,
                heads=2, cheb_order=1, dropout_input=0.0, dropout_inner=0.0,
                ffn_dim=8, fc_hidden=16, seed=0)
    base.update(overrides)
    return md.ModelConfig(**base)


def ring_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


# -- config validation -----------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tiny_config(hidden_dim=6, heads=4).validate()  # not divisible
    with pytest.raises(ConfigError):
        tiny_config(cheb_order=4).validate()
    with pytest.raises(ConfigError):
        tiny_config(graph_mode="unknown").validate()
    with pytest.raises(ConfigError):
        tiny_config(gst2_variant="unknown").validate()
    with pytest.raises(ConfigError):
        tiny_config(dropout_input=1.0).validate()
    with pytest.raises(ConfigError):
        md.ModelConfig(n_nodes=None).validate()


def test_config_errors_at_construction_not_call_time():
    with pytest.raises(ConfigError):
        md.Forecaster(tiny_config(hidden_dim=5, heads=2))
    with pytest.raises(ConfigError):
        md.Forecaster(tiny_config(graph_mode="static"))  # adjacency missing


# -- forward shape grid ------------------------------------------------------------


@pytest.mark.parametrize("graph_mode", md.GRAPH_MODES)
@pytest.mark.parametrize("variant", md.GST2_VARIANTS)
def test_forward_shape_grid(graph_mode, variant):
    cfg = tiny_config(graph_mode=graph_mode, gst2_variant=variant)
    adjacency = ring_adjacency(4) if graph_mode == "static" else None
    model = md.Forecaster(cfg, adjacency=adjacency)
    x = np.random.default_rng(1).standard_normal((3, 6, 4, 1))
    out = model.predict(x)
    assert out.shape == (3, 3, 4)
    assert np.isfinite(out).all()


def test_variant_none_has_fewer_parameters():
    full = md.Forecaster(tiny_config(gst2_variant="parallel"))
    bare = md.Forecaster(tiny_config(gst2_variant="none"))
    assert bare.params.element_count < full.params.element_count
    assert not any(name.startswith("gst2.") for name in bare.params.names())


def _attention_names(*blocks):
    return [f"gst2.{b}.{w}" for b in blocks for w in ("w_q", "w_k", "w_v", "w_o")]


def _norm_names(*sites):
    return [f"gst2.norm.{s}.{g}" for s in sites for g in ("gamma", "beta")]


_FFN_NAMES = ["gst2.ffn.w1", "gst2.ffn.b1", "gst2.ffn.w2", "gst2.ffn.b2"]

# checkpoints store parameters by name in this order; the key order is the
# default ablation grid
GST2_PARAMETER_NAMES = {
    "none": [],
    "ta_only": _attention_names("temporal") + _norm_names("temporal"),
    "sa_only": _attention_names("spatial") + _norm_names("spatial"),
    "parallel": _attention_names("temporal", "spatial") + ["gst2.concat_proj"] + _FFN_NAMES
                + _norm_names("merge", "ffn"),
    "serial": _attention_names("temporal", "spatial") + _FFN_NAMES
              + _norm_names("temporal", "spatial", "ffn"),
    "fused": _attention_names("spatial", "fusion") + _FFN_NAMES + _norm_names("fusion", "ffn"),
}


def test_gst2_parameter_names_pinned_per_variant():
    assert md.GST2_VARIANTS == tuple(GST2_PARAMETER_NAMES)
    for variant, expected in GST2_PARAMETER_NAMES.items():
        names = md.Forecaster(tiny_config(gst2_variant=variant)).params.names()
        assert [n for n in names if n.startswith("gst2.")] == expected, variant


def test_registry_deterministic_across_constructions():
    a = md.Forecaster(tiny_config(seed=5))
    b = md.Forecaster(tiny_config(seed=5))
    assert a.params.names() == b.params.names()
    for name in a.params.names():
        assert a.params[name].shape == b.params[name].shape
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_forward_deterministic_at_inference():
    model = md.Forecaster(tiny_config(dropout_input=0.1, dropout_inner=0.1))
    x = np.random.default_rng(2).standard_normal((2, 6, 4, 1))
    assert np.array_equal(model.predict(x), model.predict(x))


def test_forward_rejects_wrong_shape():
    model = md.Forecaster(tiny_config())
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((2, 5, 4, 1))))


def test_training_forward_with_dropout_requires_rng():
    model = md.Forecaster(tiny_config(dropout_input=0.1))
    x = Tensor(np.zeros((1, 6, 4, 1)))
    with pytest.raises(ValueError):
        model.forward(x, training=True)
    out = model.forward(x, training=True, rng=np.random.default_rng(0))
    assert out.shape == (1, 3, 4)


# -- permutation equivariance ---------------------------------------------------------


@pytest.mark.parametrize("graph_mode", md.GRAPH_MODES)
def test_joint_node_permutation_equivariance(graph_mode):
    rng = np.random.default_rng(3)
    n = 4
    adjacency = None
    if graph_mode == "static":
        adjacency = ring_adjacency(n)
        adjacency[0, 2] = adjacency[2, 0] = 1.0  # break regularity
    cfg = tiny_config(graph_mode=graph_mode)
    model = md.Forecaster(cfg, adjacency=adjacency)
    x = rng.standard_normal((2, 6, n, 1))
    base = model.predict(x)

    perm = rng.permutation(n)
    permuted_model = md.Forecaster(cfg, adjacency=None if adjacency is None
                                   else adjacency[np.ix_(perm, perm)])
    # copy permuted parameters: node-indexed tensors permute, others copy
    values = model.params.values_copy()
    values["embed.node"] = values["embed.node"][perm]
    permuted_model.params.load_values(values)
    permuted = permuted_model.predict(x[:, :, perm])
    assert np.abs(permuted - base[:, :, perm]).max() < 1e-10


# -- loss -------------------------------------------------------------------------------


def test_l1_loss_zero_when_equal():
    x = Tensor(np.random.default_rng(4).standard_normal((2, 3, 4)))
    assert md.l1_loss(x, Tensor(x.data.copy())).item() == 0.0


def test_l1_loss_hand_case():
    loss = md.l1_loss(Tensor([1.0, 2.0]), Tensor([3.0, 2.0]))
    assert loss.item() == 1.0


def test_l1_loss_positive_unless_equal():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    b = a.copy()
    b[0, 0] += 1e-9
    assert md.l1_loss(Tensor(a), Tensor(b)).item() > 0.0


def test_l1_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        md.l1_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_l1_loss_gradient_is_scaled_sign():
    rng = np.random.default_rng(6)
    pred_arr = rng.standard_normal((2, 3))
    target = rng.standard_normal((2, 3))
    pred = Tensor(pred_arr, requires_grad=True)
    ad.backward(md.l1_loss(pred, Tensor(target)))
    assert np.array_equal(pred.grad, np.sign(pred_arr - target) / pred_arr.size)

    fd = finite_diff_grad(lambda: float(np.abs(pred_arr - target).mean()), pred_arr)
    rel = np.abs(pred.grad - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-6


def test_full_model_gradients_vs_finite_differences():
    cfg = tiny_config(gst2_variant="serial", seed=9)
    model = md.Forecaster(cfg)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 6, 4, 1))
    y = rng.standard_normal((2, 3, 4))
    xt, yt = Tensor(x), Tensor(y)

    model.params.zero_grads()
    ad.backward(md.l1_loss(model.forward(xt), yt))

    def loss_value():
        with ad.no_grad():
            return md.l1_loss(model.forward(xt), yt).item()

    # a spread of parameters across all stages
    for name in ("embed.node", "embed.position", "gru.candidate.weight_pool",
                 "gst2.temporal.w_q", "gst2.ffn.w1", "head.w2"):
        p = model.params[name]
        fd = finite_diff_grad(loss_value, p.data)
        rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4, name


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    model = md.Forecaster(tiny_config(seed=11))
    manifest = str(tmp_path / "checkpoint.json")
    blob = str(tmp_path / "checkpoint.bin")
    echo = {"model": md.config_to_dict(model.cfg), "note": "roundtrip"}
    md.save_checkpoint(manifest, blob, echo, model.params)

    loaded_echo, values = md.load_checkpoint(manifest)
    assert loaded_echo == echo
    assert set(values) == set(model.params.names())
    for name, p in model.params:
        assert np.array_equal(values[name], p.data)

    other = md.Forecaster(tiny_config(seed=99))
    other.params.load_values(values)
    x = np.random.default_rng(12).standard_normal((2, 6, 4, 1))
    assert np.array_equal(other.predict(x), model.predict(x))


def test_checkpoint_blob_is_little_endian_float64(tmp_path):
    model = md.Forecaster(tiny_config(seed=13))
    manifest = str(tmp_path / "c.json")
    blob = str(tmp_path / "c.bin")
    md.save_checkpoint(manifest, blob, {}, model.params)
    size = os.path.getsize(blob)
    assert size == 8 * model.params.element_count
    first = model.params[model.params.names()[0]]
    raw = np.fromfile(blob, dtype="<f8", count=first.size)
    assert np.array_equal(raw.reshape(first.shape), first.data)

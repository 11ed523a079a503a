"""End-to-end forecaster: graph learning -> recurrent encoder -> global
awareness block -> two-layer output head, plus the L1 training loss and the
checkpoint format (JSON manifest + raw float64 blob)."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import attention as att
from . import graphs, recurrent
from .autodiff import Tensor
from .data import write_atomic
from .errors import ConfigError, ParseError, ShapeError

GRAPH_MODES = ("static", "adaptive", "sequence_aware")
GST2_VARIANTS = ("none",) + tuple(att.BLOCKS)

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class ModelConfig:
    """Architecture hyperparameters. ``n_nodes`` is usually inferred from the
    data; everything else has a desk-scale default."""

    n_nodes: int | None = None
    input_steps: int = 12
    output_steps: int = 12
    input_channels: int = 1
    embed_dim: int = 4
    hidden_dim: int = 32
    cheb_order: int = 1
    heads: int = 4
    graph_mode: str = "sequence_aware"
    gst2_variant: str = "parallel"
    dropout_input: float = 0.1
    dropout_inner: float = 0.1
    ffn_dim: int | None = None     # defaults to 4 * hidden_dim
    fc_hidden: int = 256
    seed: int = 0

    def resolved_ffn_dim(self) -> int:
        return 4 * self.hidden_dim if self.ffn_dim is None else self.ffn_dim

    def validate(self):
        if self.n_nodes is None or self.n_nodes < 1:
            raise ConfigError(f"n_nodes must be a positive integer, got {self.n_nodes}")
        if self.input_steps < 1 or self.output_steps < 1:
            raise ConfigError("input_steps and output_steps must be >= 1")
        if self.input_channels < 1:
            raise ConfigError("input_channels must be >= 1")
        if not 1 <= self.embed_dim <= 10:
            raise ConfigError(f"embed_dim must be in 1..10, got {self.embed_dim}")
        if self.cheb_order not in (1, 2, 3):
            raise ConfigError(f"cheb_order must be 1, 2 or 3, got {self.cheb_order}")
        if self.hidden_dim < 1 or self.heads < 1 or self.hidden_dim % self.heads != 0:
            raise ConfigError(
                f"hidden_dim {self.hidden_dim} must be a positive multiple of heads {self.heads}"
            )
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode must be one of {GRAPH_MODES}, got '{self.graph_mode}'")
        if self.gst2_variant not in GST2_VARIANTS:
            raise ConfigError(f"gst2_variant must be one of {GST2_VARIANTS}, got '{self.gst2_variant}'")
        for name, rate in (("dropout_input", self.dropout_input), ("dropout_inner", self.dropout_inner)):
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if self.resolved_ffn_dim() < 1 or self.fc_hidden < 1:
            raise ConfigError("ffn_dim and fc_hidden must be >= 1")


class ParameterStore:
    """Flat registry of named learnable tensors, in deterministic insertion
    order for a given config."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def names(self) -> list[str]:
        return list(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.items())

    def __len__(self) -> int:
        return len(self._params)

    @property
    def element_count(self) -> int:
        return sum(t.size for _, t in self)

    def zero_grads(self):
        for _, t in self:
            t.zero_grad()

    def values_copy(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self}

    def load_values(self, values: dict[str, np.ndarray]):
        for name, t in self:
            if name not in values:
                raise KeyError(f"checkpoint is missing parameter '{name}'")
            v = np.asarray(values[name], dtype=np.float64)
            if v.shape != t.shape:
                raise ShapeError(f"parameter '{name}': stored shape {v.shape} != model shape {t.shape}")
            t.data = v.copy()


class Forecaster:
    """The full prediction model. Construction allocates every parameter from
    the config seed; ``forward`` maps [B, T, N, C] windows to [B, T_out, N]
    forecasts."""

    def __init__(self, cfg: ModelConfig, adjacency: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        self.params = ParameterStore()
        rng = np.random.default_rng(cfg.seed)

        sequence_mode = cfg.graph_mode == "sequence_aware"
        self.bank = graphs.EmbeddingBank.create(
            cfg.n_nodes, cfg.input_steps, cfg.embed_dim, rng, with_positions=sequence_mode
        )
        self.params.add("embed.node", self.bank.node)
        if sequence_mode:
            self.params.add("embed.position", self.bank.position)
            self.params.add("embed.ln_gamma", self.bank.ln_gamma)
            self.params.add("embed.ln_beta", self.bank.ln_beta)

        self.cell = recurrent.GruCellParams.create(
            cfg.input_channels, cfg.hidden_dim, cfg.embed_dim, cfg.cheb_order, rng
        )
        for gate_name, gate in (("update", self.cell.update), ("reset", self.cell.reset),
                                ("candidate", self.cell.candidate)):
            self.params.add(f"gru.{gate_name}.weight_pool", gate.weight_pool)
            self.params.add(f"gru.{gate_name}.bias_pool", gate.bias_pool)

        self.gst2 = None
        if cfg.gst2_variant != "none":
            self.gst2 = att.Gst2Params.create(
                cfg.gst2_variant, cfg.hidden_dim, cfg.heads, cfg.resolved_ffn_dim(), rng
            )
            self._register_gst2(self.gst2)

        flat = cfg.input_steps * cfg.hidden_dim
        w_bound = np.sqrt(1.0 / flat)
        self.head_w1 = self.params.add(
            "head.w1", Tensor(rng.uniform(-w_bound, w_bound, (flat, cfg.fc_hidden))))
        self.head_b1 = self.params.add("head.b1", Tensor(np.zeros(cfg.fc_hidden)))
        v_bound = np.sqrt(1.0 / cfg.fc_hidden)
        self.head_w2 = self.params.add(
            "head.w2", Tensor(rng.uniform(-v_bound, v_bound, (cfg.fc_hidden, cfg.output_steps))))
        self.head_b2 = self.params.add("head.b2", Tensor(np.zeros(cfg.output_steps)))

        self._static_bundle = None
        if cfg.graph_mode == "static":
            if adjacency is None:
                raise ConfigError("graph_mode 'static' requires an adjacency matrix")
            adjacency = np.asarray(adjacency, dtype=np.float64)
            if adjacency.shape != (cfg.n_nodes, cfg.n_nodes):
                raise ConfigError(
                    f"adjacency shape {adjacency.shape} does not match n_nodes {cfg.n_nodes}"
                )
            self._static_bundle = graphs.build_static_graph(
                adjacency, cfg.input_steps, cfg.cheb_order
            )

    def _register_gst2(self, p: att.Gst2Params):
        for att_name, ap in (("temporal", p.temporal), ("spatial", p.spatial), ("fusion", p.fusion)):
            if ap is None:
                continue
            for proj in ("w_q", "w_k", "w_v", "w_o"):
                self.params.add(f"gst2.{att_name}.{proj}", getattr(ap, proj))
        if p.concat_proj is not None:
            self.params.add("gst2.concat_proj", p.concat_proj)
        if p.ffn_w1 is not None:
            self.params.add("gst2.ffn.w1", p.ffn_w1)
            self.params.add("gst2.ffn.b1", p.ffn_b1)
            self.params.add("gst2.ffn.w2", p.ffn_w2)
            self.params.add("gst2.ffn.b2", p.ffn_b2)
        for site, norm in p.norms.items():
            self.params.add(f"gst2.norm.{site}.gamma", norm.gamma)
            self.params.add(f"gst2.norm.{site}.beta", norm.beta)

    def build_bundle(self) -> graphs.GraphBundle:
        cfg = self.cfg
        if cfg.graph_mode == "static":
            return self._static_bundle
        if cfg.graph_mode == "adaptive":
            return graphs.build_adaptive_graph(self.bank.node, cfg.input_steps, cfg.cheb_order)
        return graphs.build_sequence_graphs(self.bank, cfg.cheb_order)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.cfg
        if x.ndim != 4 or x.shape[1] != cfg.input_steps or x.shape[2] != cfg.n_nodes \
                or x.shape[3] != cfg.input_channels:
            raise ShapeError(
                f"input shape {x.shape} does not match (B, {cfg.input_steps}, "
                f"{cfg.n_nodes}, {cfg.input_channels})"
            )
        needs_rng = training and (cfg.dropout_input > 0 or cfg.dropout_inner > 0)
        if needs_rng and rng is None:
            raise ValueError("training forward with dropout requires a seeded rng")
        bundle = self.build_bundle()
        h = recurrent.encode_sequence(x, self.cell, bundle, self.bank)  # [B, N, T, d_h]
        h = att.apply_global_layer(
            h, self.gst2, input_dropout=cfg.dropout_input, inner_dropout=cfg.dropout_inner,
            training=training, rng=rng,
        )
        b, n = h.shape[0], h.shape[1]
        flat = ad.reshape(h, (b, n, cfg.input_steps * cfg.hidden_dim))
        hidden = ad.relu(ad.add(ad.matmul(flat, self.head_w1), self.head_b1))
        out = ad.add(ad.matmul(hidden, self.head_w2), self.head_b2)    # [B, N, T_out]
        return ad.transpose(out, (0, 2, 1))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference convenience: numpy in, numpy out, nothing recorded."""
        with ad.no_grad():
            return self.forward(Tensor(x), training=False).data


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over every element; the gradient at ties is 0."""
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss: shapes {pred.shape} and {target.shape} differ")
    return ad.mean_all(ad.absolute(ad.sub(pred, target)))


# -- checkpoint format --------------------------------------------------------


def save_checkpoint(manifest_path: str, blob_path: str, config_echo: dict,
                    store: ParameterStore):
    """Write a JSON manifest ({name, shape, offset} per parameter plus the
    config echo) and a blob of little-endian float64 values in manifest order."""
    entries = []
    chunks = []
    offset = 0
    for name, t in store:
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(t.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config_echo,
        "blob": os.path.basename(blob_path),
        "parameters": entries,
    }
    write_atomic(blob_path, b"".join(chunks))
    write_atomic(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(manifest_path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a manifest + blob pair; returns (config echo, name -> array).

    Raises ParseError naming the file when the manifest is not a JSON object
    with ``blob``, ``config`` and ``parameters``, has a malformed parameter
    entry, or points past the end of the blob."""
    with open(manifest_path, "r", encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: manifest must be a JSON object")
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ParseError(f"{manifest_path}: unsupported checkpoint format: "
                         f"{manifest.get('format_version')}")
    missing = [key for key in ("blob", "config", "parameters") if key not in manifest]
    if missing:
        raise ParseError(f"{manifest_path}: manifest is missing {', '.join(missing)}")
    blob_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), manifest["blob"])
    with open(blob_path, "rb") as f:
        blob = f.read()
    values = {}
    for entry in manifest["parameters"]:
        try:
            name, shape, start = entry["name"], tuple(entry["shape"]), int(entry["offset"])
            count = int(np.prod(shape)) if shape else 1
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"{manifest_path}: malformed parameter entry {entry!r}") from None
        if start < 0 or start + 8 * count > len(blob):
            raise ParseError(
                f"{blob_path}: parameter '{name}' ({8 * count} bytes at offset {start}) "
                f"runs past the end of the {len(blob)}-byte blob"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        values[name] = arr.reshape(shape).astype(np.float64)
    return manifest["config"], values


def config_to_dict(cfg: ModelConfig) -> dict:
    return asdict(cfg)


def config_from_dict(d: dict) -> ModelConfig:
    allowed = {f for f in ModelConfig.__dataclass_fields__}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
    return ModelConfig(**d)

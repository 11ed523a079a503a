"""End-to-end forecaster: graph learning -> recurrent encoder -> global
awareness block -> two-layer output head, plus the L1 training loss and the
checkpoint format (JSON manifest + raw float64 blob)."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import autodiff as ad
from . import attention as att
from . import graphs, recurrent
from .autodiff import Tensor
from .data import write_atomic
from .errors import ConfigError, ParseError, ShapeError

GRAPH_MODES = ("static", "adaptive", "sequence_aware")
GST2_VARIANTS = ("none",) + tuple(att.BLOCKS)

CHECKPOINT_FORMAT_VERSION = 2     # 2 records the blob's byte length and sha256; 1 loads too


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
        check_field_types(self)
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_TYPE_CHECKS = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def check_type(name: str, value, kind: str):
    """Raise ConfigError unless ``value`` is of ``kind``: an 'int' is an int and
    not a bool, a 'float' is an int or a float, a 'str' is a string."""
    described, accepts = _TYPE_CHECKS[kind]
    if not accepts(value):
        raise ConfigError(f"{name} must be {described}, got {value!r}")


def check_field_types(cfg):
    """check_type on every field of a config dataclass, by its annotation
    ('int', 'float', 'str', optionally '| None')."""
    for f in fields(cfg):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(cfg, f.name)
        if not (optional and value is None):
            check_type(f.name, value, kind)


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


def _named_tensors(prefix: str, value):
    """(name, tensor) for every Tensor in a parameter dataclass, named by its
    field path from ``prefix`` (a dict's entries by key), in field order."""
    if isinstance(value, Tensor):
        yield prefix, value
    elif is_dataclass(value):
        for f in fields(value):
            yield from _named_tensors(f"{prefix}.{f.name}", getattr(value, f.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _named_tensors(f"{prefix}.{key}", item)


class Forecaster:
    """The full prediction model. Construction allocates every parameter from
    the config seed; ``forward`` maps [B, T, N, C] windows to [B, T_out, N]
    forecasts."""

    def __init__(self, cfg: ModelConfig, adjacency: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        self.params = ParameterStore()
        rng = np.random.default_rng(cfg.seed)

        self.bank = graphs.EmbeddingBank.create(
            cfg.n_nodes, cfg.input_steps, cfg.embed_dim, rng,
            with_positions=cfg.graph_mode == "sequence_aware",
        )
        self.cell = recurrent.GruCellParams.create(
            cfg.input_channels, cfg.hidden_dim, cfg.embed_dim, cfg.cheb_order, rng
        )
        self.gst2 = None
        if cfg.gst2_variant != "none":
            self.gst2 = att.Gst2Params.create(
                cfg.gst2_variant, cfg.hidden_dim, cfg.heads, cfg.resolved_ffn_dim(), rng
            )
        self.head = att.FfnParams.create(
            cfg.input_steps * cfg.hidden_dim, cfg.fc_hidden, cfg.output_steps, rng
        )
        for prefix, part in (("embed", self.bank), ("gru", self.cell), ("gst2", self.gst2),
                             ("head", self.head)):
            for name, tensor in _named_tensors(prefix, part):
                self.params.add(name, tensor)

        # checked in every graph mode, though only static mode reads it
        if adjacency is not None:
            adjacency = np.asarray(adjacency, dtype=np.float64)
            if adjacency.shape != (cfg.n_nodes, cfg.n_nodes):
                raise ConfigError(
                    f"adjacency shape {adjacency.shape} does not match n_nodes {cfg.n_nodes}"
                )
        self._static_bundle = None
        if cfg.graph_mode == "static":
            if adjacency is None:
                raise ConfigError("graph_mode 'static' requires an adjacency matrix")
            self._static_bundle = graphs.build_static_graph(adjacency)

    def build_bundle(self) -> graphs.GraphBundle:
        cfg = self.cfg
        if cfg.graph_mode == "static":
            return self._static_bundle
        if cfg.graph_mode == "adaptive":
            return graphs.build_adaptive_graph(self.bank.node)
        return graphs.build_sequence_graphs(self.bank)

    def forward(self, x: Tensor, training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.cfg
        if x.ndim != 4 or x.shape[1] != cfg.input_steps or x.shape[2] != cfg.n_nodes \
                or x.shape[3] != cfg.input_channels:
            raise ShapeError(
                f"input shape {x.shape} does not match (B, {cfg.input_steps}, "
                f"{cfg.n_nodes}, {cfg.input_channels})"
            )
        # the only train-or-infer decision; below it, inference is dropout at rate 0
        input_rate, inner_rate = (cfg.dropout_input, cfg.dropout_inner) if training else (0.0, 0.0)
        if (input_rate > 0 or inner_rate > 0) and rng is None:
            raise ValueError("training forward with dropout requires a seeded rng")
        # [B, N, T, d_h]; no local keeps the bundle, so under no_grad its
        # [T, N, N] graphs are freed before the global block runs
        h = recurrent.encode_sequence(x, self.cell, self.build_bundle(), self.bank)
        h = att.apply_global_layer(h, self.gst2, input_rate, inner_rate, rng)
        b, n = h.shape[0], h.shape[1]
        flat = ad.reshape(h, (b, n, cfg.input_steps * cfg.hidden_dim))
        out = att.feed_forward(flat, self.head)    # [B, N, T_out]
        return ad.transpose(out, (0, 2, 1))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference convenience: numpy in, numpy out, nothing recorded."""
        with ad.no_grad():
            return self.forward(Tensor(x), training=False).data


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over every element, as one tape op. ``target`` is
    data: only ``pred`` gets a gradient, sign(pred - target) / n, which is 0
    at ties."""
    if pred.shape != target.shape:
        raise ShapeError(f"l1_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target.data
    out = Tensor(np.abs(diff).mean())

    def back(g):
        grad = np.sign(diff)
        grad *= g / diff.size
        ad._accum(pred, grad)

    return ad._record(out, (pred,), back)


# -- checkpoint format --------------------------------------------------------


def save_checkpoint(manifest_path: str, blob_path: str, config_echo: dict,
                    store: ParameterStore):
    """Write a JSON manifest ({name, shape, offset} per parameter, the config
    echo, and the blob's byte length and sha256) and a blob of little-endian
    float64 values in manifest order."""
    entries = []
    chunks = []
    offset = 0
    for name, t in store:
        raw = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(t.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config_echo,
        "blob": os.path.basename(blob_path),
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "parameters": entries,
    }
    write_atomic(blob_path, blob)
    write_atomic(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
                                 + "\n").encode())


def load_checkpoint(manifest_path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a manifest + blob pair; returns (config echo, name -> array).

    Raises ParseError naming the file when either file cannot be read (it is
    missing or a directory, say), when the manifest is not a JSON object
    with ``blob`` (a bare file name beside the manifest), ``config`` (an
    object with an object ``model`` section; ``data`` and ``train`` sections,
    where present, are objects too) and ``parameters`` (a list), has a
    malformed parameter entry (name, a shape that is a list of non-negative
    ints, a non-negative int offset), or does not tile the blob: each
    parameter must start where the previous one ends, the first at 0, and
    the last must end at the blob's end. A version 2 manifest also records
    the blob's byte length and sha256 (``blob_bytes``, ``blob_sha256``):
    both must match before any parameter is read, or the ParseError names
    the blob. Version 1 manifests, which have neither, still load. Names the
    blob and the parameter when a stored value is NaN or infinite."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except OSError as exc:
        raise ParseError(f"{manifest_path}: cannot read checkpoint manifest: {exc.strerror}") \
            from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ParseError(f"{manifest_path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if not _is_int(version) or version not in (1, CHECKPOINT_FORMAT_VERSION):
        raise ParseError(f"{manifest_path}: unsupported checkpoint format: {version}")
    required = ["blob", "config", "parameters"]
    if version > 1:
        required += ["blob_bytes", "blob_sha256"]
    missing = [key for key in required if key not in manifest]
    if missing:
        raise ParseError(f"{manifest_path}: manifest is missing {', '.join(missing)}")
    blob_name, config, entries = manifest["blob"], manifest["config"], manifest["parameters"]
    if not isinstance(blob_name, str) or blob_name in ("", ".", "..") \
            or os.path.basename(blob_name) != blob_name:
        raise ParseError(f"{manifest_path}: blob must be a file name beside the manifest, "
                         f"got {blob_name!r}")
    if not isinstance(config, dict) or "model" not in config or \
            any(not isinstance(config[key], dict) for key in ("data", "model", "train")
                if key in config):
        raise ParseError(f"{manifest_path}: config must be an object with a model section, "
                         "and its data, model and train sections must be objects")
    if not isinstance(entries, list):
        raise ParseError(f"{manifest_path}: parameters must be a list")
    blob_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), blob_name)
    try:
        with open(blob_path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise ParseError(f"{blob_path}: cannot read checkpoint blob: {exc.strerror}") from None
    if version > 1:
        if len(blob) != manifest["blob_bytes"]:
            raise ParseError(f"{blob_path}: blob holds {len(blob)} bytes, but {manifest_path} "
                             f"records {manifest['blob_bytes']!r}")
        if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
            raise ParseError(f"{blob_path}: blob's sha256 does not match the one {manifest_path} "
                             "records; the file is corrupt")
    values = {}
    end = 0
    for entry in entries:
        name, shape, start = (entry.get(key) for key in ("name", "shape", "offset")) \
            if isinstance(entry, dict) else (None, None, None)
        if not isinstance(name, str) or not isinstance(shape, list) or \
                not all(_is_int(n) and n >= 0 for n in shape + [start]):
            raise ParseError(f"{manifest_path}: malformed parameter entry {entry!r}")
        count = math.prod(shape)
        if start != end:
            raise ParseError(f"{manifest_path}: parameter '{name}' starts at offset {start} of "
                             f"{blob_path}, not at {end} where the previous one ends")
        end = start + 8 * count
        if end > len(blob):
            raise ParseError(
                f"{blob_path}: parameter '{name}' ({8 * count} bytes at offset {start}) "
                f"runs past the end of the {len(blob)}-byte blob"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        if not np.isfinite(arr).all():
            raise ParseError(f"{blob_path}: parameter '{name}' holds a non-finite value")
        values[name] = arr.reshape(shape).astype(np.float64)
    if end != len(blob):
        raise ParseError(f"{blob_path}: the parameters of {manifest_path} end at byte {end} "
                         f"of the {len(blob)}-byte blob")
    return config, values


def config_to_dict(cfg: ModelConfig) -> dict:
    return asdict(cfg)


def config_from_dict(d: dict) -> ModelConfig:
    allowed = {f for f in ModelConfig.__dataclass_fields__}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
    return ModelConfig(**d)

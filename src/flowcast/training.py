"""Adam training loop with early stopping on validation MAE, plus the
finite-difference gradient checker used to validate the whole model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import MetricsReport, Normalizer, metrics, write_atomic
from .errors import ConfigError, MissingGradientError, TrainingDiverged
from .model import Forecaster, ModelConfig, ParameterStore, l1_loss


@dataclass
class TrainConfig:
    lr: float = 0.003
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    max_epochs: int = 500
    patience: int = 30
    batch_size: int = 64
    seed: int = 0

    def validate(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be >= 1")
        if not 0.0 <= self.weight_decay <= 0.001:
            raise ConfigError(f"weight_decay must be in [0, 0.001], got {self.weight_decay}")


class AdamState:
    """First/second moment buffers per parameter plus the step counter."""

    def __init__(self, store: ParameterStore):
        self.m = {name: np.zeros(t.shape) for name, t in store}
        self.v = {name: np.zeros(t.shape) for name, t in store}
        self.step = 0


def adam_step(store: ParameterStore, state: AdamState, cfg: TrainConfig):
    """One Adam update with coupled L2 weight decay (decay added to the raw
    gradient). Every parameter must carry a gradient."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - cfg.beta1 ** t
    bias2 = 1.0 - cfg.beta2 ** t
    for name, p in store:
        if p.grad is None:
            raise MissingGradientError(name)
        g = p.grad
        if cfg.weight_decay > 0.0:
            g = g + cfg.weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mae: float
    val_rmse: float
    val_mape: float | None

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_mae": self.val_mae,
            "val_rmse": self.val_rmse,
            "val_mape": self.val_mape,
        }


@dataclass
class FitResult:
    best_values: dict[str, np.ndarray]
    best_epoch: int
    best_val_mae: float
    history: list[EpochRecord] = field(default_factory=list)


def predict_batched(model: Forecaster, x: np.ndarray, batch_size: int) -> np.ndarray:
    """Deterministic inference over [n, T, N, 1] windows in fixed-size chunks."""
    outputs = []
    for start in range(0, x.shape[0], batch_size):
        outputs.append(model.predict(x[start:start + batch_size]))
    return np.concatenate(outputs, axis=0)


def evaluate(model: Forecaster, x: np.ndarray, y: np.ndarray,
             normalizer: Normalizer, batch_size: int) -> MetricsReport:
    preds = predict_batched(model, x, batch_size)
    return metrics(preds, y, normalizer)


def fit(model: Forecaster, train_xy: tuple[np.ndarray, np.ndarray],
        val_xy: tuple[np.ndarray, np.ndarray], normalizer: Normalizer,
        cfg: TrainConfig, log=None) -> FitResult:
    """Train with Adam, evaluating denormalized validation MAE after every
    epoch. Stops after ``patience`` consecutive epochs without improvement and
    restores the parameters of the best epoch before returning.

    Raises TrainingDiverged as soon as a batch loss is NaN/Inf.
    """
    cfg.validate()
    x_train, y_train = train_xy
    x_val, y_val = val_xy
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ConfigError("fit needs non-empty train and validation windows")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.params)
    best = FitResult(best_values=model.params.values_copy(), best_epoch=0,
                     best_val_mae=math.inf)
    since_improvement = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(x_train.shape[0])
        losses = []
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            model.params.zero_grads()
            pred = model.forward(Tensor(x_train[idx]), training=True, rng=rng)
            loss = l1_loss(pred, Tensor(y_train[idx]))
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, value)
            ad.backward(loss)
            adam_step(model.params, state, cfg)
            losses.append(value)
        val = evaluate(model, x_val, y_val, normalizer, cfg.batch_size)
        record = EpochRecord(epoch, float(np.mean(losses)), val.mae, val.rmse, val.mape)
        best.history.append(record)
        if log is not None:
            log(record)
        if val.mae < best.best_val_mae:
            best.best_val_mae = val.mae
            best.best_epoch = epoch
            best.best_values = model.params.values_copy()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= cfg.patience:
                break
    model.params.load_values(best.best_values)
    return best


def write_history_csv(path: str, history: list[EpochRecord]):
    lines = ["epoch,train_loss,val_mae,val_rmse,val_mape"]
    for r in history:
        mape = "" if r.val_mape is None else repr(r.val_mape)
        lines.append(f"{r.epoch},{r.train_loss!r},{r.val_mae!r},{r.val_rmse!r},{mape}")
    write_atomic(path, ("\n".join(lines) + "\n").encode())


# -- gradient checking ----------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    checked: int
    max_rel_err: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def failures(self) -> list[str]:
        return [e.name for e in self.entries if e.max_rel_err >= self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures


def grad_check(cfg: ModelConfig, x: np.ndarray, y: np.ndarray,
               adjacency: np.ndarray | None = None, h: float = 1e-5,
               tol: float = 1e-4, samples_per_tensor: int = 200,
               seed: int = 0) -> GradCheckReport:
    """Compare every autodiff gradient of l1_loss(forward(x), y) against
    central finite differences.

    Tensors larger than ``samples_per_tensor`` are subsampled with a seeded
    generator. Dropout must be disabled in the config: a stochastic forward
    invalidates the oracle.
    """
    if cfg.dropout_input != 0.0 or cfg.dropout_inner != 0.0:
        raise ValueError("grad_check requires dropout rates of exactly 0")
    model = Forecaster(cfg, adjacency=adjacency)
    xt, yt = Tensor(x), Tensor(y)
    model.params.zero_grads()
    loss = l1_loss(model.forward(xt, training=False), yt)
    ad.backward(loss)
    analytic = {name: p.grad.copy() for name, p in model.params}

    def loss_value() -> float:
        with ad.no_grad():
            return l1_loss(model.forward(xt, training=False), yt).item()

    rng = np.random.default_rng(seed)
    entries = []
    for name, p in model.params:
        flat = p.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        if flat.size <= samples_per_tensor:
            indices = np.arange(flat.size)
        else:
            indices = rng.choice(flat.size, size=samples_per_tensor, replace=False)
        worst = 0.0
        for i in indices:
            original = flat[i]
            flat[i] = original + h
            up = loss_value()
            flat[i] = original - h
            down = loss_value()
            flat[i] = original
            fd = (up - down) / (2.0 * h)
            rel = abs(grad_flat[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
        entries.append(GradCheckEntry(name, len(indices), worst))
    return GradCheckReport(entries, tol)

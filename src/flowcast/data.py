"""Series ingestion, windowing, chronological splits, normalization,
evaluation metrics, and a synthetic traffic generator for desk-scale runs.

Series files are headerless CSV with one row per 5-minute step and one column
per sensor. Splitting happens on the raw series *before* windowing so no
training window leaks into validation or test.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParseError

DAY_STEPS = 288  # 5-minute ticks per day


@dataclass
class TrafficSeries:
    """A multivariate flow series: values[s, n] is the reading of sensor n at
    step s, in vehicles per 5 minutes."""

    values: np.ndarray
    interval_minutes: int = 5

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def node_count(self) -> int:
        return self.values.shape[1]


def load_series(path: str) -> TrafficSeries:
    """Parse a headerless CSV of plain decimal floats into a TrafficSeries.

    Raises ParseError naming the offending line (and column for bad cells);
    a cell that parses to NaN or infinity is a bad cell.
    """
    rows = []
    linenos = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            linenos.append(lineno)
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(
                    f"{path}: line {lineno} has {len(cells)} cells, expected {width}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                for col, c in enumerate(cells, start=1):
                    try:
                        float(c)
                    except ValueError:
                        raise ParseError(
                            f"{path}: line {lineno}, column {col}: not a number: '{c.strip()}'"
                        ) from None
                raise
    if not rows:
        raise ParseError(f"{path}: file contains no data rows")
    values = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        row, col = bad[0]
        raise ParseError(f"{path}: line {linenos[row]}, column {col + 1}: "
                         f"not a finite number: '{values[row, col]}'")
    return TrafficSeries(values)


def load_adjacency(path: str) -> np.ndarray:
    series = load_series(path)
    a = series.values
    if a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: adjacency must be square, got {a.shape}")
    return a


def chronological_split(series: TrafficSeries, min_segment: int | None = None
                        ) -> tuple[TrafficSeries, TrafficSeries, TrafficSeries]:
    """Split 60/20/20 in time order: floor on the first two cuts, remainder to
    the test segment. Segments are contiguous and cover the series exactly."""
    s = series.steps
    n_train = int(np.floor(0.6 * s))
    n_val = int(np.floor(0.2 * s))
    cuts = (n_train, n_val, s - n_train - n_val)
    if min_segment is not None:
        for name, length in zip(("train", "val", "test"), cuts):
            if length < min_segment:
                raise InsufficientDataError(
                    f"{name} segment has {length} steps; need at least {min_segment}"
                )
    train = TrafficSeries(series.values[:n_train], series.interval_minutes)
    val = TrafficSeries(series.values[n_train:n_train + n_val], series.interval_minutes)
    test = TrafficSeries(series.values[n_train + n_val:], series.interval_minutes)
    return train, val, test


def make_windows(values: np.ndarray, input_steps: int, output_steps: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Slide a (input_steps + output_steps) window with stride 1 over a
    [S, N] segment.

    Returns:
        X: [n_samples, input_steps, N, 1], the history windows.
        Y: [n_samples, output_steps, N], the targets immediately following.
    """
    s, n = values.shape
    total = input_steps + output_steps
    count = s - total + 1
    if count < 1:
        raise InsufficientDataError(
            f"segment of {s} steps cannot fit one window of {total} steps"
        )
    x = np.empty((count, input_steps, n, 1))
    y = np.empty((count, output_steps, n))
    for i in range(count):
        x[i, :, :, 0] = values[i:i + input_steps]
        y[i] = values[i + input_steps:i + total]
    return x, y


@dataclass
class Normalizer:
    """Z-score scaling with statistics from the training segment only."""

    mean: float
    std: float

    @staticmethod
    def fit(train_values: np.ndarray) -> "Normalizer":
        std = float(train_values.std())
        if std <= 0:
            raise InsufficientDataError("training segment has zero variance; cannot normalize")
        return Normalizer(float(train_values.mean()), std)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class MetricsReport:
    """Standard forecasting errors in original units. ``mape`` is a percent
    over entries with nonzero truth (None if none exist); ``mape_mask_count``
    is how many entries that is."""

    mae: float
    rmse: float
    mape: float | None
    mape_mask_count: int

    def as_dict(self) -> dict:
        return {
            "mae": self.mae,
            "rmse": self.rmse,
            "mape": self.mape,
            "mape_mask_count": self.mape_mask_count,
        }


def metrics(pred: np.ndarray, truth: np.ndarray, normalizer: Normalizer) -> MetricsReport:
    """Compute MAE / RMSE / MAPE between normalized arrays, in original units.

    Both inputs are denormalized first. MAPE averages |error/truth| over the
    entries whose denormalized truth is nonzero and reports a percentage.
    """
    if pred.shape != truth.shape:
        raise ValueError(f"metrics: shapes {pred.shape} and {truth.shape} differ")
    p = normalizer.denormalize(np.asarray(pred, dtype=np.float64))
    t = normalizer.denormalize(np.asarray(truth, dtype=np.float64))
    err = p - t
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err * err).mean()))
    mask = t != 0
    count = int(mask.sum())
    mape = float(np.abs(err[mask] / t[mask]).mean() * 100.0) if count else None
    return MetricsReport(mae, rmse, mape, count)


def metrics_per_horizon(pred: np.ndarray, truth: np.ndarray, normalizer: Normalizer
                        ) -> list[MetricsReport]:
    """Per-step reports for [B, T_out, N] arrays, horizon 1 first."""
    return [metrics(pred[:, t], truth[:, t], normalizer) for t in range(pred.shape[1])]


def synthesize(n_nodes: int, steps: int, seed: int, noise_level: float = 1.0,
               diffusion: float = 0.25) -> tuple[TrafficSeries, np.ndarray]:
    """Generate a synthetic flow series on a random geometric graph.

    Each node carries a daily sinusoid (period 288 steps) with its own phase,
    amplitude and offset; every tick mixes in the neighbors' previous values
    through the row-normalized adjacency with weight ``diffusion``, then adds
    Gaussian noise and clamps at zero.

    Returns:
        (series, adjacency) with a symmetric zero-diagonal adjacency in which
        every node has at least one neighbor.
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if steps < DAY_STEPS:
        raise ValueError(f"need at least {DAY_STEPS} steps (one day), got {steps}")
    if not 0.0 <= diffusion < 1.0:
        raise ValueError(f"diffusion weight must be in [0, 1), got {diffusion}")
    rng = np.random.default_rng(seed)

    points = rng.random((n_nodes, 2))
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    adjacency = ((dists < 0.5) & ~np.eye(n_nodes, dtype=bool)).astype(np.float64)
    for i in range(n_nodes):  # connect isolated nodes to their nearest neighbor
        if adjacency[i].sum() == 0:
            j = int(np.argmin(np.where(np.arange(n_nodes) == i, np.inf, dists[i])))
            adjacency[i, j] = adjacency[j, i] = 1.0

    amplitude = rng.uniform(40.0, 120.0, n_nodes)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
    offset = amplitude + rng.uniform(10.0, 50.0, n_nodes)
    ticks = np.arange(steps)[:, None]
    base = offset + amplitude * np.sin(2.0 * np.pi * ticks / DAY_STEPS + phase)

    values = np.empty_like(base)
    values[0] = base[0]
    if diffusion > 0.0:
        propagate = adjacency / adjacency.sum(axis=1, keepdims=True)
        for s in range(1, steps):
            values[s] = (1.0 - diffusion) * base[s] + diffusion * (propagate @ values[s - 1])
    else:
        values[1:] = base[1:]
    if noise_level > 0.0:
        values = values + rng.normal(0.0, noise_level, values.shape)
    values = np.clip(values, 0.0, None)
    return TrafficSeries(values), adjacency


# -- file output ---------------------------------------------------------------


def write_atomic(path: str, data: bytes):
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``; readers never see a partial file, and the temp file is removed
    if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_series_csv(path: str, values: np.ndarray):
    """Headerless CSV with shortest round-trip float formatting."""
    lines = [",".join(repr(float(v)) for v in row) for row in values]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_predictions_csv(path: str, preds: np.ndarray):
    """Forecast dump: one row per (sample, horizon step), sample index first,
    then one column per node, mirroring the input layout."""
    lines = []
    for idx in range(preds.shape[0]):
        for row in preds[idx]:
            lines.append(str(idx) + "," + ",".join(repr(float(v)) for v in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode())

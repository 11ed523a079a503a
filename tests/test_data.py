import numpy as np
import pytest

from flowcast import data as dp
from flowcast.errors import InsufficientDataError, ParseError

from oracles import metrics_loop


# -- loading -----------------------------------------------------------------


def test_load_series_basic(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    series = dp.load_series(str(path))
    assert series.steps == 3
    assert series.node_count == 2
    assert np.array_equal(series.values, [[1, 2], [3, 4], [5, 6]])


def test_load_series_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4,5\n6,7\n")
    with pytest.raises(ParseError, match="line 2"):
        dp.load_series(str(path))


def test_load_series_non_numeric_names_coordinates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        dp.load_series(str(path))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_load_series_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n\n3,{cell}\n")  # the blank line still counts
    with pytest.raises(ParseError, match="line 3, column 2"):
        dp.load_series(str(path))


def test_load_series_rejects_directory(tmp_path):
    with pytest.raises(ParseError, match="is a directory"):
        dp.load_series(str(tmp_path))


def test_load_series_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("1,2\n\u00e9,3\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        dp.load_series(str(path))


def test_load_series_roundtrips_written_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((20, 3)) * 100
    path = str(tmp_path / "series.csv")
    dp.write_series_csv(path, values)
    series = dp.load_series(path)
    assert np.array_equal(series.values, values)


def test_load_series_pemsd8_shaped_file(tmp_path):
    # dataset dimensions: 170 sensors, 17,856 five-minute steps
    rng = np.random.default_rng(1)
    path = tmp_path / "pemsd8_shaped.csv"
    np.savetxt(path, rng.uniform(0, 500, (17856, 170)), fmt="%.1f", delimiter=",")
    series = dp.load_series(str(path))
    assert series.steps == 17856
    assert series.node_count == 170


# -- splitting ----------------------------------------------------------------


def test_split_60_20_20():
    series = dp.TrafficSeries(np.arange(200.0).reshape(100, 2))
    train, val, test = dp.chronological_split(series)
    assert (train.steps, val.steps, test.steps) == (60, 20, 20)


def test_split_remainder_goes_to_test():
    series = dp.TrafficSeries(np.zeros((101, 2)))
    train, val, test = dp.chronological_split(series)
    assert (train.steps, val.steps, test.steps) == (60, 20, 21)


def test_split_concatenation_reproduces_series():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((57, 3))
    train, val, test = dp.chronological_split(dp.TrafficSeries(values))
    rebuilt = np.concatenate([train.values, val.values, test.values], axis=0)
    assert np.array_equal(rebuilt, values)


def test_split_rejects_short_segments():
    with pytest.raises(InsufficientDataError):
        dp.chronological_split(dp.TrafficSeries(np.zeros((50, 2))), min_segment=24)


# -- windowing ----------------------------------------------------------------


def test_window_count_30_steps():
    x, y = dp.make_windows(np.zeros((30, 2)), 12, 12)
    assert x.shape == (7, 12, 2, 1)
    assert y.shape == (7, 12, 2)


def test_window_count_exact_fit():
    x, y = dp.make_windows(np.zeros((24, 2)), 12, 12)
    assert x.shape[0] == 1


def test_window_alignment():
    values = np.arange(30.0)[:, None]  # one node, value == step index
    x, y = dp.make_windows(values, 12, 12)
    assert np.array_equal(x[0, :, 0, 0], np.arange(12.0))
    assert np.array_equal(y[0, :, 0], np.arange(12.0, 24.0))


def test_windows_are_read_only_views_of_the_segment():
    # every window shares the segment's memory, and no caller can write
    # through one into the segment
    values = np.arange(60.0).reshape(30, 2)
    x, y = dp.make_windows(values, 12, 6)
    assert np.shares_memory(x, values) and np.shares_memory(y, values)
    with pytest.raises(ValueError):
        x[0, 0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        y[0] = -1.0
    assert values[0, 0] == 0.0 and values[12, 0] == 24.0


def test_window_insufficient_data():
    with pytest.raises(InsufficientDataError):
        dp.make_windows(np.zeros((10, 2)), 12, 12)


def test_windows_never_cross_split_boundaries():
    series = dp.TrafficSeries(np.arange(100.0)[:, None])
    train, val, test = dp.chronological_split(series)
    x, y = dp.make_windows(train.values, 12, 12)
    assert y.max() == train.values[-1, 0]
    x_val, _ = dp.make_windows(val.values, 12, 8)
    assert x_val.min() == val.values[0, 0]


# -- normalization --------------------------------------------------------------


def test_normalizer_roundtrip():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((40, 3)) * 55 + 200
    norm = dp.Normalizer.fit(values)
    assert np.abs(norm.denormalize(norm.normalize(values)) - values).max() < 1e-12


def test_normalizer_train_stats_only():
    train = np.full((10, 2), 5.0)
    train[0, 0] = 15.0
    norm = dp.Normalizer.fit(train)
    assert norm.mean == train.mean()
    assert norm.std == train.std()


def test_normalizer_rejects_constant_series():
    with pytest.raises(InsufficientDataError):
        dp.Normalizer.fit(np.full((10, 2), 3.0))


def test_normalizer_rejects_statistics_that_overflow():
    # every value is finite, but their squares, and so the std, are not
    train = np.array([[1e300, 0.0], [0.0, 1e300]])
    with pytest.raises(InsufficientDataError, match="cannot normalize"):
        dp.Normalizer.fit(train)


# -- metrics -----------------------------------------------------------------------


def identity_normalizer():
    return dp.Normalizer(mean=0.0, std=1.0)


def test_metrics_perfect_prediction():
    truth = np.random.default_rng(3).standard_normal((4, 5)) + 10
    report = dp.metrics(truth.copy(), truth, identity_normalizer())
    assert report.mae == 0.0
    assert report.rmse == 0.0
    assert report.mape == 0.0


def test_metrics_hand_case():
    report = dp.metrics(np.array([2.0, 2.0]), np.array([1.0, 2.0]), identity_normalizer())
    assert report.mae == 0.5
    assert abs(report.rmse - np.sqrt(0.5)) < 1e-12
    assert report.mape == 50.0
    assert report.mape_mask_count == 2


def test_metrics_zero_truth_masked_from_mape_only():
    report = dp.metrics(np.array([1.0, 3.0]), np.array([0.0, 2.0]), identity_normalizer())
    assert report.mae == 1.0
    assert report.mape == 50.0            # only the nonzero-truth entry counts
    assert report.mape_mask_count == 1


def test_metrics_all_zero_truth_gives_undefined_mape():
    report = dp.metrics(np.ones(4), np.zeros(4), identity_normalizer())
    assert report.mape is None
    assert report.mape_mask_count == 0
    assert report.mae == 1.0
    assert report.rmse == 1.0


def test_metrics_match_scalar_loop_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        pred = rng.standard_normal((3, 4))
        truth = rng.standard_normal((3, 4))
        if trial % 2:
            truth.reshape(-1)[rng.integers(truth.size)] = 0.0
            norm = identity_normalizer()
        else:
            norm = dp.Normalizer(mean=float(rng.normal()), std=float(rng.uniform(0.5, 3.0)))
        report = dp.metrics(pred, truth, norm)
        mae, rmse, mape, count = metrics_loop(pred, truth, norm.mean, norm.std)
        assert abs(report.mae - mae) < 1e-12
        assert abs(report.rmse - rmse) < 1e-12
        assert report.mape_mask_count == count
        if mape is None:
            assert report.mape is None
        else:
            assert abs(report.mape - mape) < 1e-12


def test_rmse_at_least_mae():
    rng = np.random.default_rng(5)
    for _ in range(20):
        report = dp.metrics(rng.standard_normal(30), rng.standard_normal(30),
                            identity_normalizer())
        assert report.rmse >= report.mae


def test_metrics_per_horizon_shape():
    rng = np.random.default_rng(6)
    pred = rng.standard_normal((5, 3, 4))
    truth = rng.standard_normal((5, 3, 4))
    rows = dp.metrics_per_horizon(pred, truth, identity_normalizer())
    assert len(rows) == 3
    whole = dp.metrics(pred, truth, identity_normalizer())
    assert abs(np.mean([r.mae for r in rows]) - whole.mae) < 1e-12


# -- synthesis ------------------------------------------------------------------------


def test_synthesize_pure_sinusoid_has_daily_period():
    series, _ = dp.synthesize(4, 3 * dp.DAY_STEPS, seed=7, noise_level=0.0, diffusion=0.0)
    values = series.values
    for node in range(4):
        x = values[:, node]
        # autocorrelation (per-lag normalized) peaks at the one-day lag
        corrs = [np.corrcoef(x[:-lag], x[lag:])[0, 1] for lag in range(1, 400)]
        assert int(np.argmax(corrs)) + 1 == dp.DAY_STEPS
        assert corrs[dp.DAY_STEPS - 1] > 1.0 - 1e-10


def test_synthesize_deterministic():
    a_series, a_adj = dp.synthesize(5, 300, seed=8)
    b_series, b_adj = dp.synthesize(5, 300, seed=8)
    assert np.array_equal(a_series.values, b_series.values)
    assert np.array_equal(a_adj, b_adj)


def test_synthesize_adjacency_contract():
    for seed in range(5):
        _, adjacency = dp.synthesize(6, 288, seed=seed)
        assert np.array_equal(adjacency, adjacency.T)
        assert np.all(np.diag(adjacency) == 0.0)
        assert np.all(adjacency.sum(axis=1) >= 1.0)


def test_synthesize_nonnegative():
    series, _ = dp.synthesize(4, 600, seed=9, noise_level=30.0)
    assert series.values.min() >= 0.0


def test_synthesize_validates_sizes():
    with pytest.raises(ValueError):
        dp.synthesize(1, 300, seed=0)
    with pytest.raises(ValueError):
        dp.synthesize(4, 100, seed=0)


@pytest.mark.parametrize("noise_level", [-1.0, np.nan, np.inf])
def test_synthesize_rejects_a_noise_level_out_of_range(noise_level):
    with pytest.raises(ValueError, match="noise level"):
        dp.synthesize(4, 300, seed=0, noise_level=noise_level)


def test_synthesize_rejects_a_noise_level_that_overflows_the_series():
    # load_series rejects infinite cells, so synthesize never makes one
    with pytest.raises(ValueError, match="noise level 1e\\+308 makes the series overflow"):
        dp.synthesize(4, 300, seed=1, noise_level=1e308)

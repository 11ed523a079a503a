"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline)."""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

from flowcast import attention as att
from flowcast import autodiff as ad
from flowcast import cli
from flowcast import data as dp
from flowcast import graphs
from flowcast import model as md
from flowcast import training as tr
from flowcast.autodiff import Tensor

from oracles import (attention_weights, cheb_polynomial, metrics_loop, multi_head_loop,
                     softmax_rows, spatial_attention_loop, stfa_loop)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def tiny_model_config(variant, seed=0):
    return md.ModelConfig(
        n_nodes=4, input_steps=6, output_steps=3, embed_dim=2, hidden_dim=4,
        heads=2, cheb_order=1, dropout_input=0.0, dropout_inner=0.0,
        gst2_variant=variant, seed=seed,
    )


# -- 1. gradient oracle ----------------------------------------------------------


def test_criterion_1_gradient_oracle():
    with criterion(1, "autodiff matches central finite differences (<1e-4 rel) "
                      "for parallel/serial/fused"):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 6, 4, 1))
        y = rng.standard_normal((2, 3, 4))
        for variant in ("parallel", "serial", "fused"):
            start = time.perf_counter()
            report = tr.grad_check(tiny_model_config(variant), x, y, h=1e-5,
                                   tol=1e-4, samples_per_tensor=200, seed=1)
            elapsed = time.perf_counter() - start
            assert report.failures == [], (variant, report.failures)
            assert report.max_rel_err < 1e-4, (variant, report.max_rel_err)
            assert elapsed < 300.0, f"{variant} took {elapsed:.0f}s"
            print(f"  {variant}: max rel err {report.max_rel_err:.2e} in {elapsed:.1f}s")


# -- 2. attention oracle ---------------------------------------------------------


def test_criterion_2_attention_oracle():
    with criterion(2, "temporal/spatial/fusion attention match nested-loop "
                      "oracles to 1e-12 over 50 trials each"):
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(2, 6))
            d = int(rng.choice([2, 4]))
            heads = int(rng.choice([1, 2]))
            x = rng.standard_normal((2, n, t, d))
            seed = int(rng.integers(1 << 30))
            p = att.AttentionParams.create(d, heads, np.random.default_rng(seed))
            p2 = att.AttentionParams.create(d, heads, np.random.default_rng(seed + 1))

            xt = Tensor(x)
            ta = att.multi_head_attention(xt, ((p, False),), 0.0, None).data
            ta_ref = multi_head_loop(x, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data)
            assert np.abs(ta - ta_ref).max() < 1e-12, trial

            sa = att.multi_head_attention(xt, ((p, True),), 0.0, None).data
            sa_ref = spatial_attention_loop(x, p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data)
            assert np.abs(sa - sa_ref).max() < 1e-12, trial

            s = att.multi_head_attention(xt, ((p2, True),), 0.0, None)
            fused = att.multi_head_attention(xt, ((p, False),), 0.0, None, values=s).data
            fused_ref = stfa_loop(
                x, (p.w_q.data, p.w_k.data, p.w_v.data, p.w_o.data),
                (p2.w_q.data, p2.w_k.data, p2.w_v.data, p2.w_o.data))
            assert np.abs(fused - fused_ref).max() < 1e-12, trial


# -- 3. Chebyshev oracle ---------------------------------------------------------


def test_criterion_3_chebyshev_oracle():
    with criterion(3, "Chebyshev stacks match explicit matrix-power polynomials "
                      "to 1e-10 for K in {1,2,3}"):
        # the model's recurrence (graphs.cheb_recurrence) on the identity
        # signal gives the matrices T_k(L) themselves
        def cheb_stack(lap, order):
            n = lap.shape[0]
            flat = np.empty((n, order + 1, n))
            flat[:, 0] = np.eye(n)
            graphs.cheb_recurrence(lap, flat)
            return flat.transpose(1, 0, 2)

        rng = np.random.default_rng(3)
        for order in (1, 2, 3):
            for n in (2, 3, 4, 5, 6):
                scores = rng.standard_normal((3, n, n))
                for lap in softmax_rows(scores.reshape(-1, n)).reshape(3, n, n):
                    stack = cheb_stack(lap, order)
                    for k in range(order + 1):
                        assert np.abs(stack[k] - cheb_polynomial(lap, k)).max() < 1e-10
        t2 = cheb_stack(np.full((2, 2), 0.5), 2)[2]
        assert np.abs(t2 - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12


# -- 4. stochasticity structure ---------------------------------------------------


def test_criterion_4_stochasticity_structure():
    with criterion(4, "learned adjacency rows sum to 1±1e-9; attention weight "
                      "rows sum to 1±1e-12"):
        rng = np.random.default_rng(4)
        for seed in range(3):
            bank = graphs.EmbeddingBank.create(5, 4, 3, np.random.default_rng(seed))
            seq = graphs.build_sequence_graphs(bank)
            assert np.abs(seq.laplacians.data.sum(axis=-1) - 1.0).max() < 1e-9
            adaptive = graphs.build_adaptive_graph(bank.node)
            assert np.abs(adaptive.laplacians.data.sum(axis=-1) - 1.0).max() < 1e-9

        x = rng.standard_normal((2, 6, 4, 1))
        for variant in ("ta_only", "sa_only", "parallel", "serial", "fused"):
            model = md.Forecaster(tiny_model_config(variant, seed=7))
            with attention_weights() as captured:
                model.predict(x)
            assert captured, variant
            for weights in captured:
                assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12, variant


# -- 5. sequence awareness ----------------------------------------------------------


def test_criterion_5_sequence_awareness():
    with criterion(5, "per-step graphs differ in sequence mode and are "
                      "bit-identical in adaptive mode"):
        for seed in range(5):
            bank = graphs.EmbeddingBank.create(6, 5, 4, np.random.default_rng(seed))
            seq = graphs.build_sequence_graphs(bank).laplacians.data
            for i in range(5):
                for j in range(i + 1, 5):
                    assert np.abs(seq[i] - seq[j]).max() > 1e-6, (seed, i, j)
            adaptive = graphs.build_adaptive_graph(bank.node)
            first = adaptive.at(0, bank)[0].data
            for i in range(5):
                assert np.array_equal(adaptive.at(i, bank)[0].data, first), (seed, i)


# -- 6. overfit check ---------------------------------------------------------------


def overfit_one(variant, x_train, y_train, normalizer, target_std):
    cfg = md.ModelConfig(
        n_nodes=8, embed_dim=3, hidden_dim=16, heads=2, cheb_order=1,
        dropout_input=0.0, dropout_inner=0.0, ffn_dim=64, fc_hidden=64,
        gst2_variant=variant, graph_mode="sequence_aware", seed=42,
    )
    model = md.Forecaster(cfg)
    tcfg = tr.TrainConfig(seed=42)
    rng = np.random.default_rng(tcfg.seed)
    state = tr.AdamState(model.params)
    threshold = 0.1 * target_std
    start = time.perf_counter()
    for epoch in range(1, tcfg.max_epochs + 1):
        order = rng.permutation(x_train.shape[0])
        losses = []
        for lo in range(0, order.size, tcfg.batch_size):
            idx = order[lo:lo + tcfg.batch_size]
            model.params.zero_grads()
            pred = model.forward(Tensor(x_train[idx]), training=True, rng=rng)
            loss = md.l1_loss(pred, Tensor(y_train[idx]))
            ad.backward(loss)
            tr.adam_step(model.params, state, tcfg)
            losses.append(loss.item())
        train_mae = float(np.mean(losses)) * normalizer.std  # denormalized units
        if train_mae < threshold:
            return epoch, train_mae, time.perf_counter() - start
    return None, train_mae, time.perf_counter() - start


def test_criterion_6_overfit_check():
    with criterion(6, "all three full models drive training MAE below 10% of "
                      "target std on synthetic data"):
        series, _ = dp.synthesize(8, 2016, seed=42, noise_level=1.0)
        train_seg, _, _ = dp.chronological_split(series)
        normalizer = dp.Normalizer.fit(train_seg.values)
        x_train, y_train = dp.make_windows(normalizer.normalize(train_seg.values), 12, 12)
        target_std = float(normalizer.denormalize(y_train).std())
        for variant in ("parallel", "serial", "fused"):
            epoch, mae, elapsed = overfit_one(variant, x_train, y_train,
                                              normalizer, target_std)
            assert epoch is not None, (
                f"{variant}: best train MAE {mae:.3f} never went below "
                f"{0.1 * target_std:.3f} in 500 epochs"
            )
            assert elapsed < 1800.0, f"{variant} took {elapsed:.0f}s"
            print(f"  {variant}: train MAE {mae:.3f} < {0.1 * target_std:.3f} "
                  f"at epoch {epoch} ({elapsed:.0f}s)")


# -- 7. Chebyshev depth cost -----------------------------------------------------------


def test_criterion_7_depth_cost_ordering():
    with criterion(7, "per-epoch wall-clock time strictly increases with "
                      "Chebyshev order K=1 < K=2 < K=3"):
        series, _ = dp.synthesize(8, 720, seed=11, noise_level=1.0)
        train_seg, val_seg, _ = dp.chronological_split(series)
        normalizer = dp.Normalizer.fit(train_seg.values)
        train = dp.make_windows(normalizer.normalize(train_seg.values), 12, 12)
        val = dp.make_windows(normalizer.normalize(val_seg.values), 12, 12)
        models = {order: md.Forecaster(md.ModelConfig(
            n_nodes=8, embed_dim=3, hidden_dim=16, heads=2, cheb_order=order,
            dropout_input=0.0, dropout_inner=0.0, ffn_dim=64, fc_hidden=64,
            gst2_variant="parallel", seed=11,
        )) for order in (1, 2, 3)}
        one_epoch = tr.TrainConfig(max_epochs=1, patience=30, seed=11)
        durations = {order: [] for order in models}
        final_mae = {}
        # one epoch per fit call, the K models interleaved and their order
        # reversed every round, so neither warm-up nor drift favours a K;
        # round 0 is an untimed warm-up, rounds 1-6 give 6 timed epochs per K
        for round_ in range(7):
            for order in ((1, 2, 3) if round_ % 2 else (3, 2, 1)):
                start = time.perf_counter()
                result = tr.fit(models[order], train, val, normalizer, one_epoch)
                if round_:
                    durations[order].append(time.perf_counter() - start)
                final_mae[order] = result.history[-1].val_mae
        per_epoch = {order: float(np.median(d)) for order, d in durations.items()}
        print(f"  s/epoch: K=1 {per_epoch[1]:.2f}  K=2 {per_epoch[2]:.2f}  "
              f"K=3 {per_epoch[3]:.2f}")
        print(f"  val MAE after 7 one-epoch fits (reported, not asserted): "
              f"K=1 {final_mae[1]:.3f}  K=2 {final_mae[2]:.3f}  K=3 {final_mae[3]:.3f}")
        assert per_epoch[1] < per_epoch[2] < per_epoch[3], per_epoch


# -- 8. ablation harness -----------------------------------------------------------------


def test_criterion_8_ablation_harness(tmp_path, capsys):
    with criterion(8, "ablation grid covers all 18 graph-mode/variant cells "
                      "with per-cell convergence histories"):
        out = str(tmp_path / "ablation")
        args = ["ablate", "--out", out, "--seed", "5"]
        for override in ("model.embed_dim=2", "model.hidden_dim=4", "model.heads=2",
                         "model.input_steps=6", "model.output_steps=3",
                         "model.ffn_dim=8", "model.fc_hidden=16",
                         "model.dropout_input=0.0", "model.dropout_inner=0.0",
                         "train.max_epochs=2", "train.batch_size=32",
                         "data.synth.nodes=4", "data.synth.steps=300"):
            args += ["--set", override]
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = open(os.path.join(out, "ablation.csv")).read().strip().split("\n")
        assert lines[0] == "graph_mode,variant,mae,rmse,mape"
        assert len(lines) == 1 + 18, f"expected 18 grid rows, got {len(lines) - 1}"
        for mode in md.GRAPH_MODES:
            for variant in md.GST2_VARIANTS:
                history = os.path.join(out, "cells", f"{mode}__{variant}", "history.csv")
                assert os.path.exists(history), history
        summary = json.loads(open(os.path.join(out, "ablation_summary.json")).read())
        assert summary["failures"] == []
        assert "convergence epochs" in captured.out  # speedup reported, not asserted
        print("  " + [l for l in captured.out.splitlines()
                      if l.startswith("convergence")][0])


# -- 9. determinism ------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "identical config+seed trainings produce bit-identical "
                      "histories and checkpoints"):
        artifacts = []
        for name in ("first", "second"):
            out = str(tmp_path / name)
            args = ["train", "--out", out, "--seed", "13"]
            for override in ("model.embed_dim=2", "model.hidden_dim=4", "model.heads=2",
                             "model.input_steps=6", "model.output_steps=3",
                             "model.ffn_dim=8", "model.fc_hidden=16",
                             "train.max_epochs=3", "train.batch_size=32",
                             "data.synth.nodes=4", "data.synth.steps=300"):
                args += ["--set", override]
            assert cli.main(args) == 0
            artifacts.append({
                f: open(os.path.join(out, f), "rb").read()
                for f in ("history.csv", "checkpoint.json", "checkpoint.bin")
            })
        for f in artifacts[0]:
            assert artifacts[0][f] == artifacts[1][f], f"{f} differs between runs"


# -- 10. metric oracle ------------------------------------------------------------------------


def test_criterion_10_metric_oracle():
    with criterion(10, "metrics equal an independent scalar-loop implementation "
                       "to 1e-12 on 100 random arrays"):
        rng = np.random.default_rng(10)

        def close(a, b):
            return abs(a - b) <= 1e-12 * max(1.0, abs(b))

        for trial in range(100):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            truth = rng.uniform(10.0, 200.0, shape)  # flow-like, away from zero
            pred = truth + rng.normal(scale=15.0, size=shape)
            if trial % 3 == 0:
                # exact zeros in truth exercise the MAPE mask (identity scaling
                # keeps them exactly zero after the denormalize round trip)
                zeros = rng.integers(0, truth.size, size=max(1, truth.size // 4))
                truth.reshape(-1)[zeros] = 0.0
                normalizer = dp.Normalizer(mean=0.0, std=1.0)
            else:
                normalizer = dp.Normalizer(mean=float(rng.uniform(-50.0, 50.0)),
                                           std=float(rng.uniform(0.5, 20.0)))
            report = dp.metrics(pred, truth, normalizer)
            mae, rmse, mape, count = metrics_loop(pred, truth, normalizer.mean,
                                                  normalizer.std)
            assert close(report.mae, mae)
            assert close(report.rmse, rmse)
            assert report.mape_mask_count == count
            if mape is None:
                assert report.mape is None
            else:
                assert close(report.mape, mape)

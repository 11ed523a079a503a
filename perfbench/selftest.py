"""Self-tests of the benchmark harness at tiny shapes (a few seconds).

    python3 perfbench/selftest.py

They run the worker in-process on two tiny workloads, one per kind, and check
that the output names every metric of BENCHMARK.json with its unit, that the
correctness gate trips on a perturbed reference and on a backward rule off by
one part in 10^6, and that the seed decides the generated inputs.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest
from dataclasses import replace
from unittest import mock

import run
import worker
from workloads import REFERENCE_SEED, WORKLOADS, generate_inputs

from flowcast import autodiff as ad

TINY = {
    "train": replace(WORKLOADS["train_n100_seq"], name="tiny_train", nodes=4, series_steps=288,
                     batch=2, embed_dim=2, hidden_dim=4, heads=2),
    "infer": replace(WORKLOADS["infer_n307_fused"], name="tiny_infer", nodes=4,
                     series_steps=288, batch=2, embed_dim=2, hidden_dim=4, heads=2, cycle=3),
}
SECONDS = 0.3


def tiny_run(w, seed, trace, reference=None):
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS_DIR) as tmp:
        paths = generate_inputs(w, seed, tmp)
        result, _ = worker.run(w, seed, SECONDS, trace, paths, reference)
    return result


class HarnessTest(unittest.TestCase):

    def test_every_metric_is_printed_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(WORKLOADS))
        for kind, w in TINY.items():
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(kind=kind, trace=trace):
                    result = tiny_run(w, REFERENCE_SEED, trace)
                    last = json.loads(run.result_line([result], prefix=False))
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"], result["failures"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    printed = {name: m["unit"] for name, m in last["metrics"].items()}
                    self.assertEqual(printed, {m["name"]: m["unit"] for m in declared[section]})
                    report = "\n".join(run.report_lines(result))
                    names = ["setup_s", "peak_rss_mb", "failed_op_share", "cold_setup_s", "warmup_s"]
                    names += list(run.NAMED[kind].values())
                    if trace:
                        names += list(result["per_layer"])
                    for name in names:
                        self.assertRegex(report, rf"(?m)^{name}\s+\S+ \S+")
                    for key in ("numpy", "blas", "blas_version", "blas_thread_env",
                                "nproc", "python", "seed"):
                        self.assertIn(key, result["env"])

    def test_perturbed_reference_trips_the_gate(self):
        for kind, w in TINY.items():
            with self.subTest(kind=kind):
                observed = tiny_run(w, REFERENCE_SEED, False)["observed"]
                self.assertEqual(tiny_run(w, REFERENCE_SEED, False, observed)["failed"], 0)
                key = "loss" if kind == "train" else "pred"
                observed["1"][key][0] *= 1 + 1e-7
                result = tiny_run(w, REFERENCE_SEED, False, observed)
                self.assertGreater(result["failed"], 0)
                self.assertIn("reference at cycle position 1", result["failures"][0])
                # the reference applies only at the seed it was made at
                self.assertEqual(tiny_run(w, REFERENCE_SEED + 1, False, observed)["failed"], 0)

    def test_wrong_gradient_trips_the_gate(self):
        w = TINY["train"]
        reference = tiny_run(w, REFERENCE_SEED, False)["observed"]
        tanh = ad.tanh

        def tanh_with_wrong_backward(x):
            out = tanh(x)
            entries = ad.tape().entries
            if entries and entries[-1][0] is out:
                _, inputs, back = entries[-1]
                entries[-1] = (out, inputs, lambda g: back(g * (1 + 1e-6)))
            return out

        with mock.patch.object(ad, "tanh", tanh_with_wrong_backward):
            result = tiny_run(w, REFERENCE_SEED, False, reference)
        self.assertGreaterEqual(result["attempted"], w.cycle)
        self.assertEqual(result["failed"], result["attempted"], result["failures"])

    def test_seed_decides_the_inputs(self):
        w = TINY["infer"]
        os.makedirs(run.RUNS_DIR, exist_ok=True)
        contents = []
        for seed in (1, 1, 2):
            with tempfile.TemporaryDirectory(dir=run.RUNS_DIR) as tmp:
                paths = generate_inputs(w, seed, tmp)
                contents.append([])
                for key in ("series", "adjacency", "blob"):
                    with open(paths[key], "rb") as f:
                        contents[-1].append(f.read())
        self.assertEqual(contents[0], contents[1])
        series, _, blob = zip(contents[0], contents[2])
        self.assertNotEqual(*series)
        self.assertNotEqual(*blob)


if __name__ == "__main__":
    unittest.main()

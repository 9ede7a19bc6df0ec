"""Self-tests of the benchmark: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from ktabsa import data  # noqa: E402

TINY = W.Workload("tiny", "", train=W.CorpusSpec(((0, 8),)), docs=4,
                  epochs=2, predict=W.CorpusSpec(((0, 12), (64, 2))),
                  predict_passes=2)


def tiny_run(tmp_path) -> worker.Run:
    inputs = W.write_inputs(str(tmp_path / "inputs"), 5, TINY)
    return worker.Run(TINY, inputs, str(tmp_path))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(worker.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(tracer.METRICS))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    w = W.WORKLOADS[name]
    a = W.write_inputs(str(tmp_path / "a"), 3, w).sha256
    b = W.write_inputs(str(tmp_path / "b"), 3, w).sha256
    c = W.write_inputs(str(tmp_path / "c"), 4, w).sha256
    assert a == b != c


def test_long_train_lengths_are_exactly_64_and_128(tmp_path):
    inputs = W.write_inputs(str(tmp_path), 1, W.WORKLOADS["long-train"])
    for path in (inputs.train, inputs.predict):
        lengths = {s.n for s in data.load_aspect_corpus(path)}
        assert lengths == {64, 128}


def test_generated_gold_matches_what_the_program_reads(tmp_path):
    inputs = W.write_inputs(str(tmp_path), 2, W.WORKLOADS["short-train"])
    sentences = data.load_aspect_corpus(inputs.predict)
    assert ([data.gold_pairs(s) for s in sentences]
            == [tuple(r.pairs) for r in inputs.predict_rows])


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_reported_percentiles_stay_inside_one_length_class(name):
    """p50 and p99 (linear interpolation, as numpy computes them) and their
    neighbouring samples all come from a single length class, so a small
    change in latency cannot move a percentile across a class boundary."""
    classes = sorted(W.WORKLOADS[name].predict.classes)
    owner = [k for k, (_, count) in enumerate(classes) for _ in range(count)]
    last = len(owner) - 1
    for q in (50, 99):
        pos = q / 100 * last
        lo, hi = max(0, int(pos) - 1), min(last, int(pos) + 2)
        assert len({owner[i] for i in range(lo, hi + 1)}) == 1, q


def test_p99_is_taken_within_a_pass():
    """Each pass is slow on another sentence: the sentences' fastest values
    would hide both slow samples, a pass's own p99 keeps them."""
    unit = {"setup_s": 1.0, "fit_s": [1.0], "train_sent": 1, "loss_end": 0.0,
            "score_s": 0.0,
            "latencies": [[0.001, 0.001, 0.001, 0.005],
                          [0.001, 0.001, 0.004, 0.001]]}
    values, notes = worker.end_to_end([unit])
    assert values["predict_ms_p99"] == pytest.approx(
        np.percentile([1, 1, 1, 4], 99))
    assert values["predict_ms_p50"] == pytest.approx(1.0)
    assert notes["predict_passes"] == 2 and notes["predict_samples"] == 4


def test_tracing_is_transparent_and_complete(tmp_path):
    r = tiny_run(tmp_path)
    plain = r.unit(first=True)
    t = tracer.Tracer()
    t.reset()
    t.install()
    try:
        traced = r.unit(first=False)
    finally:
        t.uninstall()
    layers = t.results(traced["timed_s"])
    assert r.problems == []               # identical loss trace and outputs
    assert plain["failed"] == traced["failed"] == 0
    assert traced["loss_end"] == plain["loss_end"]
    assert t.missing() == [] and layers["trace.hooks_missing"] == 0
    assert layers["training.steps"] == r.planned_steps
    assert 0 < layers["data.pad_frac"] < 1
    route = layers["routing.route.fwd_s"] + layers["routing.route.bwd_s"]
    per_direction = sum(layers[f"routing.route.{d.replace('->', '-')}.s"]
                        for d in tracer.DIRECTIONS)
    assert per_direction == pytest.approx(route, rel=1e-9)


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (
        ("gone", ("ktabsa.model:no_such_function",)),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing()[0] == "gone"


def test_end_to_end_run_imports_no_tracer(tmp_path):
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import worker, workloads as W\n"
        "w = W.Workload('tiny', '', W.CorpusSpec(((0, 8),)), 4, 1,\n"
        "               W.CorpusSpec(((0, 8),)))\n"
        "r = worker.Run(w, W.write_inputs(%r, 5, w), %r)\n"
        "attempted, failed, values, notes = worker.measure(r, 0, False)\n"
        "assert failed == 0 and not r.problems, r.problems\n"
        "assert notes['units'] == worker.MIN_UNITS\n"
        "assert 'tracer' not in sys.modules\n"
    ) % (HERE, os.path.join(ROOT, "src"), str(tmp_path / "inputs"),
         str(tmp_path))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


def test_dead_child_counts_its_operations_as_failed(monkeypatch):
    lines = [{"kind": "plan", "ops_per_unit": 50},
             {"kind": "unit", "attempted": 66, "failed": 0}]
    out = "\n".join(json.dumps(x) for x in lines) + "\n"
    monkeypatch.setattr(run.subprocess, "run", lambda *a, **k:
                        subprocess.CompletedProcess(a, -9, stdout=out))
    res = run.run_workload("short-train", 1, 1.0, 0, deadline=1e18)["result"]
    assert res["correct"] is False
    assert res["attempted"] == res["failed"] == 116


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short-train", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Self-test of the benchmark runner at tiny sizes.

Runs every workload for a handful of units, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit and a finite
value.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_MODEL = {"model_dim": 16, "feedforward_dim": 32, "num_heads": 2,
              "num_encoder_layers": 1, "num_decoder_layers": 1,
              "num_memory_slots": 2, "max_length": 10}
TINY_PRETRAIN = W.Pretrain(steps=40, batch_size=4, warmup=10, num_images=20)
TINY = {
    "xe-desk": W.XeSizes(model=TINY_MODEL, num_images=20, batch_size=2),
    "scst-pairs": W.ScstSizes(model=TINY_MODEL, pretrain=TINY_PRETRAIN, num_images=20,
                              batch_size=2, beam_size=2),
    "caption-eval": W.CaptionSizes(model=dict(TINY_MODEL, mesh_enabled=True),
                                   pretrain=TINY_PRETRAIN, held_out=4, beam_size=2),
}


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setattr(run, "STARTED", time.perf_counter())
    monkeypatch.setattr(run, "MIN_UNITS", 3)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    monkeypatch.setattr(run, "TRACE_UNITS", {name: 3 for name in run.WORKLOAD_NAMES})
    monkeypatch.setattr(run, "TRACE_EVALUATES", 2)


def _run(capsys, name, trace, seed=3):
    status = run.run_one(name, seed, 0.3, trace, TINY[name])
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def _assert_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_prints_every_end_to_end_metric(capsys, name):
    status, result = _run(capsys, name, 0)
    assert status == 0
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_and_counts_repeat(capsys, name):
    status, first = _run(capsys, name, 1)
    assert status == 0
    _assert_metrics(first, SPEC["per_layer"])
    _, second = _run(capsys, name, 1)
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]


def test_xe_desk_never_enters_decoding_or_metrics(capsys):
    _, result = _run(capsys, "xe-desk", 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["tensor.ops_per_step"] > 0 and values["rng.generators_per_step"] > 0
    for key in ("decoding.beam_search_calls", "fastdecode.expand_calls", "metrics.reward_calls"):
        assert values[key] == 0


def test_scst_step_scores_every_hypothesis(capsys):
    _, result = _run(capsys, "scst-pairs", 1)
    sizes = TINY["scst-pairs"]
    assert result["metrics"]["metrics.reward_calls"]["value"] == sizes.batch_size * sizes.beam_size


def test_failed_check_is_counted_and_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(W.XeDesk, "check",
                        lambda self, i, out: ["forced failure"] if i == 3 else [])
    status, result = _run(capsys, "xe-desk", 0)
    assert status == 1
    assert not result["correct"] and result["failed"] == 1


def test_caption_that_differs_from_reference_decoder_fails(capsys, monkeypatch):
    # a narrower beam is self-consistent (sorted, rescored, repeatable) but
    # returns other hypotheses than the reference decoder at the set width
    caption_image = W.decoding.caption_image
    monkeypatch.setattr(W.decoding, "caption_image",
                        lambda params, config, grid, k: caption_image(params, config, grid, k - 1))
    status, result = _run(capsys, "caption-eval", 0)
    assert status == 1
    assert not result["correct"]
    assert result["failed"] == min(W.REFERENCE_IMAGES, TINY["caption-eval"].held_out)


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "xe-desk", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


"""Command suite: determinism, the overfit smoke loop, exit codes."""

import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meancap import checkpoint, cli
from meancap import training as tr
from meancap.checkpoint import load_checkpoint, save_checkpoint
from meancap.data import (FeatureGrid, caption_corpus, generate_synthetic_dataset, write_captions,
                          write_features)
from meancap.model import ModelConfig
from meancap.tokenizer import build_vocab
from test_checkpoint import with_header_keys


def write_cfg(path, **kv):
    lines = [f"{k} = {json.dumps(v)}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_manifest(path):
    m = json.loads(path.read_text())
    m.pop("started_at")
    m.pop("finished_at")
    return m


GEN = dict(seed=7, num_images=10, min_objects=1, max_objects=2, refs_per_image=3,
           noise_sigma=0.02, train_fraction=0.8, val_fraction=0.2)
TINY_MODEL = dict(model_dim=32, feedforward_dim=64, num_heads=4, num_encoder_layers=1,
                  num_decoder_layers=1, num_memory_slots=4, max_length=24)


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """One tiny dataset trained well past memorization, shared by the tests."""
    base = tmp_path_factory.mktemp("overfit")
    data = base / "data"
    gen_cfg = write_cfg(base / "gen.cfg", out_dir=str(data), **GEN)
    assert cli.main(["gen-data", gen_cfg]) == 0
    xe_cfg = write_cfg(base / "xe.cfg", seed=7, data_dir=str(data),
                       out_dir=str(base / "xe"), steps=400, batch_size=8,
                       warmup=100, val_every=200, val_beam=3, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 0
    return base


def test_gen_data_is_byte_deterministic(tmp_path):
    outs = []
    for name in ("one", "two"):
        cfg = write_cfg(tmp_path / f"{name}.cfg", out_dir=str(tmp_path / name), **GEN)
        assert cli.main(["gen-data", cfg]) == 0
        outs.append(tmp_path / name)
    for fname in ("features.bin", "captions.jsonl", "split.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    cfgs = [read_manifest(o / "manifest.json")["config"] for o in outs]
    for c in cfgs:
        c.pop("out_dir")
    assert cfgs[0] == cfgs[1]


def test_gen_data_config_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "a.cfg", seed=1, out_dir=str(tmp_path / "d"), banana=3)
    assert cli.main(["gen-data", cfg]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"

    cfg = write_cfg(tmp_path / "b.cfg", seed=1)  # out_dir missing
    assert cli.main(["gen-data", cfg]) == 2

    cfg = write_cfg(tmp_path / "c.cfg", seed=1, out_dir=str(tmp_path / "d"),
                    train_fraction=0.9, val_fraction=0.9)
    assert cli.main(["gen-data", cfg]) == 2


def test_overfit_then_caption_then_evaluate(overfit_run, tmp_path):
    base = overfit_run
    last_line = [json.loads(l) for l in
               (base / "xe" / "train_log.jsonl").read_text().splitlines()
               if "xe_loss" in json.loads(l) and json.loads(l)["xe_loss"] is not None][-1]
    assert last_line["xe_loss"] < 0.2  # memorized the ten images

    caps = tmp_path / "caps.jsonl"
    assert cli.main(["caption", str(base / "xe" / "last.ckpt"),
                     str(base / "data" / "features.bin"),
                     "--model", "online", "--beam", "3", "--out", str(caps)]) == 0
    rows = [json.loads(l) for l in caps.read_text().splitlines()]
    assert len(rows) == 10
    assert all(set(r) == {"id", "caption", "logprob"} for r in rows)
    assert all(np.isfinite(r["logprob"]) and r["logprob"] <= 0.0 for r in rows)

    scores = tmp_path / "scores.json"
    assert cli.main(["evaluate", str(caps), str(base / "data" / "captions.jsonl"),
                     "--out", str(scores)]) == 0
    got = json.loads(scores.read_text())
    assert got["CIDEr-D"] > 0.0
    assert got["num_images"] == 10


def test_caption_is_deterministic(overfit_run, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        assert cli.main(["caption", str(overfit_run / "xe" / "last.ckpt"),
                         str(overfit_run / "data" / "features.bin"),
                         "--out", str(out)]) == 0  # default: target model, beam 5
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_evaluate_perfect_match_is_bleu_one(overfit_run, tmp_path):
    refs_path = overfit_run / "data" / "captions.jsonl"
    cands = tmp_path / "perfect.jsonl"
    with open(cands, "w") as fh:
        for line in refs_path.read_text().splitlines():
            row = json.loads(line)
            fh.write(json.dumps({"id": row["id"], "caption": row["refs"][0]}) + "\n")
    out = tmp_path / "scores.json"
    assert cli.main(["evaluate", str(cands), str(refs_path), "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    assert got["BLEU-4"] == 1.0
    assert got["ROUGE-L"] == 1.0


def test_train_scst_runs_and_continues_step_count(overfit_run, tmp_path, capsys):
    def scst(name, steps, source):
        cfg = write_cfg(tmp_path / f"{name}.cfg", data_dir=str(overfit_run / "data"),
                        out_dir=str(tmp_path / name), steps=steps, batch_size=4,
                        strategy="all", beam_size=3, learning_rate=1e-4,
                        lambda_kd=0.1, val_every=5, val_beam=3)
        assert cli.main(["train-scst", cfg, source]) == 0
        return read_manifest(tmp_path / name / "manifest.json")

    source = str(overfit_run / "xe" / "last.ckpt")
    m = scst("scst", 5, source)
    assert (m["start_step"], m["end_step"]) == (400, 405)
    assert m["checkpoints"]["source"] == source
    assert m["final_validation"] is not None
    last = tmp_path / "scst" / "last.ckpt"
    ckpt = load_checkpoint(last)
    assert ckpt.stage == "scst" and ckpt.step - ckpt.adam_t == 400

    # steps count from the stage start, also for a header that still
    # carries the stage start, as checkpoints once did
    older = with_header_keys(last, tmp_path / "older.ckpt", extra={"stage_start": 400})
    for name, resume in (("again", str(last)), ("older", older)):
        m = scst(name, 7, resume)
        assert (m["start_step"], m["end_step"]) == (405, 407)
    assert ((tmp_path / "again" / "last.ckpt").read_bytes()
            == (tmp_path / "older" / "last.ckpt").read_bytes())


def test_train_scst_rejects_checkpoint_with_adam_t_past_step(overfit_run, tmp_path, capsys):
    ckpt = load_checkpoint(overfit_run / "xe" / "last.ckpt")
    ckpt.stage, ckpt.adam_t = "scst", ckpt.step + 1
    path = tmp_path / "scst.ckpt"
    save_checkpoint(path, ckpt)
    cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "scst"), steps=1)
    assert cli.main(["train-scst", cfg, str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "adam_t" in err["detail"]
    assert not (tmp_path / "scst").exists()


def test_train_xe_takes_feature_dim_from_the_data(tmp_path):
    data = tmp_path / "data"
    gen_cfg = write_cfg(tmp_path / "gen.cfg", out_dir=str(data), feature_dim=16, **GEN)
    assert cli.main(["gen-data", gen_cfg]) == 0
    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=3, data_dir=str(data),
                       out_dir=str(tmp_path / "xe"), steps=2, batch_size=4, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 0
    assert load_checkpoint(tmp_path / "xe" / "last.ckpt").config["feature_dim"] == 16


@pytest.mark.parametrize("command", ["caption", "train-scst", "train-xe --resume"])
def test_features_of_another_width_exit_three_with_one_message(overfit_run, tmp_path, capsys,
                                                              command):
    narrow, out = tmp_path / "narrow", tmp_path / "out"
    assert cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(narrow),
                                           feature_dim=16, **GEN)]) == 0
    ckpt = str(overfit_run / "xe" / "last.ckpt")
    data = str(narrow / "features.bin") if command == "caption" else str(narrow)
    argv = {"caption": ["caption", ckpt, data, "--out", str(out)],
            "train-scst": ["train-scst", write_cfg(tmp_path / "scst.cfg", data_dir=data,
                                                   out_dir=str(out), steps=1), ckpt],
            "train-xe --resume": ["train-xe", write_cfg(tmp_path / "xe.cfg", seed=7, data_dir=data,
                                                        out_dir=str(out), steps=401, **TINY_MODEL),
                                  "--resume", ckpt]}[command]
    assert cli.main(argv) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "data", "detail": f"{data} has 16-wide features; checkpoint {ckpt} takes 32"}
    assert not out.exists()


def test_train_scst_takes_the_model_from_its_checkpoint(overfit_run, tmp_path, capsys):
    ckpt = str(overfit_run / "xe" / "last.ckpt")
    cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "scst"), steps=2, model_dim=32)
    assert cli.main(["train-scst", cfg, ckpt]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "unknown key 'model_dim'" in err["detail"]

    narrow = tmp_path / "narrow"
    assert cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(narrow),
                                           feature_dim=16, **GEN)]) == 0
    cfg = write_cfg(tmp_path / "scst2.cfg", data_dir=str(narrow),
                    out_dir=str(tmp_path / "scst2"), steps=2)
    assert cli.main(["train-scst", cfg, ckpt]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "16-wide" in err["detail"]
    assert not (tmp_path / "scst2").exists()


@pytest.mark.parametrize("command, values", [
    ("train-xe", dict(warmup=0)),
    ("train-xe", dict(batch_size=0)),
    ("train-xe", dict(steps=-1)),
    ("train-xe", dict(val_beam=0)),
    ("train-xe", dict(momentum=1.5)),
    ("train-xe", dict(num_heads=0)),
    ("train-xe", dict(model_dim=0)),
    ("train-xe", dict(num_encoder_layers=0)),
    ("train-xe", dict(num_decoder_layers=0)),
    ("train-xe", dict(feedforward_dim=0)),
    ("train-xe", dict(dropout_rate=1.0)),
    ("train-xe", dict(dropout_rate=-0.5)),
    ("train-xe", dict(max_length=1)),
    ("train-xe", dict(val_beam=1000, val_every=1)),
    ("train-xe", dict(lambda_kd=-0.5)),
    ("train-xe", dict(lambda_kd=-math.inf)),
    ("train-xe", dict(lambda_kd=math.nan)),
    ("gen-data", dict(num_images=0)),
    ("gen-data", dict(noise_sigma=math.nan)),
    ("gen-data", dict(noise_sigma=math.inf)),
    ("gen-data", dict(val_fraction=-math.inf)),
    ("gen-data", dict(train_fraction=1.2, val_fraction=-0.1)),
    ("gen-data", dict(noise_sigma=-0.1)),
    ("gen-data", dict(feature_dim=0)),
    ("gen-data", dict(refs_per_image=0)),
    ("gen-data", dict(min_objects=3, max_objects=2)),
    ("train-scst", dict(lambda_kd=-0.5)),
    ("train-scst", dict(learning_rate=0.0)),
    ("train-xe", dict(val_every=-1)),
    ("train-scst", dict(val_every=-1)),
    ("train-scst", dict(steps=-1)),
], ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()))
def test_out_of_range_config_values_exit_two(overfit_run, tmp_path, capsys, command, values):
    source = []
    if command == "gen-data":
        kv = dict(GEN, out_dir=str(tmp_path / "data"))
    elif command == "train-scst":
        kv = dict(data_dir=str(overfit_run / "data"), out_dir=str(tmp_path / "scst"), steps=1)
        source = [str(overfit_run / "xe" / "last.ckpt")]
    else:
        kv = dict(TINY_MODEL, seed=1, data_dir=str(overfit_run / "data"),
                  out_dir=str(tmp_path / "xe"), steps=2, batch_size=4)
    cfg = write_cfg(tmp_path / "run.cfg", **dict(kv, **values))
    assert cli.main([command, cfg] + source) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not Path(kv["out_dir"]).exists()  # nothing is written before the values are checked


def test_caption_rejects_oversized_beam(overfit_run, tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    out.write_text("earlier captions\n")
    for beam in ("4000", "0"):  # wider than the vocabulary, or empty
        assert cli.main(["caption", str(overfit_run / "xe" / "last.ckpt"),
                         str(overfit_run / "data" / "features.bin"),
                         "--beam", beam, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert out.read_text() == "earlier captions\n"  # refused before --out is opened


@pytest.mark.parametrize("command, key, k", [
    ("caption", "--beam", 0), ("caption", "--beam", 4000), ("train-xe", "val_beam", 1000),
    ("train-scst", "val_beam", 118), ("train-scst", "beam_size", 500)])
def test_every_beam_width_meets_one_vocabulary_rule(overfit_run, tmp_path, capsys, command, key, k):
    ckpt, out = str(overfit_run / "xe" / "last.ckpt"), tmp_path / "out"
    if command == "caption":
        argv = [command, ckpt, str(overfit_run / "data" / "features.bin"), "--beam", str(k),
                "--out", str(out)]
    else:
        kv = dict(TINY_MODEL, seed=1, batch_size=4) if command == "train-xe" else {}
        argv = [command, write_cfg(tmp_path / "run.cfg", data_dir=str(overfit_run / "data"),
                                   out_dir=str(out), steps=1, val_every=1, **{key: k}, **kv)]
        argv += [ckpt] if command == "train-scst" else []
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "detail": f"{key} {k} must lie in 1..117, the vocabulary size"}
    assert not out.exists()


@pytest.mark.parametrize("keys", [{"best": {}}, {"best": {"cider_target": "0.9"}},
                                  {"best": {"cider_target": True}}, {"best": {"cider_target": math.nan}},
                                  {"stage": "pretrain"}])
def test_checkpoint_with_malformed_best_or_stage_exits_three(overfit_run, tmp_path, capsys, keys):
    bad = with_header_keys(overfit_run / "xe" / "last.ckpt", tmp_path / "bad.ckpt", **keys)
    data = overfit_run / "data"
    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=7, data_dir=str(data), out_dir=str(tmp_path / "xe"),
                       steps=401, batch_size=8, warmup=100, val_every=1, val_beam=3, **TINY_MODEL)
    scst_cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(data), out_dir=str(tmp_path / "scst"),
                         steps=1, beam_size=3, val_every=1, val_beam=3)
    for argv in (["train-xe", xe_cfg, "--resume", bad], ["train-scst", scst_cfg, bad],
                 ["caption", bad, str(data / "features.bin"), "--out", str(tmp_path / "c.jsonl")]):
        assert cli.main(argv) == 3, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data" and next(iter(keys)) in err["detail"], err
    assert not {"xe", "scst", "c.jsonl"} & {p.name for p in tmp_path.iterdir()}


def test_caption_and_evaluate_create_the_out_directory(overfit_run, tmp_path):
    caps = tmp_path / "new" / "deeper" / "caps.jsonl"
    assert cli.main(["caption", str(overfit_run / "xe" / "last.ckpt"),
                     str(overfit_run / "data" / "features.bin"),
                     "--beam", "2", "--out", str(caps)]) == 0
    assert len(caps.read_text().splitlines()) == 10
    assert (tmp_path / "new" / "deeper" / "caps.jsonl.manifest.json").exists()
    scores = tmp_path / "other" / "scores.json"
    assert cli.main(["evaluate", str(caps), str(overfit_run / "data" / "captions.jsonl"),
                     "--out", str(scores)]) == 0
    assert json.loads(scores.read_text())["num_images"] == 10


def test_out_that_cannot_be_opened_exits_three_before_any_work(overfit_run, tmp_path, capsys,
                                                               monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work began before --out was opened")

    monkeypatch.setattr(cli, "caption_image", forbidden)
    monkeypatch.setattr(cli.metrics, "evaluate_all", forbidden)
    taken = tmp_path / "taken"
    taken.mkdir()
    cands, refs = tmp_path / "cands.jsonl", tmp_path / "refs.jsonl"
    cands.write_text('{"id": 1, "caption": "a dog"}\n')
    refs.write_text('{"id": 1, "refs": ["a dog"]}\n')
    for argv in (["caption", str(overfit_run / "xe" / "last.ckpt"),
                  str(overfit_run / "data" / "features.bin"), "--out", str(taken)],
                 ["evaluate", str(cands), str(refs), "--out", str(taken)],
                 ["evaluate", str(cands), str(refs), "--out", str(cands / "under_a_file")]):
        assert cli.main(argv) == 3, argv
        assert json.loads(capsys.readouterr().err)["error"] == "data"
    assert list(taken.iterdir()) == []


def test_missing_and_corrupt_data_exit_three(overfit_run, tmp_path, capsys):
    assert cli.main(["caption", str(overfit_run / "xe" / "last.ckpt"),
                     str(tmp_path / "nope.bin"), "--out", str(tmp_path / "c.jsonl")]) == 3

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"CMLF" + b"\x00" * 40)
    assert cli.main(["caption", str(overfit_run / "xe" / "last.ckpt"),
                     str(bad), "--out", str(tmp_path / "c.jsonl")]) == 3

    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=1, data_dir=str(tmp_path / "nodata"),
                       out_dir=str(tmp_path / "xe"), steps=1, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 3

    no_train = tmp_path / "no_train"
    shutil.copytree(overfit_run / "data", no_train)
    (no_train / "split.json").write_text(json.dumps({"train": [], "val": [], "test": []}))
    xe_cfg = write_cfg(tmp_path / "xe2.cfg", seed=1, data_dir=str(no_train),
                       out_dir=str(tmp_path / "xe2"), steps=1, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 3
    last_err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(last_err)["error"] == "data"

    def assert_data_error(argv, detail=""):
        assert cli.main(argv) == 3, argv
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "data" and detail in err["detail"], err

    captions = (no_train / "captions.jsonl").read_text().splitlines(keepends=True)
    (no_train / "captions.jsonl").write_text("".join(captions[1:]))
    uncaptioned, captioned = (json.loads(line)["id"] for line in captions[:2])
    for split, detail in [([], ""), ({"train": 5, "val": [], "test": []}, ""),
                          ({"train": [[1]], "val": [], "test": []}, ""),
                          ({"train": [1.0], "val": [], "test": []}, ""),
                          ({"train": [captioned], "test": []}, "lacks the 'val' split"),
                          ({"train": [10 ** 6], "val": [], "test": []}, "missing from features.bin"),
                          ({"train": [uncaptioned], "val": [], "test": []},
                           "missing from captions.jsonl")]:
        (no_train / "split.json").write_text(json.dumps(split))
        assert_data_error(["train-xe", xe_cfg], detail)

    cands, refs = tmp_path / "cands.jsonl", tmp_path / "refs.jsonl"
    good_cand, good_ref = '{"id": 1, "caption": "a dog"}', '{"id": 1, "refs": ["a dog"]}'
    for bad in ('{"id": "abc", "caption": "a dog"}', '{"id": null, "caption": "a dog"}', "5",
                '{"id": 1.7, "caption": "a dog"}', '{"id": 1, "caption": 3}', "[" * 100000,
                "1" * 5000):
        cands.write_text(good_cand + "\n" + bad + "\n")
        refs.write_text(good_ref + "\n")
        assert_data_error(["evaluate", str(cands), str(refs), "--out", str(tmp_path / "s.json")])
    for bad in ('{"id": null, "refs": ["a dog"]}', '{"id": 1, "refs": 5}', "7", "[" * 100000):
        cands.write_text(good_cand + "\n")
        refs.write_text(good_ref + "\n" + bad + "\n")
        assert_data_error(["evaluate", str(cands), str(refs), "--out", str(tmp_path / "s.json")])
    refs.write_text('{"id": 1, "refs": [" "]}\n')  # no reference words: CIDEr-D has no corpus
    assert_data_error(["evaluate", str(cands), str(refs), "--out", str(tmp_path / "s.json")])


def test_train_xe_learns_the_caption_grammars_whole_vocabulary(overfit_run):
    _state, vocab = tr.state_from_checkpoint(load_checkpoint(overfit_run / "xe" / "last.ckpt"))
    assert vocab == build_vocab(caption_corpus()) and len(vocab) == 117


@pytest.mark.parametrize("values", [dict(vocab_size=3), dict(vocab_size=200)],
                         ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()))
def test_unknown_train_xe_keys_exit_two(overfit_run, tmp_path, capsys, values):
    cfg = write_cfg(tmp_path / "xe.cfg", seed=1, data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "xe"), steps=2, batch_size=4, **TINY_MODEL, **values)
    assert cli.main(["train-xe", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and f"unknown key {next(iter(values))!r}" in err["detail"]
    assert not (tmp_path / "xe").exists()


def test_resume_names_another_vocabulary_by_its_token_counts(overfit_run, tmp_path, capsys):
    vocab = build_vocab(caption_corpus(), 40)
    config = ModelConfig(vocab_size=len(vocab), feature_dim=32, **TINY_MODEL)
    ckpt = tmp_path / "small.ckpt"
    save_checkpoint(ckpt, tr.state_to_checkpoint(tr.TrainState.create(config, seed=7), vocab, "xe"))
    cfg = write_cfg(tmp_path / "xe.cfg", seed=7, data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "xe"), steps=2, **TINY_MODEL)
    assert cli.main(["train-xe", cfg, "--resume", str(ckpt)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["detail"].endswith(
        "disagrees with the config on: the vocabulary (checkpoint 40 tokens, "
        "the caption grammar's 117)")
    assert not (tmp_path / "xe").exists()


def test_resume_names_every_mismatch_in_one_message(overfit_run, tmp_path, capsys):
    last = overfit_run / "xe" / "last.ckpt"
    cfg = write_cfg(tmp_path / "xe.cfg", seed=8, data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "xe"), steps=401, momentum=0.5,
                    **{**TINY_MODEL, "model_dim": 16})
    assert cli.main(["train-xe", cfg, "--resume", str(last)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0]) == {"error": "config", "detail": (
        f"checkpoint {last} disagrees with the config on: model_dim (checkpoint 32, config 16), "
        "momentum (checkpoint 0.999, config 0.5), seed (checkpoint 7, config 8)")}
    assert not (tmp_path / "xe").exists()


@pytest.mark.parametrize("command", ["train-xe", "train-scst"])
def test_val_every_on_an_empty_val_split_exits_two_before_step_one(overfit_run, tmp_path, capsys,
                                                                   command):
    data, out = tmp_path / "data", tmp_path / "out"
    gen = dict(GEN, seed=3, num_images=12, train_fraction=1.0, val_fraction=0.0)
    assert cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(data), **gen)]) == 0
    assert json.loads((data / "split.json").read_text())["val"] == []
    if command == "train-xe":
        kv, source = dict(TINY_MODEL, seed=3, steps=2, batch_size=4), []
    else:
        kv, source = dict(steps=1, batch_size=2, beam_size=3), [str(overfit_run / "xe" / "last.ckpt")]
    cfg = write_cfg(tmp_path / "run.cfg", data_dir=str(data), out_dir=str(out), val_every=1, **kv)
    assert cli.main([command, cfg] + source) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "config"
    assert "val_every" in json.loads(err[0])["detail"]
    assert not out.exists()
    # without validation the empty split is no error
    cfg = write_cfg(tmp_path / "run.cfg", data_dir=str(data), out_dir=str(out), val_every=0, **kv)
    assert cli.main([command, cfg] + source) == 0
    assert (out / "last.ckpt").exists() and not (out / "best.ckpt").exists()


def _edit_references(part, edit):
    """A dataset edit: the references of each image in split ``part`` become ``edit(refs)``."""
    def apply(data):
        ids = set(json.loads((data / "split.json").read_text())[part])
        rows = [json.loads(line) for line in (data / "captions.jsonl").read_text().splitlines()]
        (data / "captions.jsonl").write_text("".join(
            json.dumps({"id": r["id"], "refs": edit(r["refs"]) if r["id"] in ids else r["refs"]})
            + "\n" for r in rows))
        return "captions.jsonl"
    return apply


def _nest_split(data):
    (data / "split.json").write_text("[" * 100000 + "]" * 100000)
    return "split.json"


def _list_again(part):
    """A dataset edit: split.json lists its first training image once more, in split ``part``."""
    def apply(data):
        split = json.loads((data / "split.json").read_text())
        image = split["train"][0]
        split[part].append(image)
        (data / "split.json").write_text(json.dumps(split))
        return f"split.json lists image {image} in train and again in {part}"
    return apply


# command, extra config values, and an edit of the dataset that returns what
# the error must say
_MALFORMED_DATASETS = {
    "train-xe-empty-reference": ("train-xe", {},
                                 _edit_references("train", lambda refs: [""] + refs[1:])),
    "train-xe-wordless-val-references": ("train-xe", dict(val_every=1),
                                         _edit_references("val", lambda refs: [" "] * len(refs))),
    "train-scst-wordless-train-references": (
        "train-scst", {}, _edit_references("train", lambda refs: [" \t"] * len(refs))),
    "train-xe-deep-split": ("train-xe", {}, _nest_split),
    # validation would score a training image
    "train-xe-image-in-train-and-val": ("train-xe", {}, _list_again("val")),
    "train-scst-image-twice-in-train": ("train-scst", {}, _list_again("train")),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_DATASETS))
def test_a_malformed_dataset_exits_three_before_step_one(overfit_run, tmp_path, capsys, case):
    command, values, edit = _MALFORMED_DATASETS[case]
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(overfit_run / "data", data)
    says = edit(data)
    if command == "train-xe":
        kv, source = dict(TINY_MODEL, seed=7, steps=2, batch_size=4), []
    else:
        kv, source = dict(steps=1, batch_size=2, beam_size=3), [str(overfit_run / "xe" / "last.ckpt")]
    cfg = write_cfg(tmp_path / "run.cfg", data_dir=str(data), out_dir=str(out), **kv, **values)
    assert cli.main([command, cfg] + source) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "data"
    assert says in json.loads(err[0])["detail"]
    assert not (out / "train_log.jsonl").exists() and not (out / "last.ckpt").exists()


def _with_unspellable_references(source, target):
    """A copy of a dataset whose every first reference has a word with a
    letter the caption corpus never uses; returns the first training image."""
    shutil.copytree(source, target)
    rows = [json.loads(line) for line in (target / "captions.jsonl").read_text().splitlines()]
    for row in rows:
        row["refs"][0] = "a quixotic jazz ball"
    (target / "captions.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    return json.loads((target / "split.json").read_text())["train"][0]


def _assert_unspellable_word_error(capsys, image_id):
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "data"
    assert f"image {image_id}:" in err["detail"] and "'quixotic'" in err["detail"]


def test_train_xe_rejects_an_unspellable_reference_word_before_step_one(tmp_path, capsys):
    source = tmp_path / "source"
    gen = dict(GEN, seed=3, num_images=20)
    assert cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(source), **gen)]) == 0
    first = _with_unspellable_references(source, tmp_path / "data")
    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=3, data_dir=str(tmp_path / "data"),
                       out_dir=str(tmp_path / "xe"), steps=3, batch_size=4, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 3
    _assert_unspellable_word_error(capsys, first)
    assert not (tmp_path / "xe").exists()


def test_train_scst_rejects_an_unspellable_reference_word_before_step_one(overfit_run, tmp_path,
                                                                         capsys):
    first = _with_unspellable_references(overfit_run / "data", tmp_path / "data")
    cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(tmp_path / "data"),
                    out_dir=str(tmp_path / "scst"), steps=2, batch_size=4, beam_size=3)
    assert cli.main(["train-scst", cfg, str(overfit_run / "xe" / "last.ckpt")]) == 3
    _assert_unspellable_word_error(capsys, first)
    assert not (tmp_path / "scst").exists()


def test_evaluate_non_utf8_candidates_exit_three(tmp_path, capsys):
    cands, refs = tmp_path / "cands.jsonl", tmp_path / "refs.jsonl"
    cands.write_bytes(b'{"id": 1, "caption": "a \xff dog"}\n')
    refs.write_text('{"id": 1, "refs": ["a dog"]}\n')
    assert cli.main(["evaluate", str(cands), str(refs), "--out", str(tmp_path / "s.json")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "data"


def test_evaluate_rejects_wordless_references_but_lets_a_scoring_fault_raise(tmp_path, capsys,
                                                                             monkeypatch):
    cands, refs, out = tmp_path / "cands.jsonl", tmp_path / "refs.jsonl", tmp_path / "s.json"
    cands.write_text('{"id": 1, "caption": "a dog"}\n')
    refs.write_text('{"id": 1, "refs": [" ", ""]}\n')
    assert cli.main(["evaluate", str(cands), str(refs), "--out", str(out)]) == 3
    assert "no words" in json.loads(capsys.readouterr().err)["detail"]
    assert not out.exists()

    def broken(*args, **kwargs):
        raise ValueError("a fault inside a metric")

    monkeypatch.setattr(cli.metrics, "evaluate_all", broken)
    refs.write_text('{"id": 1, "refs": ["a dog"]}\n')
    with pytest.raises(ValueError, match="inside a metric"):
        cli.main(["evaluate", str(cands), str(refs), "--out", str(out)])


def test_nan_checkpoint_exits_four(overfit_run, tmp_path, capsys):
    ckpt = load_checkpoint(overfit_run / "xe" / "last.ckpt")
    ckpt.groups["target"]["output.bias"][:] = np.nan
    nan_path = tmp_path / "nan.ckpt"
    save_checkpoint(nan_path, ckpt)
    assert cli.main(["caption", str(nan_path),
                     str(overfit_run / "data" / "features.bin"),
                     "--out", str(tmp_path / "c.jsonl")]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"


def test_a_command_that_fails_after_opening_out_leaves_the_earlier_file(overfit_run, tmp_path,
                                                                        capsys, monkeypatch):
    ckpt = load_checkpoint(overfit_run / "xe" / "last.ckpt")
    ckpt.groups["target"]["output.bias"][:] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", ckpt)
    caps, scores = tmp_path / "caps.jsonl", tmp_path / "scores.json"
    caps.write_text('{"caption": "a red ball", "id": 0, "logprob": -1.0}\n')
    scores.write_text("{}\n")
    earlier = caps.read_bytes()
    assert cli.main(["caption", str(tmp_path / "nan.ckpt"),
                     str(overfit_run / "data" / "features.bin"), "--out", str(caps)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"
    assert caps.read_bytes() == earlier

    def broken(*args, **kwargs):
        raise ValueError("a fault inside a metric")

    monkeypatch.setattr(cli.metrics, "evaluate_all", broken)
    with pytest.raises(ValueError, match="inside a metric"):
        cli.main(["evaluate", str(caps), str(overfit_run / "data" / "captions.jsonl"),
                  "--out", str(scores)])
    assert scores.read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["caps.jsonl", "nan.ckpt", "scores.json"]


def test_train_xe_reproducible_and_resumable(tmp_path):
    data = tmp_path / "data"
    cfg = write_cfg(tmp_path / "gen.cfg", out_dir=str(data), **GEN)
    assert cli.main(["gen-data", cfg]) == 0

    def xe(out, steps, resume=None):
        cfg = write_cfg(tmp_path / f"{out}_{steps}.cfg", seed=3, data_dir=str(data),
                        out_dir=str(tmp_path / out), steps=steps, batch_size=4,
                        warmup=50, val_every=6, val_beam=3, **TINY_MODEL)
        argv = ["train-xe", cfg] + (["--resume", resume] if resume else [])
        assert cli.main(argv) == 0
        return tmp_path / out

    a = xe("a", 12)
    a2 = xe("a2", 12)
    b = xe("b", 6)
    assert "source" not in read_manifest(b / "manifest.json")["checkpoints"]
    xe("b", 12, resume=str(b / "last.ckpt"))
    assert read_manifest(b / "manifest.json")["checkpoints"]["source"] == str(b / "last.ckpt")

    for other in (a2, b):
        assert (a / "last.ckpt").read_bytes() == (other / "last.ckpt").read_bytes()
        assert (a / "best.ckpt").read_bytes() == (other / "best.ckpt").read_bytes()
        assert (a / "train_log.jsonl").read_text() == (other / "train_log.jsonl").read_text()


def test_resume_refuses_wrong_stage_or_seed(overfit_run, tmp_path, capsys):
    last = overfit_run / "xe" / "last.ckpt"
    scst = tmp_path / "scst.ckpt"
    save_checkpoint(scst, dataclasses.replace(load_checkpoint(last), stage="scst"))

    def resume(ckpt, seed):
        cfg = write_cfg(tmp_path / "xe.cfg", seed=seed, data_dir=str(overfit_run / "data"),
                        out_dir=str(tmp_path / "xe"), steps=401, **TINY_MODEL)
        assert cli.main(["train-xe", cfg, "--resume", str(ckpt)]) == 2
        return json.loads(capsys.readouterr().err)["detail"]

    assert "seed" in resume(last, 8)
    assert "stage 'scst'" in resume(scst, 7)


def test_resume_refuses_other_model_keys(overfit_run, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "xe.cfg", seed=7, data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "xe"), steps=401, **{**TINY_MODEL, "model_dim": 16})
    assert cli.main(["train-xe", cfg, "--resume", str(overfit_run / "xe" / "last.ckpt")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "model_dim" in err["detail"]


@pytest.mark.parametrize("key, value", [("momentum", 0.5), ("lambda_kd", 0.0)])
def test_resume_refuses_other_momentum_or_lambda_kd(overfit_run, tmp_path, capsys, key, value):
    def cfg(steps, **over):
        return write_cfg(tmp_path / f"xe_{steps}.cfg", seed=3, data_dir=str(overfit_run / "data"),
                         out_dir=str(tmp_path / "xe"), steps=steps, batch_size=4, warmup=50,
                         **TINY_MODEL, **over)

    assert cli.main(["train-xe", cfg(2)]) == 0
    capsys.readouterr()
    last = tmp_path / "xe" / "last.ckpt"
    assert cli.main(["train-xe", cfg(4, **{key: value}), "--resume", str(last)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and key in err["detail"]
    assert load_checkpoint(last).step == 2


MALFORMED_CONFIGS = {
    "deep-nesting": b"out_dir = " + b"[" * 100_000 + b"\n",
    "not-utf8": b"seed = 1\nout_dir = d\xff\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
@pytest.mark.parametrize("command", ["gen-data", "train-xe", "train-scst"])
def test_malformed_config_file_exits_two(tmp_path, capsys, command, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(MALFORMED_CONFIGS[name])
    checkpoint = [str(tmp_path / "missing.ckpt")] if command == "train-scst" else []
    assert cli.main([command, str(cfg)] + checkpoint) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


# config-shaped fragments, so that most draws reach the value parser
_CONFIG_PIECES = st.sampled_from([b"seed", b"out_dir", b"num_images", b"noise_sigma", b"=", b" = ",
                                  b"[", b"]", b"{", b"}", b'"', b"1", b"-2.5e3", b"true", b"null",
                                  b"#", b"\n", b"\xff", b"\x00", b"\xc3\xa9"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.lists(_CONFIG_PIECES, max_size=40).map(b"".join)))
def test_parse_config_of_arbitrary_bytes_gives_a_dict_or_config_error(content):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "any.cfg"
        path.write_bytes(content)
        try:
            cfg = cli.parse_config(path, cli._GEN_DATA_KEYS)
        except cli.ConfigError:
            return
    assert isinstance(cfg, dict) and set(cfg) == set(cli._GEN_DATA_KEYS)


@pytest.mark.parametrize("value", ['"ten"', "2.5", "[10]", "null"])
def test_a_value_of_the_wrong_json_type_exits_two(tmp_path, capsys, value):
    cfg = tmp_path / "xe.cfg"
    cfg.write_text(f"seed = 1\ndata_dir = d\nout_dir = {tmp_path / 'xe'}\nsteps = {value}\n")
    assert cli.main(["train-xe", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "steps must be int" in err["detail"], err
    assert not (tmp_path / "xe").exists()


def test_config_parser_details(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("seed = 1  # comment\n\nout_dir = plain/path # c\n  # out_dir = other\n")
    cfg = cli.parse_config(p, cli._GEN_DATA_KEYS)
    assert cfg["seed"] == 1 and cfg["out_dir"] == "plain/path"
    assert cfg["num_images"] == 200  # default filled in

    # a bare word that opens with a JSON number is still one bare word
    p.write_text("seed = 1\nout_dir = 2024runs/x\n")
    assert cli.parse_config(p, cli._GEN_DATA_KEYS)["out_dir"] == "2024runs/x"

    # a "#" inside a quoted value is part of it; only what follows the value is a comment
    p.write_text('seed = 1\nout_dir = "runs/run#1/data"  # a comment\n')
    assert cli.parse_config(p, cli._GEN_DATA_KEYS)["out_dir"] == "runs/run#1/data"

    p.write_text("seed = 1\nseed = 2\nout_dir = d\n")
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(p, cli._GEN_DATA_KEYS)

    p.write_text("seed = true\nout_dir = d\n")
    with pytest.raises(cli.ConfigError, match="integer"):
        cli.parse_config(p, cli._GEN_DATA_KEYS)

    p.write_text("seed 1\n")
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config(p, cli._GEN_DATA_KEYS)

    # a number past the float range is as non-finite as Infinity
    for value in ("1e400", "-1" + "0" * 400, "Infinity"):
        p.write_text(f"seed = 1\nout_dir = d\nnoise_sigma = {value}\n")
        with pytest.raises(cli.ConfigError, match="finite"):
            cli.parse_config(p, cli._GEN_DATA_KEYS)
    p.write_text("seed = 1\nout_dir = d\nnoise_sigma = 0\n")
    assert cli.parse_config(p, cli._GEN_DATA_KEYS)["noise_sigma"] == 0.0


def test_gen_data_writes_under_an_out_dir_with_a_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a cut value would be a path relative to here
    out = tmp_path / "run#1" / "data"
    assert cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(out), **GEN)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["captions.jsonl", "features.bin",
                                                     "manifest.json", "split.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.cfg", "run#1"]


REQUIRED = "required"

# every command's keys with their types and defaults, spelled out once here
# so that a change to a library default cannot silently move a CLI default
KEY_TABLES = {
    "_GEN_DATA_KEYS": {
        "seed": (int, REQUIRED), "out_dir": (str, REQUIRED), "num_images": (int, 200),
        "min_objects": (int, 1), "max_objects": (int, 4), "refs_per_image": (int, 5),
        "grid_size": (int, 9), "feature_dim": (int, 32), "noise_sigma": (float, 0.05),
        "train_fraction": (float, 0.8), "val_fraction": (float, 0.1),
    },
    "_TRAIN_XE_KEYS": {
        "seed": (int, REQUIRED), "data_dir": (str, REQUIRED), "out_dir": (str, REQUIRED),
        "steps": (int, REQUIRED), "batch_size": (int, 16),
        "warmup": (int, 1000), "val_every": (int, 0), "val_beam": (int, 5),
        "lambda_kd": (float, 0.1), "momentum": (float, 0.999), "model_dim": (int, 64),
        "feedforward_dim": (int, 256), "num_heads": (int, 4), "num_encoder_layers": (int, 2),
        "num_decoder_layers": (int, 2), "num_memory_slots": (int, 8),
        "dropout_rate": (float, 0.1), "max_length": (int, 24), "mesh_enabled": (bool, False),
    },
    "_TRAIN_SCST_KEYS": {
        "data_dir": (str, REQUIRED), "out_dir": (str, REQUIRED), "steps": (int, REQUIRED),
        "batch_size": (int, 8), "strategy": (str, "best"), "beam_size": (int, 5),
        "learning_rate": (float, 5e-6), "lambda_kd": (float, 0.1), "val_every": (int, 0),
        "val_beam": (int, 5),
    },
}


@pytest.mark.parametrize("table", sorted(KEY_TABLES))
def test_config_keys_types_and_defaults_are_pinned(table):
    got = {key: (want, REQUIRED if default is cli._REQUIRED else default)
           for key, (want, default) in getattr(cli, table).items()}
    assert got == KEY_TABLES[table]
    # == takes 0 for 0.0 and False for 0: each default must also have its key's type
    assert all(default == REQUIRED or type(default) is want for want, default in got.values())


# ---------------------------------------------------------------------------
# malformed input files: caption and evaluate exit 2 or 3, never a traceback
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """Bytes of an untrained tiny checkpoint, a two-image feature file and
    its captions: cheap inputs for caption and evaluate."""
    base = tmp_path_factory.mktemp("tiny_files")
    samples = generate_synthetic_dataset(seed=2, num_images=2, max_objects=1,
                                         refs_per_image=2, grid_size=2, feature_dim=4)
    vocab = build_vocab(caption_corpus(), 40)
    config = ModelConfig(vocab_size=len(vocab.tokens), feature_dim=4, model_dim=8,
                         feedforward_dim=8, num_heads=2, num_encoder_layers=1,
                         num_decoder_layers=1, num_memory_slots=1, max_length=4)
    save_checkpoint(base / "tiny.ckpt",
                    tr.state_to_checkpoint(tr.TrainState.create(config, seed=1), vocab, "xe"))
    write_features(base / "features.bin", [s.features for s in samples])
    write_captions(base / "captions.jsonl", samples)
    return _Files({name: (base / name).read_bytes()
                   for name in ("tiny.ckpt", "features.bin", "captions.jsonl")})


class _Files(dict):
    def __repr__(self):  # keeps hypothesis reports short
        return f"<{', '.join(self)}>"


def _run_cli(files: dict, argv: list):
    """Exit code and stderr of ``meancap`` over ``files`` written to a fresh
    directory; {name} in ``argv`` names a file there.  An exception escaping
    ``main`` is the traceback the command must never end with."""
    with tempfile.TemporaryDirectory() as d:
        for name, content in files.items():
            (Path(d) / name).write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([a.format(d) for a in argv])
    return code, err.getvalue()


def _assert_reported(code, err, allow_ok=False):
    if allow_ok and code == 0:
        return
    assert code in (2, 3), (code, err)
    assert json.loads(err.strip().splitlines()[-1])["error"] == ("config" if code == 2 else "data")


_CAPTION = ["caption", "{}/tiny.ckpt", "{}/features.bin", "--beam", "2", "--out", "{}/c.jsonl"]
_EVALUATE = ["evaluate", "{}/cands.jsonl", "{}/captions.jsonl", "--out", "{}/s.json"]


@st.composite
def _damaged(draw, content: bytes) -> bytes:
    """``content`` cut short, with one byte changed, or with bytes appended:
    the checksums and length fields of both binary formats catch each."""
    kind = draw(st.sampled_from(["cut", "flip", "append"]))
    if kind == "cut":
        return content[:draw(st.integers(0, len(content) - 1))]
    if kind == "append":
        return content + draw(st.binary(min_size=1, max_size=8))
    at = draw(st.integers(0, len(content) - 1))
    return content[:at] + bytes([content[at] ^ draw(st.integers(1, 255))]) + content[at + 1:]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["tiny.ckpt", "features.bin"]))
def test_caption_of_damaged_files_exits_three(tiny_files, data, name):
    files = dict(tiny_files)
    files[name] = data.draw(_damaged(files[name]))
    _assert_reported(*_run_cli(files, _CAPTION))


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


_JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 2 ** 70) | st.text(max_size=4)
                     | st.floats(-4.0, 4.0) | st.just(math.nan), _json_containers, max_leaves=6)


def _header(content: bytes) -> dict:
    (head_len,) = struct.unpack_from("<I", content, 6)
    return json.loads(content[10:10 + head_len])


def _edited(content: bytes, spot: tuple, value, drop=False) -> bytes:
    """A checkpoint with the header entry at path ``spot`` set to ``value``,
    or deleted, and its checksum redone."""
    magic, version, head_len = struct.unpack_from("<4sHI", content)
    header = _header(content)
    *path, last = spot
    entry = header
    for key in path:
        entry = entry[key]
    if drop:
        del entry[last]
    else:
        entry[last] = value
    head = json.dumps(header).encode()
    payload = head + content[10 + head_len:-4]
    return (struct.pack("<4sHI", magic, version, len(head)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


# a parameter listing entry is [name, shape, dtype]
_LISTING_PARTS = [_JSON, st.lists(st.integers(-2, 2 ** 70), max_size=3),
                  st.sampled_from(["<f8", "<i4", "|O", "V4", "<f2", "x"]) | _JSON]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_caption_of_checkpoints_with_edited_headers_never_ends_in_a_traceback(tiny_files, data):
    header = _header(tiny_files["tiny.ckpt"])
    spots = ([(k,) for k in header if k not in ("best", "version")]
             + [("config", k) for k in header["config"]] + [("vocab", "tokens"), ("vocab", "merges")]
             + [("groups", g, i, part) for g, entries in header["groups"].items()
                for i in range(len(entries)) for part in range(3)])
    spot = data.draw(st.sampled_from(spots))
    value = data.draw(_LISTING_PARTS[spot[3]] if len(spot) == 4 else _JSON)  # (groups, group, entry, part)
    drop = len(spot) == 1 and data.draw(st.booleans())
    files = dict(tiny_files, **{"tiny.ckpt": _edited(tiny_files["tiny.ckpt"], spot, value, drop)})
    # an edit may leave a checkpoint the model can still use
    _assert_reported(*_run_cli(files, _CAPTION), allow_ok=True)


@pytest.mark.parametrize("spot, value", [
    (("config", "num_heads"), True), (("config", "vocab_size"), 40.0),
    (("config", "num_decoder_layers"), None), (("config", "feedforward_dim"), 16),
    (("step",), "7"), (("adam_t",), -1), (("vocab", "tokens"), ["<pad>", "<bos>", "<eos>", "a"]),
    (("groups", "target", 0, 0), "other.bias"), (("groups", "target", 0, 1), [2 ** 63])])
def test_caption_of_checkpoint_that_does_not_fit_its_model_exits_three(tiny_files, spot, value):
    files = dict(tiny_files, **{"tiny.ckpt": _edited(tiny_files["tiny.ckpt"], spot, value)})
    code, err = _run_cli(files, _CAPTION)
    assert code == 3 and json.loads(err)["error"] == "data", err


def _features(ids, g=2, d=4) -> bytes:
    """A feature file with a record of ones for each id, as ``write_features`` lays one out."""
    records = b"".join(struct.pack("<Q", i) + np.ones(g * d, "<f4").tobytes() for i in ids)
    return (struct.pack("<4sHIII", b"CMLF", 1, g, d, len(ids)) + records
            + struct.pack("<I", zlib.crc32(records)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 5), st.integers(0, 3))
def test_caption_of_feature_grids_of_any_shape_never_ends_in_a_traceback(tiny_files, g, d, count):
    code, err = _run_cli(dict(tiny_files, **{"features.bin": _features(range(count), g, d)}),
                         _CAPTION)
    # only a file of non-empty grids of the model's feature width can be captioned
    _assert_reported(code, err, allow_ok=g > 0 and d == 4 and count > 0)


_JSON_LINE = st.one_of(st.binary(max_size=30),
                       _JSON.map(lambda v: json.dumps(v).encode()),
                       st.fixed_dictionaries({"id": st.integers(0, 3) | _JSON, "caption": _JSON})
                       .map(lambda v: json.dumps(v).encode()),
                       st.fixed_dictionaries({"id": st.integers(0, 3) | _JSON, "refs": _JSON})
                       .map(lambda v: json.dumps(v).encode()),
                       st.sampled_from([b"[" * 100000, b"1" * 5000, b'{"id": 0, "caption": "\\ud800"}']))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cands.jsonl", "captions.jsonl"]), st.lists(_JSON_LINE, min_size=1, max_size=3))
def test_evaluate_of_malformed_caption_files_never_ends_in_a_traceback(tiny_files, name, lines):
    files = dict(tiny_files)
    files["cands.jsonl"] = b'{"id": 0, "caption": "a red ball"}\n'
    files[name] = b"\n".join(lines) + b"\n"
    # lines drawn as JSON may still form a valid file
    _assert_reported(*_run_cli(files, _EVALUATE), allow_ok=True)


def test_every_manifest_records_the_numpy_and_blas_builds(tiny_files, tmp_path):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    want = {"numpy": np.__version__, "blas": {"name": blas["name"], "version": blas["version"]}}
    assert want["blas"]["name"] and want["blas"]["version"]
    for name, content in tiny_files.items():
        (tmp_path / name).write_bytes(content)
    (tmp_path / "cands.jsonl").write_text('{"id": 0, "caption": "a red ball"}\n')
    assert cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(tmp_path / "data"),
                                           **GEN)]) == 0
    assert cli.main([a.format(tmp_path) for a in _CAPTION]) == 0
    assert cli.main([a.format(tmp_path) for a in _EVALUATE]) == 0
    for manifest in ("data/manifest.json", "c.jsonl.manifest.json", "s.json.manifest.json"):
        got = read_manifest(tmp_path / manifest)
        assert {k: got[k] for k in want} == want, manifest


@pytest.mark.parametrize("name, lines", [
    ("cands.jsonl", ['{"id": 0, "caption": "a red ball"}', '{"id": 0, "caption": 3}']),
    ("cands.jsonl", ['{"id": 0, "caption": "a red ball"}', '{"id": 5, "caption": "a cube"}']),
    ("cands.jsonl", ['', '{"id": 0, "caption": "a red ball"}', "not json"]),
    ("captions.jsonl", ['{"id": 0, "refs": ["a red ball"]}', '{"id": 1, "refs": []}']),
])
def test_evaluate_names_the_line_of_a_malformed_caption_file(tiny_files, name, lines):
    files = dict(tiny_files, **{"cands.jsonl": b'{"id": 0, "caption": "a red ball"}\n'})
    files[name] = "\n".join(lines).encode() + b"\n"
    code, err = _run_cli(files, _EVALUATE)
    assert code == 3, err
    detail = json.loads(err)["detail"]
    assert f"{name} line {len(lines)}" in detail, detail


# an input that lists image 0 twice, the command that reads it, and where the error points
_REPEATED_IDS = {
    "candidates": (_EVALUATE, "cands.jsonl",
                   b'{"id": 0, "caption": "a red ball"}\n{"id": 0, "caption": "a cube"}\n',
                   "cands.jsonl line 2 repeats image 0, first on line 1"),
    "references": (_EVALUATE, "captions.jsonl",
                   b'{"id": 0, "refs": ["a red ball"]}\n{"id": 1, "refs": ["a cube"]}\n'
                   b'{"id": 0, "refs": ["a star"]}\n',
                   "captions.jsonl line 3 repeats image 0, first on line 1"),
    "features": (_CAPTION, "features.bin", _features([0, 1, 0]), "holds image 0 twice"),
}


@pytest.mark.parametrize("case", sorted(_REPEATED_IDS))
def test_an_image_listed_twice_in_a_file_exits_three_naming_it(tiny_files, case):
    argv, name, content, message = _REPEATED_IDS[case]
    code, err = _run_cli(dict(tiny_files, **{"cands.jsonl": b'{"id": 0, "caption": "a"}\n',
                                             name: content}), argv)
    assert code == 3, err
    assert json.loads(err)["error"] == "data" and message in json.loads(err)["detail"], err


def _gen_data(d):
    return cli.main(["gen-data", write_cfg(d / "gen.cfg", out_dir=str(d / "data"), **GEN)])


def _kill_the_rename_onto(monkeypatch, target):
    """Make ``atomic_write``'s rename onto ``target`` fail, as a kill just before it would."""
    replace = checkpoint.os.replace

    def killed_at_target(src, dst):
        if Path(dst) == target:
            raise OSError("killed before the rename")
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", killed_at_target)


# each writer with the target it replaces; the library writers raise, the commands exit 3
_LIBRARY_WRITERS = ("save_checkpoint", "write_features", "write_captions")
_WRITERS = {
    "save_checkpoint": (lambda d: save_checkpoint(d / "run.ckpt", load_checkpoint(d / "tiny.ckpt")),
                        "run.ckpt"),
    "write_features": (lambda d: write_features(d / "f.bin", [FeatureGrid(0, np.ones((1, 2), np.float32))]),
                       "f.bin"),
    "write_captions": (lambda d: write_captions(d / "refs.jsonl",
                                                generate_synthetic_dataset(seed=1, num_images=2)),
                       "refs.jsonl"),
    "gen-data split.json": (_gen_data, "data/split.json"),
    "gen-data manifest.json": (_gen_data, "data/manifest.json"),
    "caption --out": (lambda d: cli.main([a.format(d) for a in _CAPTION]), "c.jsonl"),
    "evaluate --out": (lambda d: cli.main([a.format(d) for a in _EVALUATE]), "s.json"),
}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_a_crash_before_the_rename_leaves_the_earlier_file_whole(tiny_files, tmp_path, monkeypatch,
                                                                 capsys, writer):
    """A kill between the temporary file's write and its rename, simulated
    by a rename that fails: the target keeps its earlier bytes.  gen-data
    removes its split.json and manifest.json first, so there the target is
    gone and the unfinished dataset is refused."""
    write, target = _WRITERS[writer]
    for name, content in tiny_files.items():
        (tmp_path / name).write_bytes(content)
    (tmp_path / "cands.jsonl").write_text('{"id": 0, "caption": "a red ball"}\n')
    (tmp_path / target).parent.mkdir(exist_ok=True)
    (tmp_path / target).write_bytes(b"earlier\n")
    _kill_the_rename_onto(monkeypatch, tmp_path / target)
    if writer in _LIBRARY_WRITERS:
        with pytest.raises(OSError, match="killed before the rename"):
            write(tmp_path)
    else:
        assert write(tmp_path) == 3
        assert json.loads(capsys.readouterr().err) == {"error": "data",
                                                       "detail": "killed before the rename"}
    if writer.startswith("gen-data"):
        assert not (tmp_path / target).exists()
        with pytest.raises(cli.DataError, match="split.json"):
            cli.load_dataset(tmp_path / "data")
    else:
        assert (tmp_path / target).read_bytes() == b"earlier\n"
    assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
    monkeypatch.undo()
    assert write(tmp_path) in (None, 0)  # the same write with a working rename replaces the file
    assert (tmp_path / target).read_bytes() != b"earlier\n"


def test_a_gen_data_run_that_stops_early_leaves_a_dataset_train_xe_refuses(tmp_path, monkeypatch,
                                                                           capsys):
    data = tmp_path / "data"

    def gen_data(seed):
        return cli.main(["gen-data", write_cfg(tmp_path / "gen.cfg", out_dir=str(data),
                                               **dict(GEN, seed=seed))])

    assert gen_data(1) == 0
    _kill_the_rename_onto(monkeypatch, data / "split.json")
    assert gen_data(2) == 3  # features.bin and captions.jsonl of seed 2 are in place
    monkeypatch.undo()
    capsys.readouterr()
    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=1, data_dir=str(data),
                       out_dir=str(tmp_path / "xe"), steps=1, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 3
    assert "split.json" in json.loads(capsys.readouterr().err)["detail"]
    assert not (tmp_path / "xe").exists()


# each way a command can fail on a file, as argv over a directory that holds
# the regular file "file" and a candidate file; "file/..." cannot be made
_FILE_FAILURES = {
    "gen-data out_dir under a file":
        lambda d, run: ["gen-data", write_cfg(d / "gen.cfg", out_dir=str(d / "file" / "data"), **GEN)],
    "train-xe out_dir under a file":
        lambda d, run: ["train-xe", write_cfg(d / "xe.cfg", seed=7, data_dir=str(run / "data"),
                                              out_dir=str(d / "file" / "xe"), steps=1, **TINY_MODEL)],
    "train-scst out_dir under a file":
        lambda d, run: ["train-scst", write_cfg(d / "scst.cfg", data_dir=str(run / "data"),
                                                out_dir=str(d / "file" / "scst"), steps=1,
                                                batch_size=2, beam_size=2),
                        str(run / "xe" / "last.ckpt")],
    "caption --out under a file":
        lambda d, run: ["caption", str(run / "xe" / "last.ckpt"), str(run / "data" / "features.bin"),
                        "--beam", "2", "--out", str(d / "file" / "c.jsonl")],
    "evaluate --out under a file":
        lambda d, run: ["evaluate", str(d / "cands.jsonl"), str(run / "data" / "captions.jsonl"),
                        "--out", str(d / "file" / "s.json")],
    "train-xe checkpoint fsync ENOSPC":
        lambda d, run: ["train-xe", write_cfg(d / "xe.cfg", seed=7, data_dir=str(run / "data"),
                                              out_dir=str(d / "xe"), steps=1, batch_size=2,
                                              **TINY_MODEL)],
}


@pytest.mark.parametrize("case", list(_FILE_FAILURES))
def test_a_file_that_cannot_be_written_exits_three(overfit_run, tmp_path, capsys, monkeypatch, case):
    (tmp_path / "file").write_text("a regular file\n")
    (tmp_path / "cands.jsonl").write_text('{"id": 0, "caption": "a red ball"}\n')
    argv = _FILE_FAILURES[case](tmp_path, overfit_run)
    if "ENOSPC" in case:
        def full(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(checkpoint.os, "fsync", full)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "data", err
    assert ("No space left" if "ENOSPC" in case else str(tmp_path / "file")) in json.loads(err)["detail"]
    assert not [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]


def test_python_dash_m_meancap_reports_a_file_failure_in_one_json_line(tmp_path):
    (tmp_path / "file").write_text("a regular file\n")
    cfg = write_cfg(tmp_path / "gen.cfg", out_dir=str(tmp_path / "file" / "data"), **GEN)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "meancap", "gen-data", cfg], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert json.loads(proc.stderr)["error"] == "data"


@pytest.mark.parametrize("bad", ["garbage", '{"no_step": 1}', "[1]"])
def test_a_malformed_train_log_exits_three_before_step_one(overfit_run, tmp_path, capsys, bad):
    out = tmp_path / "xe"
    out.mkdir()
    (out / "train_log.jsonl").write_text('{"step": 0}\n' + bad + "\n")
    cfg = write_cfg(tmp_path / "xe.cfg", seed=7, data_dir=str(overfit_run / "data"),
                    out_dir=str(out), steps=1, batch_size=2, **TINY_MODEL)
    assert cli.main(["train-xe", cfg]) == 3
    assert "train_log.jsonl line 2" in json.loads(capsys.readouterr().err)["detail"]
    assert [p.name for p in out.iterdir()] == ["train_log.jsonl"]


def test_a_value_error_inside_a_training_step_is_not_a_data_error(overfit_run, tmp_path,
                                                                  monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a fault inside a step")

    monkeypatch.setattr(tr, "xe_step", broken)
    cfg = write_cfg(tmp_path / "xe.cfg", seed=7, data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "xe"), steps=1, batch_size=2, **TINY_MODEL)
    with pytest.raises(ValueError, match="inside a step"):
        cli.main(["train-xe", cfg])


@pytest.mark.parametrize("edit, message", [
    (lambda tokens: tokens[:4] + tokens[3:4] + tokens[5:], "duplicate token"),
    (lambda tokens: tokens[3:4] + tokens[1:3] + tokens[:1] + tokens[4:], "reserved tokens must open"),
], ids=["duplicate", "reserved"])
def test_caption_of_a_checkpoint_with_a_malformed_vocabulary_exits_three(tiny_files, tmp_path, edit,
                                                                        message):
    (tmp_path / "tiny.ckpt").write_bytes(tiny_files["tiny.ckpt"])
    ckpt = load_checkpoint(tmp_path / "tiny.ckpt")
    ckpt.vocab["tokens"] = edit(ckpt.vocab["tokens"])
    save_checkpoint(tmp_path / "tiny.ckpt", ckpt)  # with a valid checksum
    code, err = _run_cli(dict(tiny_files, **{"tiny.ckpt": (tmp_path / "tiny.ckpt").read_bytes()}),
                         _CAPTION)
    assert code == 3 and message in json.loads(err)["detail"], err

"""Command suite: determinism, the overfit smoke loop, exit codes."""

import json
import shutil

import numpy as np
import pytest

from meancap import cli
from meancap.checkpoint import load_checkpoint, save_checkpoint


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
           noise_sigma=0.02, train_fraction=0.8, val_fraction=0.2, test_fraction=0.0)
TINY_MODEL = dict(vocab_size=120, model_dim=32, feedforward_dim=64, num_heads=4,
                  num_encoder_layers=1, num_decoder_layers=1, num_memory_slots=4,
                  max_length=24)


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
                    train_fraction=0.9, val_fraction=0.9, test_fraction=0.9)
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
    scst_cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(overfit_run / "data"),
                         out_dir=str(tmp_path / "scst"), steps=5, batch_size=4,
                         strategy="all", beam_size=3, learning_rate=1e-4,
                         lambda_kd=0.1, val_every=5, val_beam=3, **TINY_MODEL)
    assert cli.main(["train-scst", scst_cfg, str(overfit_run / "xe" / "last.ckpt")]) == 0
    m = read_manifest(tmp_path / "scst" / "manifest.json")
    assert (m["start_step"], m["end_step"]) == (400, 405)
    assert m["final_validation"] is not None
    ckpt = load_checkpoint(tmp_path / "scst" / "last.ckpt")
    assert ckpt.stage == "scst" and ckpt.extra["stage_start"] == 400


def test_train_scst_rejects_scst_checkpoint_without_stage_start(overfit_run, tmp_path, capsys):
    ckpt = load_checkpoint(overfit_run / "xe" / "last.ckpt")
    ckpt.stage, ckpt.extra = "scst", {}
    path = tmp_path / "scst.ckpt"
    save_checkpoint(path, ckpt)
    cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "scst"), steps=1, **TINY_MODEL)
    assert cli.main(["train-scst", cfg, str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data" and "stage_start" in err["detail"]


def test_train_xe_takes_feature_dim_from_the_data(tmp_path):
    data = tmp_path / "data"
    gen_cfg = write_cfg(tmp_path / "gen.cfg", out_dir=str(data), feature_dim=16, **GEN)
    assert cli.main(["gen-data", gen_cfg]) == 0
    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=3, data_dir=str(data),
                       out_dir=str(tmp_path / "xe"), steps=2, batch_size=4, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg]) == 0
    assert load_checkpoint(tmp_path / "xe" / "last.ckpt").config["feature_dim"] == 16


def test_train_scst_refuses_mismatched_config(overfit_run, tmp_path, capsys):
    wrong = dict(TINY_MODEL, model_dim=16, feedforward_dim=32)
    cfg = write_cfg(tmp_path / "scst.cfg", data_dir=str(overfit_run / "data"),
                    out_dir=str(tmp_path / "scst"), steps=2, **wrong)
    assert cli.main(["train-scst", cfg, str(overfit_run / "xe" / "last.ckpt")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "model_dim" in err["detail"]


def test_caption_rejects_oversized_beam(overfit_run, tmp_path, capsys):
    assert cli.main(["caption", str(overfit_run / "xe" / "last.ckpt"),
                     str(overfit_run / "data" / "features.bin"),
                     "--beam", "4000", "--out", str(tmp_path / "c.jsonl")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


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

    def assert_data_error(argv):
        assert cli.main(argv) == 3, argv
        last_err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(last_err)["error"] == "data"

    for split in ([], {"train": 5, "val": [], "test": []},
                  {"train": [[1]], "val": [], "test": []}, {"train": [1.0], "val": [], "test": []}):
        (no_train / "split.json").write_text(json.dumps(split))
        assert_data_error(["train-xe", xe_cfg])

    cands, refs = tmp_path / "cands.jsonl", tmp_path / "refs.jsonl"
    good_cand, good_ref = '{"id": 1, "caption": "a dog"}', '{"id": 1, "refs": ["a dog"]}'
    for bad in ('{"id": "abc", "caption": "a dog"}', '{"id": null, "caption": "a dog"}', "5",
                '{"id": 1.7, "caption": "a dog"}', '{"id": 1, "caption": 3}'):
        cands.write_text(good_cand + "\n" + bad + "\n")
        refs.write_text(good_ref + "\n")
        assert_data_error(["evaluate", str(cands), str(refs), "--out", str(tmp_path / "s.json")])
    for bad in ('{"id": null, "refs": ["a dog"]}', '{"id": 1, "refs": 5}', "7"):
        cands.write_text(good_cand + "\n")
        refs.write_text(good_ref + "\n" + bad + "\n")
        assert_data_error(["evaluate", str(cands), str(refs), "--out", str(tmp_path / "s.json")])


def test_nan_checkpoint_exits_four(overfit_run, tmp_path, capsys):
    ckpt = load_checkpoint(overfit_run / "xe" / "last.ckpt")
    ckpt.groups["target"]["output.bias"][:] = np.nan
    nan_path = tmp_path / "nan.ckpt"
    save_checkpoint(nan_path, ckpt)
    assert cli.main(["caption", str(nan_path),
                     str(overfit_run / "data" / "features.bin"),
                     "--out", str(tmp_path / "c.jsonl")]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "numeric"


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
    xe("b", 12, resume=str(b / "last.ckpt"))

    for other in (a2, b):
        assert (a / "last.ckpt").read_bytes() == (other / "last.ckpt").read_bytes()
        assert (a / "best.ckpt").read_bytes() == (other / "best.ckpt").read_bytes()
        assert (a / "train_log.jsonl").read_text() == (other / "train_log.jsonl").read_text()


def test_resume_refuses_wrong_stage_or_seed(overfit_run, tmp_path, capsys):
    xe_cfg = write_cfg(tmp_path / "xe.cfg", seed=8, data_dir=str(overfit_run / "data"),
                       out_dir=str(tmp_path / "xe"), steps=401, **TINY_MODEL)
    assert cli.main(["train-xe", xe_cfg,
                     "--resume", str(overfit_run / "xe" / "last.ckpt")]) == 2
    assert "seed" in json.loads(capsys.readouterr().err)["detail"]


def test_config_parser_details(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("seed = 1  # comment\n\nout_dir = plain/path\n")
    cfg = cli.parse_config(p, cli._GEN_DATA_KEYS)
    assert cfg["seed"] == 1 and cfg["out_dir"] == "plain/path"
    assert cfg["num_images"] == 200  # default filled in

    p.write_text("seed = 1\nseed = 2\nout_dir = d\n")
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(p, cli._GEN_DATA_KEYS)

    p.write_text("seed = true\nout_dir = d\n")
    with pytest.raises(cli.ConfigError, match="integer"):
        cli.parse_config(p, cli._GEN_DATA_KEYS)

    p.write_text("seed 1\n")
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config(p, cli._GEN_DATA_KEYS)

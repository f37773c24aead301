"""Operator surface: one binary, five subcommands.

    gen-data    CONFIG                  synthetic features + captions + split
    train-xe    CONFIG [--resume CKPT]  cross-entropy/distillation stage
    train-scst  CONFIG CKPT             self-critical stage from a checkpoint
    caption     CKPT FEATURES --out F   beam-search captions as JSON lines
    evaluate    CANDS REFS --out F      metric bundle as JSON

Every numeric hyperparameter lives in the config file (``key = value``
lines, values in JSON syntax), so the manifest's config snapshot pins a
run completely.  Commands print a machine-readable JSON error on stderr
and exit 2 (config), 3 (data), or 4 (numeric failure).
"""

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as D
from . import metrics
from . import training as tr
from .checkpoint import load_checkpoint
from .decoding import caption_image
from .model import ModelConfig
from .tokenizer import build_vocab, detokenize_ids

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


_REQUIRED = object()

_MODEL_KEYS = {
    "model_dim": (int, 64),
    "feedforward_dim": (int, 256),
    "num_heads": (int, 4),
    "num_encoder_layers": (int, 2),
    "num_decoder_layers": (int, 2),
    "num_memory_slots": (int, 8),
    "dropout_rate": (float, 0.1),
    "max_length": (int, 24),
    "mesh_enabled": (bool, False),
}

_GEN_DATA_KEYS = {
    "seed": (int, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    "num_images": (int, 200),
    "min_objects": (int, 1),
    "max_objects": (int, 4),
    "refs_per_image": (int, 5),
    "grid_size": (int, 9),
    "feature_dim": (int, 32),
    "noise_sigma": (float, 0.05),
    "train_fraction": (float, 0.8),
    "val_fraction": (float, 0.1),
    "test_fraction": (float, 0.1),
}

_TRAIN_XE_KEYS = {
    "seed": (int, _REQUIRED),
    "data_dir": (str, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    "steps": (int, _REQUIRED),
    "vocab_size": (int, 200),
    "batch_size": (int, 16),
    "warmup": (int, 1000),
    "val_every": (int, 0),
    "val_beam": (int, 5),
    "lambda_kd": (float, 0.1),
    "momentum": (float, 0.999),
    **_MODEL_KEYS,
}

_TRAIN_SCST_KEYS = {
    "data_dir": (str, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    "steps": (int, _REQUIRED),
    "vocab_size": (int, 200),
    "batch_size": (int, 8),
    "strategy": (str, "best"),
    "beam_size": (int, 5),
    "learning_rate": (float, 5e-6),
    "lambda_kd": (float, 0.1),
    "val_every": (int, 0),
    "val_beam": (int, 5),
    **_MODEL_KEYS,
}


def parse_config(path, keyspec: dict) -> dict:
    """Read ``key = value`` lines; values use JSON syntax; keys are closed."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keyspec:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        want, _default = keyspec[key]
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # bare strings are fine for str keys
        if want is float and isinstance(parsed, int) and not isinstance(parsed, bool):
            parsed = float(parsed)
        if want is int and isinstance(parsed, bool):
            raise ConfigError(f"{path}:{line_no}: {key} must be an integer")
        if not isinstance(parsed, want):
            raise ConfigError(
                f"{path}:{line_no}: {key} must be {want.__name__}, got {parsed!r}")
        out[key] = parsed
    for key, (_want, default) in keyspec.items():
        if key not in out:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r}")
            out[key] = default
    return out


def _model_config(cfg: dict, vocab_len: int, splits: dict) -> ModelConfig:
    """The run's model; its input width is the width of the dataset's features."""
    feature_dim = splits["train"][0].features.grid.shape[1]
    try:
        return ModelConfig(vocab_size=vocab_len, feature_dim=feature_dim,
                           **{k: cfg[k] for k in _MODEL_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_dataset(data_dir):
    """Reassemble the three splits written by gen-data."""
    base = Path(data_dir)
    try:
        grids = D.read_features(base / "features.bin")
        refs = D.read_captions(base / "captions.jsonl")
        split = json.loads((base / "split.json").read_text())
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load dataset from {data_dir}: {exc}") from exc
    if not isinstance(split, dict):
        raise DataError(f"split.json in {data_dir} must be an object of splits")
    by_id = {g.image_id: g for g in grids}
    out = {}
    for name in ("train", "val", "test"):
        ids = split.get(name)
        if ids is None:
            raise DataError(f"split.json lacks the {name!r} split")
        if not isinstance(ids, list) or not all(D.is_image_id(i) for i in ids):
            raise DataError(f"split {name} in split.json must be a list of integer image ids")
        samples = []
        for i in ids:
            if i not in by_id:
                raise DataError(f"split {name} references image {i} missing from features.bin")
            if i not in refs:
                raise DataError(f"split {name} references image {i} missing from captions.jsonl")
            samples.append(D.CaptionedSample(by_id[i], refs[i]))
        out[name] = samples
    if not out["train"]:
        raise DataError(f"split.json in {data_dir} has no training images")
    return out


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(path, command: str, config: dict, seed, start_step, end_step,
                   checkpoints: dict, final_validation, outputs, started_at: str) -> None:
    """One manifest per run; timestamps live here and nowhere else."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "start_step": start_step,
        "end_step": end_step,
        "checkpoints": checkpoints,
        "final_validation": final_validation,
        "outputs": outputs,
        "started_at": started_at,
        "finished_at": _now(),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    started = _now()
    cfg = parse_config(args.config, _GEN_DATA_KEYS)
    try:
        samples = D.generate_synthetic_dataset(
            seed=cfg["seed"], num_images=cfg["num_images"],
            objects_per_image=(cfg["min_objects"], cfg["max_objects"]),
            refs_per_image=cfg["refs_per_image"], grid_size=cfg["grid_size"],
            feature_dim=cfg["feature_dim"], noise_sigma=cfg["noise_sigma"])
        fractions = (cfg["train_fraction"], cfg["val_fraction"], cfg["test_fraction"])
        train, val, test = D.split_dataset(samples, fractions, cfg["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    D.write_features(out / "features.bin", [s.features for s in samples])
    D.write_captions(out / "captions.jsonl", samples)
    split = {name: [s.features.image_id for s in part]
             for name, part in (("train", train), ("val", val), ("test", test))}
    (out / "split.json").write_text(json.dumps(split, sort_keys=True) + "\n")
    write_manifest(out / "manifest.json", "gen-data", cfg, cfg["seed"], None, None,
                   {}, None,
                   [str(out / n) for n in ("features.bin", "captions.jsonl", "split.json")],
                   started)
    return EXIT_OK


def cmd_train_xe(args) -> int:
    started = _now()
    cfg = parse_config(args.config, _TRAIN_XE_KEYS)
    splits = load_dataset(cfg["data_dir"])
    vocab = build_vocab(D.caption_corpus(), cfg["vocab_size"])
    model_cfg = _model_config(cfg, len(vocab.tokens), splits)
    best = None
    if args.resume:
        try:
            ckpt = load_checkpoint(args.resume)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot load checkpoint {args.resume}: {exc}") from exc
        if ckpt.stage != "xe":
            raise ConfigError(f"--resume expects an xe-stage checkpoint, got stage {ckpt.stage!r}")
        _require_config_match(ckpt.config, model_cfg.to_dict(), args.resume)
        if ckpt.seed != cfg["seed"]:
            raise ConfigError(f"checkpoint seed {ckpt.seed} != config seed {cfg['seed']}")
        state, vocab = tr.state_from_checkpoint(ckpt)
        best = ckpt.best
    else:
        state = tr.TrainState.create(model_cfg, cfg["seed"], momentum=cfg["momentum"],
                                     lambda_kd=cfg["lambda_kd"])
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    start_step = state.step
    loop = tr.LoopConfig(steps=cfg["steps"], batch_size=cfg["batch_size"],
                         warmup=cfg["warmup"], val_every=cfg["val_every"],
                         val_beam=cfg["val_beam"], log_path=str(out / "train_log.jsonl"),
                         ckpt_dir=str(out))
    result = tr.train_xe(state, splits["train"], splits["val"], vocab, loop, best=best)
    checkpoints = {"last": str(out / "last.ckpt")}
    if result["best"] is not None:
        checkpoints["best"] = str(out / "best.ckpt")
    write_manifest(out / "manifest.json", "train-xe", cfg, cfg["seed"], start_step,
                   state.step, checkpoints, result["final_val"],
                   [str(out / "train_log.jsonl")], started)
    return EXIT_OK


def _require_config_match(ckpt_config: dict, want: dict, path) -> None:
    if ckpt_config != want:
        diff = sorted(k for k in set(ckpt_config) | set(want)
                      if ckpt_config.get(k) != want.get(k))
        raise ConfigError(f"checkpoint {path} config disagrees with the given config "
                          f"on: {', '.join(diff)}")


def cmd_train_scst(args) -> int:
    started = _now()
    cfg = parse_config(args.config, _TRAIN_SCST_KEYS)
    splits = load_dataset(cfg["data_dir"])
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    vocab_probe = build_vocab(D.caption_corpus(), cfg["vocab_size"])
    model_cfg = _model_config(cfg, len(vocab_probe.tokens), splits)
    _require_config_match(ckpt.config, model_cfg.to_dict(), args.checkpoint)
    state, vocab = tr.state_from_checkpoint(ckpt)
    try:
        scst = tr.ScstConfig(strategy=cfg["strategy"], beam_size=cfg["beam_size"],
                             learning_rate=cfg["learning_rate"], lambda_kd=cfg["lambda_kd"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ckpt.stage == "xe":
        stage_start = ckpt.step
        tr.prepare_for_scst(state, scst)
        best = None  # XE-stage validation scores are not comparable
    elif ckpt.stage == "scst":
        if "stage_start" not in ckpt.extra:
            raise DataError(f"scst checkpoint {args.checkpoint} lacks extra.stage_start")
        stage_start = int(ckpt.extra["stage_start"])
        state.lambda_kd = scst.lambda_kd
        best = ckpt.best
    else:
        raise ConfigError(f"unknown checkpoint stage {ckpt.stage!r}")
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    start_step = state.step
    loop = tr.LoopConfig(steps=stage_start + cfg["steps"], batch_size=cfg["batch_size"],
                         val_every=cfg["val_every"], val_beam=cfg["val_beam"],
                         log_path=str(out / "train_log.jsonl"), ckpt_dir=str(out))
    result = tr.train_scst(state, splits["train"], splits["val"], vocab, scst, loop,
                           best=best, extra={"stage_start": stage_start})
    checkpoints = {"last": str(out / "last.ckpt")}
    if result["best"] is not None:
        checkpoints["best"] = str(out / "best.ckpt")
    write_manifest(out / "manifest.json", "train-scst", cfg, state.seed, start_step,
                   state.step, checkpoints, result["final_val"],
                   [str(out / "train_log.jsonl")], started)
    return EXIT_OK


def cmd_caption(args) -> int:
    started = _now()
    try:
        ckpt = load_checkpoint(args.checkpoint)
        grids = D.read_features(args.features)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    state, vocab = tr.state_from_checkpoint(ckpt)
    params = state.online if args.model == "online" else state.target
    if args.beam < 1:
        raise ConfigError(f"--beam must be >= 1, got {args.beam}")
    rows = []
    for grid in grids:
        try:
            beam = caption_image(params, state.config, grid.grid, args.beam)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        top = beam[0]
        if not np.isfinite(top.logprob):
            raise tr.TrainingDiverged(state.step, {"image": grid.image_id,
                                                   "logprob": top.logprob})
        rows.append({"id": grid.image_id,
                     "caption": detokenize_ids(top.ids, vocab),
                     "logprob": top.logprob})
    out = Path(args.out)
    with open(out, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    write_manifest(str(out) + ".manifest.json", "caption",
                   {"checkpoint": args.checkpoint, "features": args.features,
                    "model": args.model, "beam": args.beam},
                   state.seed, state.step, state.step, {"source": args.checkpoint},
                   None, [str(out)], started)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = _now()
    try:
        refs = D.read_captions(args.references)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    candidates, references = [], []
    try:
        with open(args.candidates) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(str(exc)) from exc
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.candidates}:{line_no}: not valid JSON: {exc}") from exc
        if (not isinstance(row, dict) or not D.is_image_id(row.get("id"))
                or not isinstance(row.get("caption"), str)):
            raise DataError(f"{args.candidates}:{line_no}: needs an object with an integer id "
                            f"and a caption string")
        image_id = row["id"]
        if image_id not in refs:
            raise DataError(f"{args.candidates}:{line_no}: image {image_id} has no references")
        candidates.append(row["caption"])
        references.append(refs[image_id])
    if not candidates:
        raise DataError(f"{args.candidates}: no candidate captions")
    scores = metrics.evaluate_all(candidates, references)
    scores["num_images"] = len(candidates)
    out = Path(args.out)
    out.write_text(json.dumps(scores, indent=2, sort_keys=True) + "\n")
    write_manifest(str(out) + ".manifest.json", "evaluate",
                   {"candidates": args.candidates, "references": args.references},
                   None, None, None, {}, scores, [str(out)], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="meancap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("config")
    g.set_defaults(func=cmd_gen_data)

    x = sub.add_parser("train-xe", help="cross-entropy + distillation stage")
    x.add_argument("config")
    x.add_argument("--resume", default=None, metavar="CKPT")
    x.set_defaults(func=cmd_train_xe)

    s = sub.add_parser("train-scst", help="self-critical stage from a checkpoint")
    s.add_argument("config")
    s.add_argument("checkpoint")
    s.set_defaults(func=cmd_train_scst)

    c = sub.add_parser("caption", help="beam-search captions for a feature file")
    c.add_argument("checkpoint")
    c.add_argument("features")
    c.add_argument("--model", choices=("online", "target"), default="target")
    c.add_argument("--beam", type=int, default=5)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_caption)

    e = sub.add_parser("evaluate", help="score candidate captions against references")
    e.add_argument("candidates")
    e.add_argument("references")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(json.dumps({"error": "data", "detail": str(exc)}), file=sys.stderr)
        return EXIT_DATA
    except tr.TrainingDiverged as exc:
        print(json.dumps({"error": "numeric", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

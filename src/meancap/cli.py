"""Operator surface: one binary, five subcommands.

    gen-data    CONFIG                  synthetic features + captions + split
    train-xe    CONFIG [--resume CKPT]  cross-entropy/distillation stage
    train-scst  CONFIG CKPT             self-critical stage from a checkpoint
    caption     CKPT FEATURES --out F   beam-search captions as JSON lines
    evaluate    CANDS REFS --out F      metric bundle as JSON

Every numeric hyperparameter lives in the config file (``key = value``
lines, values in JSON syntax), but train-scst takes the model and its
vocabulary from its checkpoint: a manifest's config snapshot and the
checkpoint it names as source pin a run completely.  A training key named
after a field of ``ModelConfig``, ``LoopConfig``, ``ScstConfig`` or
``TrainState``, and a gen-data key named after a parameter of
``generate_synthetic_dataset`` or ``split_dataset``, takes its type and
default from there.  Commands print a machine-readable JSON error on stderr
and exit 2 (config), 3 (data), or 4 (numeric failure).
"""

import argparse
import inspect
import json
import math
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data as D
from . import metrics
from . import training as tr
from .checkpoint import atomic_write, json_is, load_checkpoint
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


def _field_keys(fn, *names) -> dict:
    """Keys for the named parameters of a library function or class (all if
    none are named), typed and defaulted by them; one without a default is required."""
    return {p.name: (p.annotation, _REQUIRED if p.default is p.empty else p.default)
            for p in inspect.signature(fn).parameters.values() if not names or p.name in names}


def _fields_of(fn, cfg: dict) -> dict:
    """The parsed keys that name parameters of a library function or class."""
    return {name: cfg[name] for name in inspect.signature(fn).parameters if name in cfg}


# the vocabulary comes from the caption grammar, the feature width from the data
_MODEL_KEYS = {k: spec for k, spec in _field_keys(ModelConfig).items()
               if k not in ("vocab_size", "feature_dim")}

_GEN_DATA_KEYS = {
    **_field_keys(D.generate_synthetic_dataset),  # its seed, required, also cuts the split
    **_field_keys(D.split_dataset, "train_fraction", "val_fraction"),
    "out_dir": (str, _REQUIRED),
}

_TRAIN_XE_KEYS = {
    "seed": (int, _REQUIRED),
    "data_dir": (str, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    **_field_keys(tr.LoopConfig, "steps", "batch_size", "warmup", "val_every", "val_beam"),
    **_field_keys(tr.TrainState, "momentum", "lambda_kd"),
    **_MODEL_KEYS,
}

# steps count from the stage start; the learning rate is constant
_TRAIN_SCST_KEYS = {
    "data_dir": (str, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    **_field_keys(tr.LoopConfig, "steps", "val_every", "val_beam"),
    "batch_size": (int, 8),  # each image costs two beam searches a step
    **_field_keys(tr.ScstConfig),
}


def parse_config(path, keyspec: dict) -> dict:
    """Read ``key = value`` lines with closed keys: a value is one JSON value and
    an optional ``#`` comment, or else a bare word up to the first ``#``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        if not raw.split("#", 1)[0].strip():
            continue
        key, eq, value = raw.partition("=")
        if "#" in key or not eq:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in keyspec:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        want, _default = keyspec[key]
        try:
            parsed, end = json.JSONDecoder().raw_decode(value)
        except ValueError:  # not JSON, or an integer too long to convert
            end = None
        except RecursionError:
            raise ConfigError(f"{path}:{line_no}: {key} nests too deeply") from None
        if end is None or value[end:].lstrip()[:1] not in ("", "#"):
            parsed = value.split("#", 1)[0].strip()  # bare strings are fine for str keys
        if not json_is(parsed, want):
            if want is int and isinstance(parsed, bool):
                raise ConfigError(f"{path}:{line_no}: {key} must be an integer")
            raise ConfigError(f"{path}:{line_no}: {key} must be {want.__name__}, got {parsed!r}")
        if want is float and isinstance(parsed, int):
            parsed = float(str(parsed))  # past the float range: inf, not OverflowError
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(f"{path}:{line_no}: {key} must be finite, got {parsed}")
        out[key] = parsed
    for key, (_want, default) in keyspec.items():
        if key not in out:
            if default is _REQUIRED:
                raise ConfigError(f"{path}: missing required key {key!r}")
            out[key] = default
    return out


@contextmanager
def _config_values():
    """The library rejects out-of-range values with ValueError; here that is a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@contextmanager
def _reading(what=""):
    """A file that cannot be read, or that its reader refuses, is a data error."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"{what}{exc}") from exc


def _load(path):
    """(checkpoint, state, vocabulary) from a checkpoint file."""
    with _reading(f"cannot load checkpoint {path}: "):
        ckpt = load_checkpoint(path)
        return (ckpt, *tr.state_from_checkpoint(ckpt))


def _open_out(path):
    """--out's ``atomic_write``, its directory made, to enter before the work
    that fills it; it replaces --out only if the work succeeds."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if Path(path).is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    return atomic_write(path, "w")


def load_dataset(data_dir):
    """Reassemble the three splits written by gen-data."""
    base = Path(data_dir)
    with _reading(f"cannot load dataset from {data_dir}: "):
        grids = D.read_features(base / "features.bin")
        refs = D.read_captions(base / "captions.jsonl")
    with _reading(f"cannot load dataset from {data_dir}: split.json: "):
        split = json.loads((base / "split.json").read_text(encoding="utf-8"))
    if not isinstance(split, dict):
        raise DataError(f"split.json in {data_dir} must be an object of splits")
    by_id = {g.image_id: g for g in grids}
    out = {}
    for name in ("train", "val", "test"):
        ids = split.get(name)
        if ids is None:
            raise DataError(f"split.json lacks the {name!r} split")
        if not isinstance(ids, list) or not all(json_is(i, int) for i in ids):
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


def _check_spelled(samples, vocab) -> None:
    """A training reference word the vocabulary cannot spell fails before step 1."""
    for s in samples:
        for word in (w for ref in s.references for w in ref.split()):
            try:
                vocab.word_ids(word)
            except KeyError:
                raise DataError(f"image {s.features.image_id}: {word!r} is not in the vocabulary")


def _check_width(data, grid, ckpt_path, config: ModelConfig) -> None:
    """Features of a width the checkpoint's model does not take are a data error."""
    if grid.shape[1] != config.feature_dim:
        raise DataError(f"{data} has {grid.shape[1]}-wide features; "
                        f"checkpoint {ckpt_path} takes {config.feature_dim}")


def _check_beam(name: str, k: int, config: ModelConfig) -> None:
    """A beam keeps 1 to vocabulary-size hypotheses: the first step has no more."""
    if not 1 <= k <= config.vocab_size:
        raise ConfigError(f"{name} {k} must lie in 1..{config.vocab_size}, the vocabulary size")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _blas() -> dict:
    """Name and version of the BLAS numpy was built with, None where unknown."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def write_manifest(path, command: str, config: dict, seed, start_step, end_step,
                   checkpoints: dict, final_validation, outputs, started_at: str) -> None:
    """One manifest per run; timestamps live here and nowhere else.  The numpy
    and BLAS builds are recorded too: float results may differ between them."""
    manifest = {
        "numpy": np.__version__,
        "blas": _blas(),
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
    with atomic_write(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    started = _now()
    cfg = parse_config(args.config, _GEN_DATA_KEYS)
    out = Path(cfg["out_dir"])
    with _config_values():
        samples = D.generate_synthetic_dataset(**_fields_of(D.generate_synthetic_dataset, cfg))
        train, val, test = D.split_dataset(samples, **_fields_of(D.split_dataset, cfg))
        out.mkdir(parents=True, exist_ok=True)
        # split.json goes last, so a directory that has one holds a whole generation
        for name in ("split.json", "manifest.json"):
            (out / name).unlink(missing_ok=True)
        D.write_features(out / "features.bin", [s.features for s in samples])
    D.write_captions(out / "captions.jsonl", samples)
    write_manifest(out / "manifest.json", "gen-data", cfg, cfg["seed"], None, None,
                   {}, None,
                   [str(out / n) for n in ("features.bin", "captions.jsonl", "split.json")],
                   started)
    split = {name: [s.features.image_id for s in part]
             for name, part in (("train", train), ("val", val), ("test", test))}
    with atomic_write(out / "split.json", "w") as fh:
        fh.write(json.dumps(split, sort_keys=True) + "\n")
    return EXIT_OK


def _train_stage(command: str, cfg: dict, state, started: str, splits, train, source=None,
                 stage_start=0) -> int:
    """The tail both training commands share: the loop, the run, the manifest."""
    out = Path(cfg["out_dir"])
    with _config_values():
        loop = tr.LoopConfig(**_fields_of(tr.LoopConfig, cfg),
                             log_path=str(out / "train_log.jsonl"), ckpt_dir=str(out))
    loop.steps += stage_start  # the config's steps count from the stage start
    _check_beam("val_beam", loop.val_beam, state.config)
    if loop.val_every and not splits["val"]:
        raise ConfigError(f"val_every {loop.val_every} asks for validation; the val split is empty")
    out.mkdir(parents=True, exist_ok=True)
    with _reading():  # a log left in out_dir is read before step 1; later ValueErrors are faults
        tr.open_log(loop.log_path, state.step).close()
    start_step = state.step
    result = train(loop)
    checkpoints = {"last": str(out / "last.ckpt")}
    if result["best"] is not None:
        checkpoints["best"] = str(out / "best.ckpt")
    if source is not None:
        checkpoints["source"] = source
    write_manifest(out / "manifest.json", command, cfg, state.seed, start_step,
                   state.step, checkpoints, result["final_val"], [loop.log_path], started)
    return EXIT_OK


def cmd_train_xe(args) -> int:
    started = _now()
    cfg = parse_config(args.config, _TRAIN_XE_KEYS)
    splits = load_dataset(cfg["data_dir"])
    grid = splits["train"][0].features.grid
    vocab = build_vocab(D.caption_corpus())
    best = None
    if args.resume:
        ckpt, state, ckpt_vocab = _load(args.resume)
        if ckpt.stage != "xe":
            raise ConfigError(f"--resume expects an xe-stage checkpoint, got stage {ckpt.stage!r}")
        _check_width(cfg["data_dir"], grid, args.resume, state.config)
        # the model and state come from the checkpoint, so every key the
        # config can set, and the vocabulary, must match it
        held = {**{k: getattr(state.config, k) for k in _MODEL_KEYS},
                **{k: getattr(state, k) for k in ("momentum", "lambda_kd", "seed")}}
        diff = [f"{k} (checkpoint {v}, config {cfg[k]})" for k, v in held.items() if v != cfg[k]]
        if ckpt_vocab != vocab:
            diff.append(f"the vocabulary (checkpoint {len(ckpt_vocab)} tokens, "
                        f"the caption grammar's {len(vocab)})")
        if diff:
            raise ConfigError(f"checkpoint {args.resume} disagrees with the config on: "
                              + ", ".join(diff))
        best = ckpt.best
    else:
        with _config_values():
            # the model's input width is the width of the dataset's features
            model_cfg = ModelConfig(vocab_size=len(vocab.tokens), feature_dim=grid.shape[1],
                                    **{k: cfg[k] for k in _MODEL_KEYS})
            state = tr.TrainState.create(model_cfg, **_fields_of(tr.TrainState, cfg))
    _check_spelled(splits["train"], vocab)
    return _train_stage(
        "train-xe", cfg, state, started, splits,
        lambda loop: tr.train_xe(state, splits["train"], splits["val"], vocab, loop, best=best),
        source=args.resume)


def cmd_train_scst(args) -> int:
    """The model, vocabulary included, comes from the checkpoint; the config
    holds only the stage's own keys."""
    started = _now()
    cfg = parse_config(args.config, _TRAIN_SCST_KEYS)
    splits = load_dataset(cfg["data_dir"])
    ckpt, state, vocab = _load(args.checkpoint)
    _check_spelled(splits["train"], vocab)
    _check_width(cfg["data_dir"], splits["train"][0].features.grid, args.checkpoint, state.config)
    with _config_values():
        scst = tr.ScstConfig(**_fields_of(tr.ScstConfig, cfg))
    _check_beam("beam_size", scst.beam_size, state.config)
    if ckpt.stage == "xe":
        tr.prepare_for_scst(state, scst)
        best = None  # XE-stage validation scores are not comparable
    else:
        best = ckpt.best
    stage_start = state.step - state.adam_t  # see prepare_for_scst
    return _train_stage(
        "train-scst", cfg, state, started, splits,
        lambda loop: tr.train_scst(state, splits["train"], splits["val"], vocab, scst, loop,
                                   best=best),
        source=args.checkpoint, stage_start=stage_start)


def cmd_caption(args) -> int:
    started = _now()
    _ckpt, state, vocab = _load(args.checkpoint)
    with _reading():
        grids = D.read_features(args.features)
    _check_width(args.features, grids[0].grid, args.checkpoint, state.config)
    _check_beam("--beam", args.beam, state.config)
    params = state.online if args.model == "online" else state.target
    with _open_out(args.out) as fh:
        for grid in grids:
            top = caption_image(params, state.config, grid.grid, args.beam)[0]
            if not np.isfinite(top.logprob):
                raise tr.TrainingDiverged(state.step, {"image": grid.image_id,
                                                       "logprob": top.logprob})
            fh.write(json.dumps({"id": grid.image_id, "caption": detokenize_ids(top.ids, vocab),
                                 "logprob": top.logprob}, sort_keys=True) + "\n")
    write_manifest(args.out + ".manifest.json", "caption",
                   {"checkpoint": args.checkpoint, "features": args.features,
                    "model": args.model, "beam": args.beam},
                   state.seed, state.step, state.step, {"source": args.checkpoint},
                   None, [args.out], started)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = _now()
    candidates, references = [], []
    with _reading():  # a UnicodeError is a ValueError
        refs = D.read_captions(args.references)
        for line_no, image_id, caption in D.read_id_lines(args.candidates, "caption", str):
            if image_id not in refs:
                raise DataError(f"{args.candidates} line {line_no}: image {image_id} has no references")
            candidates.append(caption)
            references.append(refs[image_id])
    if not candidates:
        raise DataError(f"{args.candidates}: no candidate captions")
    with _open_out(args.out) as fh:
        scores = metrics.evaluate_all(candidates, references)
        scores["num_images"] = len(candidates)
        fh.write(json.dumps(scores, indent=2, sort_keys=True) + "\n")
    write_manifest(args.out + ".manifest.json", "evaluate",
                   {"candidates": args.candidates, "references": args.references},
                   None, None, None, {}, scores, [args.out], started)
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
    except (DataError, OSError) as exc:  # a file that cannot be read or written is bad data
        print(json.dumps({"error": "data", "detail": str(exc)}), file=sys.stderr)
        return EXIT_DATA
    except tr.TrainingDiverged as exc:
        print(json.dumps({"error": "numeric", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

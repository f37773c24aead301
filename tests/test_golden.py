"""The pipeline's bits, pinned: gen-data, train-xe, train-scst, caption and
evaluate run through ``cli.main`` on a tiny configuration, and each
artifact's sha256 must equal the one in ``golden/pipeline.sha256``.

The pipeline runs in a process of its own with ``OPENBLAS_CORETYPE`` set to
``CORE``, since float results differ between OpenBLAS kernels: the bits are
those of one kernel that every AVX2 or AVX-512 x86-64 host can run, not of
the kernel OpenBLAS would pick for the host.  A host that cannot run it
fails, and the failure names the kernel.  The rest of the suite runs on the
host's own kernel.

The listing has the form ``demos/cli_walkthrough.sh`` prints: one
``sha256  relative/path`` line per artifact, sorted by path, manifests and
configs left out.  Its header records the OpenBLAS kernel and the numpy and
BLAS builds it was made with, since float results may differ between them;
a failure compares them first.  A change that moves any bit of training or
decoding fails here; when the move is intended, rewrite the listing and name
the artifacts that changed, which the rewrite prints as a diff against the
committed listing:

    PYTHONPATH=src python3 tests/test_golden.py

and size each change against another tree's ``src`` directory, which runs the
pipeline once per tree, each in its own process under ``CORE``, and prints a
report per artifact (it rewrites nothing):

    PYTHONPATH=src python3 tests/test_golden.py --against OTHER_SRC
"""

import argparse
import ctypes
import difflib
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from meancap import cli
from meancap.checkpoint import Checkpoint, load_checkpoint, save_checkpoint

GOLDEN = Path(__file__).parent / "golden" / "pipeline.sha256"
SRC = Path(cli.__file__).resolve().parents[1]  # the tree under test
# the OpenBLAS kernel the pipeline runs on; OpenBLAS also maps Zen to it
CORE = "Haswell"

MODEL = dict(model_dim=16, feedforward_dim=32, num_heads=2, num_encoder_layers=2,
             num_decoder_layers=2, num_memory_slots=2, max_length=20)


def _cfg(path: Path, **kv) -> str:
    path.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in kv.items()))
    return str(path)


def run_pipeline(work: Path) -> str:
    """Run the five commands under ``work``; returns the artifact listing."""
    data, caps, scores = work / "data", work / "captions.jsonl", work / "scores.json"
    runs = [
        ["gen-data", _cfg(work / "data.cfg", seed=5, out_dir=str(data), num_images=16,
                          max_objects=2, refs_per_image=3, grid_size=3, feature_dim=8)],
        # the mesh, distillation and dropout all on, and one validation
        ["train-xe", _cfg(work / "xe.cfg", seed=5, data_dir=str(data), out_dir=str(work / "xe"),
                          steps=150, batch_size=8, warmup=40, val_every=150, val_beam=2,
                          mesh_enabled=True, lambda_kd=0.1, dropout_rate=0.1, momentum=0.9,
                          **MODEL)],
        ["train-scst", _cfg(work / "scst.cfg", data_dir=str(data), out_dir=str(work / "scst"),
                            steps=4, batch_size=3, strategy="hungarian_all", beam_size=3,
                            learning_rate=1e-4),
         str(work / "xe" / "last.ckpt")],
        ["caption", str(work / "scst" / "last.ckpt"), str(data / "features.bin"),
         "--beam", "3", "--out", str(caps)],
        ["evaluate", str(caps), str(data / "captions.jsonl"), "--out", str(scores)],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return "".join(f"{hashlib.sha256((work / n).read_bytes()).hexdigest()}  {n}\n"
                   for n in artifacts(work))


def artifacts(work: Path) -> list:
    """The listed artifacts' paths relative to ``work``, sorted."""
    return sorted(p.relative_to(work).as_posix() for p in work.rglob("*")
                  if p.is_file() and not p.name.endswith("manifest.json") and p.suffix != ".cfg")


def openblas_core():
    """The kernel OpenBLAS picked for this CPU, read from the library bundled
    with numpy; None where that lookup fails."""
    try:
        (lib,) = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
        corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):  # no such library, or no such symbol
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def builds() -> str:
    return (f"# openblas core {openblas_core()}\n# numpy {np.__version__}\n"
            f"# blas {json.dumps(cli._blas(), sort_keys=True)}\n")


def _split(listing: str) -> tuple:
    """The header lines and the artifact lines of a listing."""
    lines = listing.splitlines(keepends=True)
    return ([line for line in lines if line.startswith("#")],
            [line for line in lines if not line.startswith("#")])


def test_pipeline_artifacts_match_the_golden_listing(tmp_path):
    (header, want), (builds_now, got) = _split(GOLDEN.read_text()), _split(run_tree(SRC, tmp_path))
    assert got == want, (
        f"artifact bits differ from {GOLDEN.name}.\n"
        + "".join(f"recorded {old}this run {new}" for old, new in zip(header, builds_now))
        + "".join(difflib.unified_diff(want, got, "recorded", "this run")))


def test_the_bit_change_report_sizes_each_artifact(tmp_path):
    for side, bump in (("old", 0.0), ("new", 0.5)):
        work = tmp_path / side
        (work / "xe").mkdir(parents=True)
        (work / "data").mkdir()
        online = np.array([1.0, 2.0, 4.0 + bump], np.float32)
        save_checkpoint(work / "xe" / "last.ckpt", Checkpoint(
            config={}, vocab={}, step=2, adam_t=2, seed=0, stage="xe", momentum=0.9, lambda_kd=0.1,
            groups={"online": {"w": online}, "target": {"w": np.ones(3, np.float32)}}))
        records = [{"step": 1, "xe_loss": 1.0}, {"step": 2, "xe_loss": 2.0 + bump},
                   {"event": "val", "step": 2, "val_cider_online": 0.25 + bump}]
        (work / "xe" / "train_log.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (work / "captions.jsonl").write_text(
            json.dumps({"caption": "a", "id": 0, "logprob": -1.0 - bump}) + "\n")
        (work / "scores.json").write_text(json.dumps({"BLEU-1": 0.5, "CIDEr-D": 1.0 + bump}))
        (work / "data" / "split.json").write_text("{}")
    assert compare(tmp_path / "old", tmp_path / "new").splitlines() == [
        "captions.jsonl: changed",
        "  only logprobs changed",
        "  logprobs: 1 of 1 values differ, max |d| 0.5, max rel 0.333",
        "data/split.json: unchanged",
        "scores.json: changed",
        "  CIDEr-D: 1.0 -> 1.5 (+0.5)",
        "xe/last.ckpt: changed",
        "  group online: 1 of 3 values differ, max |d| 0.5, max rel 0.111",
        "  group target: equal",
        "xe/train_log.jsonl: changed",
        "  val_cider_online: 1 of 3 records differ, steps 2..2, max |d| 0.5",
        "  xe_loss: 1 of 3 records differ, steps 2..2, max |d| 0.5",
    ]


def test_against_names_what_a_one_ulp_momentum_change_moves(tmp_path):
    """``--against`` a copy of this tree whose EMA momentum is one float32 ulp
    higher (the target's parameters are float32): every trained artifact
    changes, the data does not."""
    other = tmp_path / "src"
    shutil.copytree(SRC, other, ignore=shutil.ignore_patterns("__pycache__"))
    training = other / "meancap" / "training.py"
    text = training.read_text()
    snippet = "t_p.data = momentum * t_p.data + (1.0 - momentum) * online[name].data"
    assert text.count(snippet) == 1
    training.write_text(text.replace(snippet, (
        "m = np.nextafter(momentum, 1.0, dtype=t_p.data.dtype)\n"
        "            t_p.data = m * t_p.data + (1.0 - m) * online[name].data")))
    run = subprocess.run([sys.executable, __file__, "--against", str(other)], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert run.returncode == 0, run.stderr
    status = dict(line.split(": ") for line in run.stdout.splitlines() if not line.startswith(" "))
    assert status == {name: "unchanged" if name.startswith("data/") else "changed"
                      for name in ("captions.jsonl", "data/captions.jsonl", "data/features.bin",
                                   "data/split.json", "scores.json", "scst/last.ckpt",
                                   "scst/train_log.jsonl", "xe/best.ckpt", "xe/last.ckpt",
                                   "xe/train_log.jsonl")}, run.stdout
    # and each change is sized on the lines under its name
    assert re.findall(r"^(\S+): changed\n  \S", run.stdout, re.M) == [
        name for name, how in status.items() if how == "changed"]


# -- the bit-change report ----------------------------------------------------


def run_tree(src: Path, work: Path) -> str:
    """Run the pipeline under ``work`` in a new process that imports meancap
    from ``src`` and runs OpenBLAS on ``CORE``; returns the builds header and
    the artifact listing."""
    code = ("import sys, pathlib, test_golden; sys.stdout.write(test_golden.builds()"
            " + test_golden.run_pipeline(pathlib.Path(sys.argv[1])))")
    path = os.pathsep.join([str(src.resolve()), str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-c", code, str(work)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=CORE))
    assert run.returncode == 0, (f"the pipeline under OpenBLAS core {CORE} exited "
                                 f"{run.returncode}:\n{run.stderr}")
    core = run.stdout.partition("\n")[0]
    assert core == f"# openblas core {CORE}", f"this host did not run OpenBLAS core {CORE}: {core}"
    return run.stdout


def _sizes(old: np.ndarray, new: np.ndarray) -> str:
    """How many values differ, and the largest absolute and relative difference."""
    old, new = old.astype(np.float64), new.astype(np.float64)
    differ = old != new
    if not differ.any():
        return "equal"
    gap = np.abs(old - new)[differ]
    rel = gap / np.maximum(np.abs(old), np.abs(new))[differ]
    return (f"{differ.sum():,} of {differ.size:,} values differ, "
            f"max |d| {gap.max():.3g}, max rel {rel.max():.3g}")


def _checkpoint(old: Path, new: Path) -> list:
    a, b = load_checkpoint(old), load_checkpoint(new)
    lines = [f"header {f.name}: {getattr(a, f.name)} -> {getattr(b, f.name)}"
             for f in fields(Checkpoint)
             if f.name != "groups" and getattr(a, f.name) != getattr(b, f.name)]
    for group in sorted(a.groups.keys() | b.groups.keys()):
        x, y = a.groups.get(group, {}), b.groups.get(group, {})
        if {n: v.shape for n, v in x.items()} != {n: v.shape for n, v in y.items()}:
            lines.append(f"group {group}: parameter names or shapes differ")
            continue
        flat = [np.concatenate([v[n].ravel() for n in sorted(v)]) for v in (x, y)]
        lines.append(f"group {group}: {_sizes(*flat)}")
    return lines


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()]


def _log(old: Path, new: Path) -> list:
    # a validation record shares its step with a training record
    a, b = ({(r["step"], "event" in r): r for r in _jsonl(path)} for path in (old, new))
    lines = [f"{len(a.keys() ^ b.keys())} records in one log only"] if a.keys() != b.keys() else []
    both = sorted(a.keys() & b.keys())
    for name in sorted({f for k in both for r in (a[k], b[k]) for f in r}):
        steps = [k[0] for k in both if a[k].get(name) != b[k].get(name)]
        if not steps:
            continue
        gaps = [abs(a[k][name] - b[k][name]) for k in both
                if isinstance(a[k].get(name), float) and isinstance(b[k].get(name), float)]
        size = f", max |d| {max(gaps):.3g}" if gaps else ""
        lines.append(f"{name}: {len(steps)} of {len(both)} records differ, "
                     f"steps {steps[0]}..{steps[-1]}{size}")
    return lines


def _captions(old: Path, new: Path) -> list:
    a, b = ({r["id"]: r for r in _jsonl(path)} for path in (old, new))
    if a.keys() != b.keys():
        return ["the captioned image ids differ"]
    ids = sorted(a)
    text = sum(a[i]["caption"] != b[i]["caption"] for i in ids)
    logprob = np.array([[a[i]["logprob"], b[i]["logprob"]] for i in ids]).T
    return [f"text changed for {text} of {len(ids)} images" if text else "only logprobs changed",
            f"logprobs: {_sizes(*logprob)}"]


def _scores(old: Path, new: Path) -> list:
    a, b = (json.loads(path.read_text("utf-8")) for path in (old, new))
    return [f"{m}: {a.get(m)} -> {b.get(m)}" + (f" ({b[m] - a[m]:+.3g})" if m in a and m in b else "")
            for m in sorted(a.keys() | b.keys()) if a.get(m) != b.get(m)]


def compare(old: Path, new: Path) -> str:
    """A report per artifact of the pipeline run under ``new`` against the one under ``old``."""
    out = []
    for name in sorted(set(artifacts(old)) | set(artifacts(new))):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            out.append(f"{name}: only in the {'other' if a.exists() else 'this'} tree\n")
            continue
        if a.read_bytes() == b.read_bytes():
            out.append(f"{name}: unchanged\n")
            continue
        sizer = (_checkpoint if a.suffix == ".ckpt" else _log if a.name == "train_log.jsonl"
                 else _captions if name == "captions.jsonl" else _scores if name == "scores.json"
                 else None)
        out.append(f"{name}: changed\n")
        out.extend(f"  {line}\n" for line in (sizer(a, b) if sizer else ["bytes differ"]))
    return "".join(out)


def report(other_src: Path) -> str:
    with tempfile.TemporaryDirectory() as d:
        old, new = Path(d, "other"), Path(d, "this")
        for src, work in ((other_src, old), (SRC, new)):
            work.mkdir()
            run_tree(src, work)
        return compare(old, new)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="OTHER_SRC",
                        help="report how this tree's artifacts differ from OTHER_SRC's")
    args = parser.parse_args()
    if args.against:
        sys.stdout.write(report(args.against))
        sys.exit(0)
    with tempfile.TemporaryDirectory() as d:
        listing = run_tree(SRC, Path(d))
    recorded = GOLDEN.read_text() if GOLDEN.exists() else ""
    diff = list(difflib.unified_diff(recorded.splitlines(keepends=True),
                                     listing.splitlines(keepends=True), "recorded", "this run", n=0))
    sys.stdout.writelines(diff or [f"{GOLDEN.name} unchanged\n"])
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(listing)

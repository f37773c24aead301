"""The pipeline's bits, pinned: gen-data, train-xe, train-scst, caption and
evaluate run in process through ``cli.main`` on a tiny configuration, and
each artifact's sha256 must equal the one in ``golden/pipeline.sha256``.

The listing has the form ``demos/cli_walkthrough.sh`` prints: one
``sha256  relative/path`` line per artifact, sorted by path, manifests and
configs left out.  Its header records the OpenBLAS kernel picked at run time
and the numpy and BLAS builds it was made with, since float results may
differ between them; a failure compares the kernel first.  A change that moves
any bit of training or decoding fails here; when the move is intended,
rewrite the listing and name the artifacts that changed, which the rewrite
prints as a diff against the committed listing:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import ctypes
import difflib
import glob
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from meancap import cli

GOLDEN = Path(__file__).parent / "golden" / "pipeline.sha256"

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
                          vocab_size=60, steps=150, batch_size=8, warmup=40, val_every=150,
                          val_beam=2, mesh_enabled=True, lambda_kd=0.1, dropout_rate=0.1,
                          momentum=0.9, **MODEL)],
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
    names = sorted(p.relative_to(work).as_posix() for p in work.rglob("*")
                   if p.is_file() and not p.name.endswith("manifest.json") and p.suffix != ".cfg")
    return "".join(f"{hashlib.sha256((work / n).read_bytes()).hexdigest()}  {n}\n"
                   for n in names)


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


def test_pipeline_artifacts_match_the_golden_listing(tmp_path):
    recorded = GOLDEN.read_text().splitlines(keepends=True)
    header = [line for line in recorded if line.startswith("#")]
    want = [line for line in recorded if not line.startswith("#")]
    got = run_pipeline(tmp_path).splitlines(keepends=True)
    # the kernel first: under another kernel the builds read the same
    assert got == want, (
        f"artifact bits differ from {GOLDEN.name}.\n"
        + "".join(f"recorded {old}this run {new}"
                  for old, new in zip(header, builds().splitlines(keepends=True)))
        + "".join(difflib.unified_diff(want, got, "recorded", "this run")))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        listing = builds() + run_pipeline(Path(d))
    recorded = GOLDEN.read_text() if GOLDEN.exists() else ""
    diff = list(difflib.unified_diff(recorded.splitlines(keepends=True),
                                     listing.splitlines(keepends=True), "recorded", "this run", n=0))
    sys.stdout.writelines(diff or [f"{GOLDEN.name} unchanged\n"])
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(listing)

"""The demos run to completion: a renamed option or config key that breaks
one fails here, not in a reader's terminal."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    [sys.executable, "demos/quickstart.py"],
    [sys.executable, "demos/pairing_strategies.py"],
    ["bash", "demos/cli_walkthrough.sh"],
], ids=lambda argv: Path(argv[1]).name)
def test_demo_runs(argv, tmp_path):
    if argv[0] == "bash":
        argv = argv + [str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

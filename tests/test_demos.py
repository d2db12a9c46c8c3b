"""Every demo script, and every ``python`` block of the README, runs to
completion against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    run_python(["-c", block], tmp_path)

"""The README's library quick start runs as written."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_finite_values():
    # a fresh process, so the block's own imports are what it runs on
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", quick_start_block()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    # v(0, 0), the thresholds of rungs 0..32 (wrapped), the mean and its SE
    lines = run.stdout.splitlines()
    values = [float(tok) for tok in re.findall(r"[^\s\[\],]+", run.stdout)]
    assert len(lines[0].split()) == 1 and len(lines[-1].split()) == 2
    assert len(values) == 1 + 33 + 2
    assert all(math.isfinite(x) for x in values)

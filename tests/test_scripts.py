"""The example scripts and the README quick start run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _python(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    res = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def _run(script: str, *args: str) -> str:
    return _python(str(ROOT / "scripts" / script), *args)


def test_kernel_gallery(tmp_path):
    out = tmp_path / "gallery.dat"
    text = _run("kernel_gallery.py", "--frequencies", "3,-3", "--out", str(out))
    assert "cardinal residual" in text
    cols = np.loadtxt(out)
    assert cols.shape == (2 * 30 * 64 + 1, 3)  # default half_width and per_unit
    assert f"wrote {out} ({len(cols)} rows)" in text


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README has no python block"
    _python("-c", block.group(1))


def test_sphere_shells():
    text = _run("sphere_shells.py", "--degree-max", "2", "--queries", "50")
    assert "50 queries" in text
    shells = [line for line in text.splitlines() if line.lstrip().startswith("[")]
    errors = [float(line.split()[-1]) for line in shells]
    assert shells and max(errors) < 1e-4

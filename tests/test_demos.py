"""Every demo script runs to completion from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(_DEMOS) >= 6


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

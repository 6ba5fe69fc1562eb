"""The demo scripts run to completion: exit 0 and no traceback on stderr."""

import os
import subprocess
import sys

import pytest

import prismhom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(prismhom.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr

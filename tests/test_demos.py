"""Every script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["encrypt_and_invert",
                                  "exact_orders_at_toy_scale",
                                  "subgroup_landscape",
                                  "why_rotation_matters"])
def test_demo_runs(name):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

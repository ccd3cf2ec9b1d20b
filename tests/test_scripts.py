import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("cube_mixing_report.py", ["--n", "3", "--k", "2"], "cube n=3 k=2: 27 states"),
        ("ising_temperature_sweep.py", ["--N", "4", "--betas", "0", "0.5"], "N=4, coupon step"),
    ],
)
def test_script_runs_and_prints_its_header(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(header)

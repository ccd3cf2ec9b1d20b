import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ssdual.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("cube_mixing_report.py", ["--n", "3", "--k", "2"], "cube n=3 k=2: 27 states"),
        ("ising_temperature_sweep.py", ["--N", "4", "--betas", "0", "0.5"], "N=4, coupon step"),
        ("cube_mixing_report.py", ["--samples", "2000"], "cube n=3 k=2: 27 states"),
    ],
)
def test_script_runs_and_prints_its_header(script, args, header):
    result = run_python(str(ROOT / "scripts" / script), *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(header)


def test_readme_library_example_prints_the_cube_moments():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python("-c", example)
    assert result.returncode == 0, result.stderr
    mean, variance = map(float, result.stdout.splitlines()[-1].split())
    assert abs(mean - 22 / 3) <= 1e-12
    assert abs(variance - 130 / 9) <= 1e-9


def test_readme_commands_each_print_one_json_object(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "ssdual" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = argv[1:]
        if "--samples" in argv:  # the documented 100000 trajectories take seconds
            argv[argv.index("--samples") + 1] = "2000"
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), argv

"""The experiment scripts in ``scripts/`` run end to end against the package."""

import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "name, args",
    [
        ("star_shapedness_experiment.py", ("--n", "3", "--samples", "1", "--alphas", "0.5")),
        ("counterexample_experiment.py", ("--dims", "3", "--restarts", "2")),
    ],
)
def test_experiment_script_runs(name, args):
    run_script(name, *args)


def test_demo_instance_is_reproduced_byte_for_byte(tmp_path):
    out = tmp_path / "witness_demo.json"
    run_script("make_demo_instance.py", "--out", str(out))
    assert out.read_bytes() == (REPO / "demos" / "witness_demo.json").read_bytes()

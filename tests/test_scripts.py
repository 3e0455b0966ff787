"""Smoke tests for the experiment scripts: each ``main(argv)`` runs in
process at minimal size, writes its output file and exits 0."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# script name -> (minimal argv, files written under the --out prefix)
SMOKE = {
    "run_teaching_comparison": (["--runs", "2"], ["out"]),
    "run_batch_experiment": (["--n", "1", "--batches", "1"], ["out.json", "out.csv"]),
    "run_detection_sweep": (["--start-deg", "-10", "--stop-deg", "10", "--step-deg", "5", "--seeds", "1"], ["out"]),
}


@pytest.mark.parametrize("name", SMOKE)
def test_script_runs(tmp_path, capsys, name):
    argv, written = SMOKE[name]
    assert load_script(name).main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out
    for file in written:
        assert (tmp_path / file).stat().st_size > 0


def test_batch_experiment_refuses_n_past_the_cap(tmp_path, capsys):
    assert load_script("run_batch_experiment").main(["--n", "10001", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: --n must lie in 1..10000 and --batches be at least 1\n"
    assert list(tmp_path.iterdir()) == []

"""Tests for the experiment scripts: each ``main(argv)`` runs in process at
minimal size, writes its output file and exits 0, and a bad argument or an
unwritable output ends in one ``error:`` line, exit 1."""

import importlib.util
from pathlib import Path

import pytest

from lfdkit.assembly import MAX_TRIALS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# script name -> (minimal argv, files written under the --out prefix)
SMOKE = {
    "run_teaching_comparison": (["--runs", "2"], ["out"]),
}


@pytest.mark.parametrize("name", SMOKE)
def test_script_runs(tmp_path, capsys, name):
    argv, written = SMOKE[name]
    assert load_script(name).main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out
    for file in written:
        assert (tmp_path / file).stat().st_size > 0


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--first-seed", "-1"], "seed must be at least 0, got -1"),
        (["--runs", "0"], "runs must be at least 1, got 0"),
        (["--runs", str(MAX_TRIALS + 1)], f"runs must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}"),
        (["--runs", "1", "--out", "{tmp}/missing/out.json"], "No such file or directory"),
    ],
    ids=["first-seed", "runs-0", "runs-past-the-cap", "out-in-missing-dir"],
)
def test_teaching_comparison_errors_are_one_line(tmp_path, capsys, argv, text):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert load_script("run_teaching_comparison").main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and text in err
    assert list(tmp_path.iterdir()) == []

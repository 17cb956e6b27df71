"""Smoke test: every script under scripts/ runs end to end at tiny sizes.

The scripts drive the library the way a user would, so an API change that
breaks one of them fails here rather than on its next manual run.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

TINY_ARGS = {
    "oracle_fuzz": ["--trials", "20"],
    "history_detection_sweep": ["--train-seeds", "100", "101",
                                "--eval-seeds", "1", "2"],
    "transition_accuracy_sweep": ["--k", "2", "5", "--train-seeds", "100", "101",
                                  "--eval-seeds", "1", "2", "--pair-stride", "25"],
}


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(TINY_ARGS[name]) == 0
    assert capsys.readouterr().out

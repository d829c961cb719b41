"""The example scripts run: each ``examples/*.py`` ``main()`` returns
cleanly and prints something.  No CI job executes them otherwise."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


def test_examples_are_collected():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs_and_prints(script, capsys):
    module = runpy.run_path(str(script))  # not "__main__": defines, no run
    assert module["main"]() is None
    assert capsys.readouterr().out.strip()

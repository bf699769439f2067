"""Every script under ``examples/`` runs to completion.

The examples assert their own claims, so running them as ``__main__`` is
the test; nothing else executes them, which is how one sat broken.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_are_collected():
    assert EXAMPLES, "examples/ holds no scripts"


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs_to_completion(path):
    runpy.run_path(str(path), run_name="__main__")

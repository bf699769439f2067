"""The static knob census (``tools/census.py --knobs``) on a fixture tree."""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("knob_census", _TOOL)
    module = importlib.util.module_from_spec(spec)
    # Registered while it loads: its dataclasses resolve annotations there.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _write(root: Path, relative: str, source: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    """Two modules under ``src/repro`` and one test that uses them."""
    _write(tmp_path, "src/repro/__init__.py", "")
    _write(tmp_path, "src/repro/shapes.py", '''
        import os
        from dataclasses import dataclass


        @dataclass
        class ShapeConfig:
            only_tests: int = 1
            by_replace: int = 2
            positional: int = 3
            by_assignment: int = 4


        class Server:
            def __init__(self, host="localhost", forwarded=0):
                self.host = host
                self.forwarded = forwarded


        def make_server(name="s", **kwargs):
            return Server(**kwargs)


        FLAG = os.environ.get("SHAPES_FLAG")
    ''')
    _write(tmp_path, "src/repro/use.py", '''
        from dataclasses import replace

        from repro.shapes import ShapeConfig, make_server

        # The first two match their literal defaults: only `positional`
        # gets a second value here.
        config = ShapeConfig(1, 2, 7)
        tuned = replace(config, by_replace=9)
        config.by_assignment = 5
        server = make_server(name="t", forwarded=3)
    ''')
    _write(tmp_path, "tests/test_shapes.py", '''
        from repro.shapes import Server, ShapeConfig

        def test_it():
            ShapeConfig(only_tests=5)
            Server(host="example")
    ''')
    return tmp_path


def _report(census, root: Path, keep: dict, capsys) -> tuple[int, str]:
    status = census.knob_report(census.KnobCensus(root), keep, check=True)
    return status, capsys.readouterr().out


def test_a_field_set_only_in_tests_is_reported(census, tree, capsys):
    _status, out = _report(census, tree, {}, capsys)
    assert (
        "one value: repro.shapes:ShapeConfig.only_tests "
        "(set only by tests/test_shapes.py)" in out
    )
    assert "one value: repro.shapes:Server.host (set only by" in out
    assert "one value: repro.shapes:os.environ[SHAPES_FLAG] (never set)" in out


def test_replace_positional_forwarding_and_assignment_count_as_set(
    census, tree, capsys
):
    _status, out = _report(census, tree, {}, capsys)
    for name in ("by_replace", "positional", "by_assignment"):
        assert f"ShapeConfig.{name} " not in out
    assert "Server.forwarded" not in out
    assert "3 set to a second value by no caller outside tests/" in out


def test_a_keep_line_without_a_reason_is_an_error(census, tmp_path):
    keep = tmp_path / "knobs_keep.txt"
    keep.write_text("# comment\nrepro.shapes:Server.host\n")
    with pytest.raises(SystemExit, match="kept without a reason"):
        census.load_keep(keep)


def test_check_exits_1_on_an_unlisted_knob(census, tree, monkeypatch, capsys):
    keep = tree / "knobs_keep.txt"
    keep.write_text(
        "repro.shapes:ShapeConfig.only_tests a test needs it\n"
        "repro.shapes:Server.host deployment\n"
    )
    monkeypatch.setattr(census, "ROOT", tree)
    monkeypatch.setattr(census, "KNOBS_KEEP_FILE", keep)
    assert census.main(["--knobs", "--check"]) == 1
    assert "os.environ[SHAPES_FLAG]" in capsys.readouterr().out
    with keep.open("a") as handle:
        handle.write("repro.shapes:os.environ* a deployment switch\n")
    assert census.main(["--knobs", "--check"]) == 0
    assert census.main(["--knobs"]) == 0

"""Call census: which ``src/repro`` functions does nothing but tests enter?

Runs every non-test entry point of the repository -- the CLI commands
(all but ``serve``, which never returns), the six chaos scenarios under
``--check``, the examples, the benchmark of record (``run.py --quick``,
traced and untraced, and its pytest smoke) and the paper benches -- under
a ``sys.setprofile`` hook, and prints every function defined under
``src/repro`` that none of them entered, minus the names
``tools/census_keep.txt`` keeps with a reason.  An entry point that exits
non-zero is reported and the census goes on: what it entered before it
failed still counts, and whether it works is another job's question (the
paper benches assert on measured timing shapes, which the hook distorts).

The hook is installed by a ``sitecustomize`` module on ``PYTHONPATH``, so
it is live in every subprocess an entry point starts, and through
``threading.setprofile`` on the asyncio thread behind ``LiveSystem``.  The
paper benches run with ``--benchmark-disable``: ``pytest-benchmark``
switches tracers off while it times.  They rewrite the tracked
``benchmarks/results/*.txt``; the census puts those files back.

    python tools/census.py            # print the never-entered functions
    python tools/census.py --check    # exit 1 if one of them is unlisted

Stdlib only.  Minutes, not seconds: CI runs it as its own job.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP_FILE = Path(__file__).with_name("census_keep.txt")

#: Installed as ``sitecustomize`` in every traced process.  Each process
#: writes the (file, first line) pairs of the ``src/repro`` code objects it
#: entered to its own file when it exits.
_HOOK = '''
import atexit, json, os, sys, threading

_PREFIX = os.environ["CENSUS_PREFIX"]
_OUT = os.environ["CENSUS_OUT"]
_entered = set()


def _profile(frame, event, _arg):
    if event == "call":
        _entered.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    pairs = sorted(
        (code.co_filename, code.co_firstlineno)
        for code in list(_entered)
        if code.co_filename.startswith(_PREFIX)
    )
    with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as handle:
        json.dump(pairs, handle)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''

_REPRO = [sys.executable, "-m", "repro"]
_PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
_RUN = [sys.executable, "benchmarks/e2e/run.py", "--quick"]


def entry_points() -> list[list[str]]:
    """Every command the census traces, as argv lists run from the root."""
    commands = [
        [*_REPRO, "demo"],
        [*_REPRO, "grant", "21", "127"],
        [*_REPRO, "calibrate"],
        [*_REPRO, "topology"],
        [*_REPRO, "verify"],
        [*_REPRO, "chaos", "--list"],
    ]
    commands += [
        [*_REPRO, "experiment", name, "--events", "500"]
        for name in ("keys", "entropy", "construction", "cache")
    ]
    sys.path.insert(0, str(SRC))
    try:
        from repro.harness.scenario import SCENARIOS, load

        # As CI's smoke steps run them: gated, and with the metrics
        # snapshot where the scenario collects one.
        commands += [
            [*_REPRO, "chaos", "--scenario", name, "--seed", "7", "--check",
             *(["--snapshot", os.devnull] if load(name).snapshot else [])]
            for name in SCENARIOS
        ]
    finally:
        sys.path.remove(str(SRC))
    commands += [
        [sys.executable, str(path.relative_to(ROOT))]
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    commands += [
        [*_RUN, "--trace", "0"],
        [*_RUN, "--trace", "1"],
        [*_PYTEST, "benchmarks/e2e"],
        # The Fig 9-10 sweep runs for minutes under the hook: no stack
        # dump when it passes pyproject's five-minute faulthandler mark.
        [*_PYTEST, "benchmarks", "--ignore=benchmarks/e2e",
         "--benchmark-disable", "-o", "faulthandler_timeout=0"],
    ]
    return commands


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (``module:qualname``, line count) for every
    ``def`` under ``src/repro``.

    The first line is the first decorator's when there is one: that is
    what ``co_firstlineno`` reports.
    """
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def walk(node: ast.AST, scope: str, path: Path, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                first = min(
                    [child.lineno, *(d.lineno for d in child.decorator_list)]
                )
                found[(str(path), first)] = (
                    f"{module}:{name}", child.end_lineno - first + 1
                )
                walk(child, f"{name}.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{scope}{child.name}.", path, module)
            else:
                walk(child, scope, path, module)

    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).with_suffix("")
        module = ".".join(relative.parts).removesuffix(".__init__")
        walk(ast.parse(path.read_text()), "", path, module)
    return found


def load_keep() -> dict[str, str]:
    """``module:qualname`` (or an ``fnmatch`` pattern over such names)
    -> reason, from ``census_keep.txt``."""
    keep: dict[str, str] = {}
    for number, line in enumerate(KEEP_FILE.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(
                f"{KEEP_FILE.name}:{number}: {name} is kept without a reason"
            )
        keep[name] = reason.strip()
    return keep


def trace(commands: list[list[str]]) -> set[tuple[str, int]]:
    """Run *commands* under the hook; the (file, first line) pairs entered."""
    results = ROOT / "benchmarks" / "results"
    tracked = {path: path.read_bytes() for path in results.glob("*.txt")}
    entered: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        hook_dir = Path(scratch, "hook")
        out_dir = Path(scratch, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]),
            PYTHONDONTWRITEBYTECODE="1",
            CENSUS_PREFIX=str(PACKAGE) + os.sep,
            CENSUS_OUT=str(out_dir),
        )
        try:
            for argv in commands:
                shown = " ".join(argv[1:])
                print(f"census: python {shown}", file=sys.stderr, flush=True)
                child = subprocess.run(
                    argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, text=True,
                )
                if child.returncode != 0:
                    print(f"census: exited {child.returncode}:\n"
                          f"{child.stderr[-1000:]}", file=sys.stderr)
        finally:
            for path, content in tracked.items():
                path.write_bytes(content)
        for dump in out_dir.glob("*.json"):
            entered.update(map(tuple, json.loads(dump.read_text())))
    return entered


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a never-entered function is not listed in "
        f"{KEEP_FILE.name}",
    )
    args = parser.parse_args(argv)

    keep = load_keep()
    defined = defined_functions()
    entered = trace(entry_points())
    never = {
        name: lines for key, (name, lines) in defined.items()
        if key not in entered
    }
    unlisted = {
        name: lines for name, lines in never.items()
        if not any(fnmatch.fnmatchcase(name, pattern) for pattern in keep)
    }
    stale = sorted(
        pattern for pattern in keep if not fnmatch.filter(never, pattern)
    )

    total = sum(lines for _name, lines in defined.values())
    print(f"{len(defined)} functions ({total} lines) under src/repro; "
          f"{len(never)} ({sum(never.values())} lines) entered by no entry "
          f"point, {len(never) - len(unlisted)} of them kept with a reason")
    for name, lines in sorted(unlisted.items()):
        print(f"  never entered: {name} ({lines} lines)")
    for pattern in stale:
        print(f"  stale keep entry (entered, or gone): {pattern}")
    if args.check and unlisted:
        print(f"census: {len(unlisted)} never-entered function(s) not in "
              f"{KEEP_FILE.name}: delete them, or keep each with a reason",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

``--knobs`` is a second, static pass (seconds, ``ast`` only, no tracing):
the knob census.  A knob is a public field of a ``src/repro`` dataclass
named ``*Config``, ``*Policy`` or ``*Options``, a defaulted ``__init__``
keyword of a public ``src/repro`` class, or an ``os.environ`` read.  It
prints every knob that no caller outside ``tests/`` -- ``src/``,
``benchmarks/``, ``examples/`` -- sets to a second value, minus the names
``tools/knobs_keep.txt`` keeps with a reason:

    python tools/census.py --knobs            # print the one-value knobs
    python tools/census.py --knobs --check    # exit 1 if one is unlisted

"Set" is read generously, so a knob in use is never reported: a keyword
or positional argument at a call of the class (a call of ``cls`` or
``super().__init__`` inside a class resolves to it, and classes are
matched by name, every same-named class at once), a keyword of
``replace(...)`` (any knob class with that field), an assignment to an
attribute of that name on anything but ``self``, a ``**mapping`` the pass
cannot read (every knob of the callee), and keywords reaching a function
that forwards its ``**kwargs`` to the class.  Passing a literal equal to a
literal default is not a second value.
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
from dataclasses import dataclass, field
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


def load_keep(path: Path = KEEP_FILE) -> dict[str, str]:
    """``module:qualname`` (or an ``fnmatch`` pattern over such names)
    -> reason, from *path* (``census_keep.txt`` by default)."""
    keep: dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(
                f"{path.name}:{number}: {name} is kept without a reason"
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


KNOBS_KEEP_FILE = Path(__file__).with_name("knobs_keep.txt")
#: Where callers live: everything but ``tests/`` sets a second value.
CALLER_DIRS = ("src", "benchmarks", "examples", "tests")
_KNOB_CLASS = ("Config", "Policy", "Options")


@dataclass
class Knob:
    name: str  # ``module:Class.field`` or ``module:os.environ[NAME]``
    default: ast.expr | None
    #: Files that set it to a second value.
    set_by: set[str] = field(default_factory=set)


@dataclass
class KnobClass:
    name: str
    bases: list[str]
    #: Every parameter, in positional order (dataclass field order).
    params: list[str]
    #: The public, defaulted (or dataclass) parameters among them.
    knobs: dict[str, Knob]
    dataclass: bool


def _terminal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _same_literal(a: ast.expr | None, b: ast.expr | None) -> bool:
    """Whether *a* and *b* are both literals, and equal."""
    if a is None or b is None:
        return False
    try:
        left, right = ast.literal_eval(a), ast.literal_eval(b)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return False
    return type(left) is type(right) and left == right


def _knob_class(node: ast.ClassDef, module: str) -> KnobClass | None:
    """The knobs of a top-level class, or ``None`` if it has none."""
    is_dataclass = any(
        _terminal(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )
    bases = [name for name in map(_terminal, node.bases) if name]
    if is_dataclass and node.name.endswith(_KNOB_CLASS):
        params, knobs = [], {}
        for statement in node.body:
            if not (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)):
                continue
            if "ClassVar" in ast.unparse(statement.annotation):
                continue
            default = statement.value
            if isinstance(default, ast.Call) and _terminal(default.func) == "field":
                keywords = {k.arg: k.value for k in default.keywords}
                if _same_literal(keywords.get("init"), ast.Constant(False)):
                    continue
                default = keywords.get("default")
            name = statement.target.id
            params.append(name)
            if not name.startswith("_"):
                knobs[name] = Knob(f"{module}:{node.name}.{name}", default)
        return KnobClass(node.name, bases, params, knobs, True)
    if node.name.startswith("_"):
        return None
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
            arguments = statement.args
            positional = [*arguments.posonlyargs, *arguments.args][1:]
            defaults = dict(zip(
                [a.arg for a in positional][::-1], arguments.defaults[::-1]
            ))
            defaults.update(
                (a.arg, d) for a, d in zip(arguments.kwonlyargs, arguments.kw_defaults)
                if d is not None
            )
            knobs = {
                name: Knob(f"{module}:{node.name}.{name}", default)
                for name, default in defaults.items()
            }
            return KnobClass(
                node.name, bases, [a.arg for a in positional], knobs, False
            )
    return None


def _environ_name(node: ast.AST, constants: dict[str, str]) -> str | None:
    """The variable an ``os.environ.get(X)``/``os.environ[X]``/``os.getenv(X)``
    node reads, resolving module-level string constants."""
    key = None
    if isinstance(node, ast.Call) and node.args:
        func = ast.unparse(node.func)
        if func.endswith(("environ.get", "getenv")):
            key = node.args[0]
    elif isinstance(node, ast.Subscript) and ast.unparse(node.value).endswith("environ"):
        if isinstance(node.ctx, ast.Load):
            key = node.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    if isinstance(key, ast.Name):
        return constants.get(key.id)
    return None


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _kwarg(scope: ast.AST) -> set[str]:
    """The name of *scope*'s ``**kwargs`` parameter, as a set."""
    arguments = getattr(scope, "args", None)
    if isinstance(arguments, ast.arguments) and arguments.kwarg:
        return {arguments.kwarg.arg}
    return set()


def _local_keys(scope: ast.AST, name: str) -> list[str]:
    """The string keys *scope* stores into the mapping *name*
    (``name["k"] = v``, or a ``{"k": v}`` literal bound to it)."""
    keys = []
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == name
                    and isinstance(target.slice, ast.Constant)):
                keys.append(target.slice.value)
            elif (isinstance(target, ast.Name) and target.id == name
                  and isinstance(node.value, ast.Dict)):
                keys += [k.value for k in node.value.keys
                         if isinstance(k, ast.Constant)]
    return keys


@dataclass
class _Forwarder:
    """A function that passes its ``**kwargs`` on to other callables."""

    named: set[str]  # its own parameters: keywords it keeps
    targets: list[str]


class KnobCensus:
    """Every knob under ``src/repro`` and the files that set each one."""

    def __init__(self, root: Path | None = None) -> None:
        self.root = root = root or ROOT
        self.classes: dict[str, list[KnobClass]] = {}
        self.environ: dict[str, Knob] = {}
        #: ``NAME`` -> the module constants that spell it.
        self._environ_aliases: dict[str, set[str]] = {}
        self.forwarders: dict[str, list[_Forwarder]] = {}
        trees = {
            path: ast.parse(path.read_text(), str(path))
            for directory in CALLER_DIRS
            for path in sorted((root / directory).rglob("*.py"))
        }
        for path, tree in trees.items():
            if path.is_relative_to(root / "src" / "repro"):
                self._define(tree, _module_name_at(path, root))
            self._find_forwarders(tree)
        # Inherited dataclass fields come first, as the generated
        # ``__init__`` takes them.
        for found in (c for group in self.classes.values() for c in group):
            if found.dataclass:
                for base in found.bases:
                    for parent in self.classes.get(base, []):
                        found.params[:0] = parent.params
        for path, tree in trees.items():
            self._scan(path, tree)

    # -- what the knobs are
    def _define(self, tree: ast.Module, module: str) -> None:
        constants = {
            target.id: statement.value.value
            for statement in tree.body if isinstance(statement, ast.Assign)
            for target in statement.targets
            if isinstance(target, ast.Name)
            and isinstance(statement.value, ast.Constant)
            and isinstance(statement.value.value, str)
        }
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                found = _knob_class(node, module)
                if found is not None and found.knobs:
                    self.classes.setdefault(found.name, []).append(found)
        for node in ast.walk(tree):
            name = _environ_name(node, constants)
            if name is not None and name not in self.environ:
                self.environ[name] = Knob(f"{module}:os.environ[{name}]", None)
                self._environ_aliases[name] = {
                    alias for alias, value in constants.items() if value == name
                }

    def _find_forwarders(self, tree: ast.Module) -> None:
        def visit(node: ast.AST, owner: str | None, bases: list[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name,
                          list(filter(None, map(_terminal, child.bases))))
                    continue
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and child.args.kwarg is not None):
                    kwarg = child.args.kwarg.arg
                    targets = [
                        target
                        for call in ast.walk(child) if isinstance(call, ast.Call)
                        if any(k.arg is None and isinstance(k.value, ast.Name)
                               and k.value.id == kwarg for k in call.keywords)
                        for target in self._targets(call.func, owner, bases)
                    ]
                    named = {a.arg for a in (*child.args.posonlyargs,
                                             *child.args.args,
                                             *child.args.kwonlyargs)}
                    key = owner if child.name == "__init__" and owner else child.name
                    self.forwarders.setdefault(key, []).append(
                        _Forwarder(named, targets)
                    )
                visit(child, owner, bases)

        visit(tree, None, [])

    @staticmethod
    def _targets(func: ast.expr, owner: str | None, bases: list[str]) -> list[str]:
        """The class or function names a call of *func* may reach."""
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _terminal(func.value.func) == "super"):
            return bases
        name = _terminal(func)
        if name == "cls" and owner:
            return [owner]
        return [name] if name else []

    # -- who sets them
    def _scan(self, path: Path, tree: ast.Module) -> None:
        where = str(path.relative_to(self.root))

        def visit(node: ast.AST, owner: str | None, bases: list[str],
                  scope: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name,
                          list(filter(None, map(_terminal, child.bases))), child)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, owner, bases, child)
                    continue
                if isinstance(child, ast.Call):
                    self._call(child, where, owner, bases, scope, tree)
                elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = getattr(child, "targets", None) or [child.target]
                    for target in targets:
                        self._assign(target, child.value, where)
                elif isinstance(child, (ast.Constant, ast.Name, ast.Attribute)):
                    self._mention(child, where)
                visit(child, owner, bases, scope)

        visit(tree, None, [], tree)

    def _mention(self, node: ast.expr, where: str) -> None:
        """A non-reading mention of an environment variable's name."""
        spelled = (node.value if isinstance(node, ast.Constant)
                   else _terminal(node))
        for name, knob in self.environ.items():
            module = knob.name.partition(":")[0].replace(".", "/")
            if where.startswith(f"src/{module}"):
                continue  # the reader's own module names it to read it
            if spelled == name or spelled in self._environ_aliases[name]:
                knob.set_by.add(where)

    def _assign(self, target: ast.expr, value: ast.expr | None, where: str) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, None, where)
            return
        if not isinstance(target, ast.Attribute):
            return
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return
        for group in self.classes.values():
            for found in group:
                knob = found.knobs.get(target.attr)
                if knob is not None and not _same_literal(knob.default, value):
                    knob.set_by.add(where)

    def _call(self, call: ast.Call, where: str, owner: str | None,
              bases: list[str], scope: ast.AST, module: ast.Module) -> None:
        name = _terminal(call.func)
        if name == "setattr" and len(call.args) >= 2:
            attribute = call.args[1]
            if isinstance(attribute, ast.Constant) and isinstance(attribute.value, str):
                self._assign(ast.Attribute(call.args[0], attribute.value),
                             None, where)
            return
        if name not in ("isinstance", "issubclass"):
            # A class handed over as a value is constructed by code the
            # pass cannot follow: count every knob of it as set (but a
            # ``default_factory`` calls it with no arguments).
            for value in (*call.args, *(k.value for k in call.keywords
                                        if k.arg != "default_factory")):
                if isinstance(value, ast.Name):
                    for found in self.classes.get(value.id, []):
                        self._apply(found, [], [], True, where)
        keywords: list[tuple[str, ast.expr]] = []
        opaque = False
        for keyword in call.keywords:
            if keyword.arg is not None:
                keywords.append((keyword.arg, keyword.value))
            elif isinstance(keyword.value, ast.Dict) and all(
                isinstance(k, ast.Constant) for k in keyword.value.keys
            ):
                keywords += [(k.value, v) for k, v in
                             zip(keyword.value.keys, keyword.value.values)]
            elif isinstance(keyword.value, ast.Name) and keyword.value.id in (
                _kwarg(scope)
            ):
                pass  # forwarding our own **kwargs: followed from the callers
            elif isinstance(keyword.value, ast.Name) and (
                keys := _local_keys(scope, keyword.value.id)
            ):
                keywords += [(key, None) for key in keys]
            else:
                opaque = True
        if name == "replace":
            # The class replaced is among those the function names (in an
            # annotation or a construction), else among the module's.
            candidates = [
                found for group in self.classes.values() for found in group
                if found.dataclass
            ]
            for names in (_names(scope), _names(module)):
                candidates = [c for c in candidates if c.name in names] or candidates
            for found in candidates:
                self._apply(found, [], keywords, opaque, where)
            return
        args = list(call.args)
        if name == "partial" and args:
            name, args = _terminal(args[0]), args[1:]
            targets = [name] if name else []
        else:
            targets = self._targets(call.func, owner, bases)
        for target in targets:
            self._reach(target, args, keywords, opaque, where, set())

    def _reach(self, target: str, args: list[ast.expr],
               keywords: list[tuple[str, ast.expr]], opaque: bool,
               where: str, seen: set[str]) -> None:
        if target in seen:
            return
        seen.add(target)
        for found in self.classes.get(target, []):
            self._apply(found, args, keywords, opaque, where)
        for forwarder in self.forwarders.get(target, []):
            passed_on = [(k, v) for k, v in keywords if k not in forwarder.named]
            if passed_on or opaque:
                for onward in forwarder.targets:
                    self._reach(onward, [], passed_on, opaque, where, seen)

    @staticmethod
    def _apply(found: KnobClass, args: list[ast.expr],
               keywords: list[tuple[str, ast.expr]], opaque: bool,
               where: str) -> None:
        if opaque:
            for knob in found.knobs.values():
                knob.set_by.add(where)
        for index, value in enumerate(args):
            if isinstance(value, ast.Starred):
                for name in found.params[index:]:
                    if name in found.knobs:
                        found.knobs[name].set_by.add(where)
                break
            if index < len(found.params):
                knob = found.knobs.get(found.params[index])
                if knob is not None and not _same_literal(knob.default, value):
                    knob.set_by.add(where)
        for name, value in keywords:
            knob = found.knobs.get(name)
            if knob is not None and not _same_literal(knob.default, value):
                knob.set_by.add(where)

    # -- the verdict
    def knobs(self) -> list[Knob]:
        found = [
            knob for group in self.classes.values() for c in group
            for knob in c.knobs.values()
        ]
        return sorted([*found, *self.environ.values()], key=lambda k: k.name)


def _module_name_at(path: Path, root: Path) -> str:
    relative = path.relative_to(root / "src").with_suffix("")
    return ".".join(relative.parts).removesuffix(".__init__")


def knob_report(census: KnobCensus, keep: dict[str, str],
                check: bool) -> int:
    """Print the one-value knobs; with *check*, 1 if one is unlisted."""
    knobs = census.knobs()
    single = {
        knob.name: sorted(knob.set_by) for knob in knobs
        if not any(not where.startswith("tests/") for where in knob.set_by)
    }
    unlisted = {
        name: setters for name, setters in single.items()
        if not any(fnmatch.fnmatchcase(name, pattern) for pattern in keep)
    }
    stale = sorted(
        pattern for pattern in keep if not fnmatch.filter(single, pattern)
    )
    print(f"{len(knobs)} knobs under src/repro; {len(single)} set to a "
          f"second value by no caller outside tests/, "
          f"{len(single) - len(unlisted)} of them kept with a reason")
    for name, setters in sorted(unlisted.items()):
        how = ("set only by " + ", ".join(setters)) if setters else "never set"
        print(f"  one value: {name} ({how})")
    for pattern in stale:
        print(f"  stale keep entry (set, or gone): {pattern}")
    if check and unlisted:
        print(f"census: {len(unlisted)} one-value knob(s) not in "
              f"{KNOBS_KEEP_FILE.name}: make each a constant, or keep it "
              f"with a reason", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when a never-entered function (a one-value knob, "
        f"with --knobs) is not listed in {KEEP_FILE.name} "
        f"({KNOBS_KEEP_FILE.name})",
    )
    parser.add_argument(
        "--knobs", action="store_true",
        help="run the static knob census instead of the call census",
    )
    args = parser.parse_args(argv)

    if args.knobs:
        keep = load_keep(KNOBS_KEEP_FILE)
        return knob_report(KnobCensus(), keep, args.check)
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

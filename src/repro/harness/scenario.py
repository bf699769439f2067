"""What a chaos scenario is: a config, a run and named gates.

Every ``repro chaos --scenario`` value is one :class:`Scenario`, defined
as ``SCENARIO`` in the harness module whose code it describes; the CLI
only loops over them.  :data:`SCENARIOS` names those modules and
:func:`load` imports one when it runs, so reading the names (the
``--scenario`` choices) loads no simulator and no sockets.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Gate:
    """One named acceptance condition over a finished run."""

    #: Short and stable: ``--check`` and ``--list`` print it.
    name: str
    #: ``(config, result) -> problem``; ``None`` when the gate holds.
    check: Callable[[Any, Any], str | None]


def all_of(problems: Iterable[str]) -> str | None:
    """One verdict for a gate that holds a condition at every subscriber
    or sweep rung: the problems joined, ``None`` when there are none."""
    return "; ".join(problems) or None


@dataclass(frozen=True)
class Scenario:
    """The five parts of a scenario (``snapshot`` is optional)."""

    name: str
    #: The ``--list`` line.
    description: str
    #: Sizes a config from the shared ``repro chaos`` flags.
    configure: Callable[[argparse.Namespace], Any]
    #: ``config -> result``; raises ``ValueError`` on a config it cannot
    #: run.  Two runs of one seed return ``==`` results (metrics bundles
    #: ride along as ``compare=False`` fields).
    run: Callable[[Any], Any]
    #: ``(config, result) -> report text``.
    format: Callable[[Any, Any], str]
    #: What ``--check`` enforces; at least one.
    gates: tuple[Gate, ...]
    #: ``result -> metrics document`` for ``--snapshot``, when the run
    #: collects metrics.
    snapshot: Callable[[Any], dict] | None = None

    def violations(self, config: Any, result: Any) -> list[tuple[str, str]]:
        """``(gate name, problem)`` for every gate that does not hold."""
        verdicts = (
            (gate.name, gate.check(config, result)) for gate in self.gates
        )
        return [(name, problem) for name, problem in verdicts if problem]


#: ``--scenario`` name -> its :class:`Scenario`, or the module whose
#: ``SCENARIO`` it is (:func:`load` imports it).
SCENARIOS: dict[str, Scenario | str] = {
    "overlay": "repro.harness.chaos",
    "kdc": "repro.harness.kdcchaos",
    "recovery": "repro.harness.recovery",
    "overload": "repro.harness.overload",
    "rekey": "repro.harness.rekey",
    "live": "repro.harness.live",
}


def load(name: str) -> Scenario:
    """The registered scenario *name*, importing its module if need be."""
    entry = SCENARIOS[name]
    return import_module(entry).SCENARIO if isinstance(entry, str) else entry

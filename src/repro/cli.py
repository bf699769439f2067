"""Command-line interface: ``python -m repro <command>``.

:data:`COMMANDS` is the table ``build_parser`` loops:

- ``demo``           -- the quickstart medical-records flow;
- ``grant``          -- show the key material the KDC issues for a range
                        subscription (cover elements, key count, bytes);
- ``calibrate``      -- measure the crypto primitive costs on this host;
- ``experiment``     -- regenerate a table/figure series (keys, entropy,
                        construction-cost, cache);
- ``topology``       -- generate a transit-stub topology and report its
                        overlay RTT statistics;
- ``verify``         -- fast self-check of the headline claims;
- ``chaos``          -- run the fault and equivalence scenarios of
                        :mod:`repro.harness.scenario`'s registry
                        (``--list`` prints each with its gate names);
                        every scenario carries named acceptance gates
                        that ``--check`` enforces, and this command is
                        only the loop over them: a new scenario is a
                        ``Scenario`` value, not a handler;
- ``serve``          -- run one rtnet broker server on a TCP socket,
                        optionally dialing a parent broker (a cluster is
                        N ``serve`` processes).

Randomized commands share one ``--seed`` option (:func:`add_seed_option`).
Speed is measured by ``benchmarks/e2e/run.py``, not here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.harness.scenario import SCENARIOS, load


def add_seed_option(parser: argparse.ArgumentParser) -> None:
    """The uniform ``--seed`` option for randomized subcommands.

    Every command that draws randomness (workload sampling, fault
    schedules, Zipf topic popularity) takes its seed from here, so the
    same integer reproduces the same run everywhere.
    """
    parser.add_argument(
        "--seed", type=int, default=7,
        help="PRNG seed pinning every random draw (default: 7)",
    )


# -- demo ---------------------------------------------------------------------


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.api import System
    from repro.siena import Event, Filter

    system = (
        System.builder().topic("cancerTrail", numeric={"age": 128}).build()
    )
    doctor = system.subscribe(
        "doctor", Filter.numeric_range("cancerTrail", "age", 21, 127)
    )
    outsider = system.subscribe(
        "outsider", Filter.numeric_range("cancerTrail", "age", 31, 127)
    )
    sealed = system.publisher("hospital").publish(
        Event(
            {"topic": "cancerTrail", "age": 25, "patientRecord": "rec-17"},
            publisher="hospital",
        ),
        secret_attributes={"patientRecord"},
    )
    # Brokers route on <r, F_T(r)> pairs alone; their values are fresh
    # nonces and proofs, so the names are what stays the same per run.
    print(f"event routable part : {sorted(sealed.routable.attributes)}")
    print(f"doctor (age>20)     : {doctor.opened[0].event['patientRecord']!r}")
    print(f"outsider (age>30)   : "
          f"{outsider.opened[0] if outsider.opened else None}")
    return 0


# -- grant --------------------------------------------------------------------


def _grant_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topic", default="cancerTrail")
    parser.add_argument("--attribute", default="age")
    parser.add_argument("--range", type=int, default=128)
    parser.add_argument("low", type=int)
    parser.add_argument("high", type=int)


def _cmd_grant(args: argparse.Namespace) -> int:
    from repro.core import KDC, CompositeKeySpace, NumericKeySpace
    from repro.siena import Filter

    kdc = KDC()
    kdc.register_topic(
        args.topic,
        CompositeKeySpace(
            {args.attribute: NumericKeySpace(args.attribute, args.range)}
        ),
    )
    grant = kdc.authorize(
        "cli-subscriber",
        Filter.numeric_range(args.topic, args.attribute, args.low, args.high),
    )
    print(f"subscription: {args.attribute} in [{args.low}, {args.high}] "
          f"on topic {args.topic!r} (range {args.range})")
    print(f"epoch {grant.epoch}, expires at t={grant.expires_at:.0f}s")
    for clause in grant.clauses:
        for component in clause.components:
            print(f"  element {str(component.element):>12}  "
                  f"key {component.key.hex()[:16]}…")
    print(f"total: {grant.key_count()} keys, {grant.wire_bytes()} bytes, "
          f"{grant.hash_operations} KDC hash ops")
    return 0


# -- calibrate ----------------------------------------------------------------


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    from repro.harness.timing import measure_crypto_costs

    costs = measure_crypto_costs()
    for name, value in vars(costs).items():
        print(f"{name:>15}: {value * 1e6:8.3f} us")
    return 0


# -- experiment ---------------------------------------------------------------


def _experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name", choices=["keys", "entropy", "construction", "cache"]
    )
    parser.add_argument("--events", type=int, default=4000)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.reporting import format_table

    if args.name == "keys":
        from repro.harness.keymgmt import run_key_management

        rows = run_key_management([2, 4, 8, 16, 32])
        print(format_table(
            ["NS", "PSGuard keys/sub", "Group keys/sub"],
            [(r.num_subscribers, r.psguard_keys_per_subscriber,
              r.group_keys_per_subscriber) for r in rows],
            title="Figure 3: keys per subscriber",
        ))
    elif args.name == "entropy":
        from repro.routing.experiment import (
            RoutingExperimentConfig, sweep_ind_max,
        )

        results = sweep_ind_max(
            RoutingExperimentConfig(events=args.events)
        )
        print(format_table(
            ["ind_max", "S_app", "S_act", "S_max"],
            [(r.ind_max, r.s_app, r.s_act, r.s_max) for r in results],
            title="Figure 6: non-collusive apparent entropy (bits)",
        ))
    elif args.name == "construction":
        from repro.routing.experiment import construction_cost_curve

        print(format_table(
            ["ind_max", "normalized cost"],
            construction_cost_curve(),
            title="Figure 8: construction cost",
        ))
    elif args.name == "cache":
        from repro.harness.endtoend import measure_cache_effect

        rows = measure_cache_effect()
        print(format_table(
            ["cache KB", "pub H/event", "sub H/event", "hit rate",
             "derive us"],
            [(r.cache_kb, r.publisher_hash_per_event,
              r.subscriber_hash_per_event, r.publisher_hit_rate,
              r.derive_s * 1e6)
             for r in rows],
            title="Figure 11: key-cache effect",
        ))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.name)
    return 0


# -- topology -----------------------------------------------------------------


def _topology_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=63)
    add_seed_option(parser)


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.topology import TransitStubTopology

    topology = TransitStubTopology(seed=args.seed)
    overlay = topology.sample_overlay(args.nodes)
    stats = topology.overlay_stats(overlay)
    print(f"{args.nodes}-node overlay on a transit-stub topology "
          f"(seed {args.seed}):")
    print(f"  RTT min  {stats.min_rtt * 1e3:6.1f} ms")
    print(f"  RTT max  {stats.max_rtt * 1e3:6.1f} ms")
    print(f"  RTT mean {stats.mean_rtt * 1e3:6.1f} ms")
    print(f"  RTT sd   {stats.std_rtt * 1e3:6.1f} ms")
    return 0


# -- verify -------------------------------------------------------------------


def _cmd_verify(_args: argparse.Namespace) -> int:
    from repro.harness.verification import (
        format_verification,
        run_verification,
    )

    results = run_verification()
    print(format_verification(results))
    return 0 if all(result.passed for result in results) else 1


# -- chaos --------------------------------------------------------------------


def _chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=["all", *SCENARIOS], default="all",
        help="the scenario to run (--list describes them; default: all)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the scenarios with their gate names and exit",
    )
    add_seed_option(parser)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--rate", type=float, default=40.0,
                        help="publications per second (the live scenario "
                        "publishes duration x rate events, unpaced)")
    parser.add_argument("--crash-prob", type=float, default=0.2,
                        help="per-broker crash probability")
    parser.add_argument("--link-loss", type=float, default=0.05,
                        help="per-transmission link loss probability")
    parser.add_argument("--redundancy", type=int, default=2,
                        help="multipath redundancy k for the reliable run")
    parser.add_argument("--brokers", type=int, default=15,
                        help="tree overlay size")
    parser.add_argument("--kdc-replicas", type=int, default=3,
                        help="kdc scenario: replicas in the replicated run")
    parser.add_argument("--subscribers", type=int, default=8,
                        help="kdc/live scenarios: subscriber count")
    parser.add_argument("--grace", type=float, default=1.0,
                        help="kdc/rekey scenarios: post-expiry grace "
                        "window")
    parser.add_argument("--outage", type=float, default=1.0,
                        help="kdc scenario: outage straddling the boundary")
    parser.add_argument("--storm-factor", type=float, default=4.0,
                        help="overload scenario: offered rate as a "
                        "multiple of broker capacity")
    parser.add_argument("--snapshot", metavar="PATH",
                        help="write the one selected scenario's metrics "
                        "snapshot (JSON) here; live collects none")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every selected scenario's acceptance gates "
        "hold (--list names them); held gates are named on stderr",
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name in SCENARIOS:
            scenario = load(name)
            gates = ", ".join(gate.name for gate in scenario.gates)
            print(f"{name:<{width}}  {scenario.description}")
            print(f"{'':<{width}}  gates: {gates}")
        return 0
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    sections = []
    held: dict[str, list[str]] = {}
    violated: list[str] = []
    snapshot = None
    try:
        if args.snapshot and (
            len(names) != 1 or load(names[0]).snapshot is None
        ):
            raise ValueError(
                "--snapshot names one file: pick one --scenario that "
                "collects metrics (live does not)"
            )
        for name in names:
            scenario = load(name)
            config = scenario.configure(args)
            result = scenario.run(config)
            sections.append(scenario.format(config, result))
            if args.snapshot:
                snapshot = scenario.snapshot(result)
            if args.check:
                problems = dict(scenario.violations(config, result))
                violated.extend(
                    f"{name} gate {gate} violated: {problem}"
                    for gate, problem in problems.items()
                )
                held[name] = [
                    gate.name for gate in scenario.gates
                    if gate.name not in problems
                ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n\n".join(sections))
    if snapshot is not None:
        import json

        from repro.obs.export import json_safe

        with open(args.snapshot, "w", encoding="utf-8") as handle:
            json.dump(json_safe(snapshot), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics snapshot to {args.snapshot}", file=sys.stderr)
    for name, gates in held.items():
        print(f"{name} gates held: {', '.join(gates) or 'none'}",
              file=sys.stderr)
    for problem in violated:
        print(problem, file=sys.stderr)
    if violated:
        return 1
    if held:
        print(f"chaos gates passed: {', '.join(held)}", file=sys.stderr)
    return 0


# -- serve --------------------------------------------------------------------


def _serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--broker-id", default="b0",
                        help="this broker's overlay identifier")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--parent", metavar="HOST:PORT", default=None,
                        help="dial this parent broker after binding")
    parser.add_argument("--egress-capacity", type=int, default=512,
                        help="per-peer bounded egress queue depth")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.rtnet import BrokerServer

    async def serve() -> None:
        server = BrokerServer(
            args.broker_id,
            host=args.host,
            port=args.port,
            egress_capacity=args.egress_capacity,
        )
        await server.start()
        print(f"broker {args.broker_id} listening on "
              f"{server.host}:{server.port}", file=sys.stderr)
        if args.parent:
            host, _, port = args.parent.rpartition(":")
            await server.connect_parent(host, int(port))
            print(f"attached to parent at {args.parent}", file=sys.stderr)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


# -- parser / entry point -----------------------------------------------------


def _distribution_version() -> str:
    """The running build's version, for ``repro --version``."""
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        # Source checkouts run uninstalled (PYTHONPATH=src); fall back
        # to the package's own notion of its version.
        import repro

        return getattr(repro, "__version__", "0.0.0+unknown")


#: (name, help line, handler, argument builder or None) per subcommand.
COMMANDS = (
    ("demo", "run the quickstart flow", _cmd_demo, None),
    ("grant", "show the key material for a range subscription",
     _cmd_grant, _grant_args),
    ("calibrate", "measure crypto primitive costs on this host",
     _cmd_calibrate, None),
    ("experiment", "regenerate one experiment series",
     _cmd_experiment, _experiment_args),
    ("topology", "generate a topology and report RTT statistics",
     _cmd_topology, _topology_args),
    ("verify", "fast self-check of the reproduction's headline claims",
     _cmd_verify, None),
    ("chaos", "measure delivery under injected broker crashes and link loss",
     _cmd_chaos, _chaos_args),
    ("serve", "run one rtnet broker server on a TCP socket",
     _cmd_serve, _serve_args),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser, built from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PSGuard: secure event dissemination in pub-sub "
        "networks (ICDCS 2007 reproduction)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {_distribution_version()}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, configure in COMMANDS:
        subparser = subparsers.add_parser(name, help=help_line)
        if configure is not None:
            configure(subparser)
        subparser.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

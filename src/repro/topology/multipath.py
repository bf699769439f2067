"""The multi-path event dissemination network ``G_ind`` (Section 4.2.1).

Starting from a complete ``a``-ary dissemination tree (publisher at the
root, subscribers below the leaves), ``G_ind`` adds, for every node ``n``
at depth >= 2 and every subscriber, edges to ``ind - 1`` distinct siblings
of ``parent(n)``.  Theorem 4.2 then gives ``ind`` pairwise independent
paths from the publisher to every subscriber:

    ``Q_j = <P, sigma_j(n_1), ..., sigma_j(n_d), S>``

where ``sigma_j`` shifts each tree node to its ``(j-1)``-th cyclic sibling
(``sigma_1`` is the identity, recovering the original path).

Node naming: a broker is its digit tuple (root ``()``); a subscriber is a
pair ``("S", leaf_digits)`` hanging below its leaf broker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

BrokerId = tuple[int, ...]
SubscriberId = tuple[str, BrokerId]


@dataclass(frozen=True)
class MultipathEdge:
    """One overlay edge of ``G_ind`` (directed parent -> child sense)."""

    source: Hashable
    target: Hashable
    is_tree_edge: bool


class MultipathNetwork:
    """``G_ind`` over a complete ``arity``-ary tree of depth ``depth``."""

    def __init__(self, depth: int, arity: int = 2, ind: int = 2):
        if depth < 1:
            raise ValueError("the dissemination tree needs depth >= 1")
        if arity < 2:
            raise ValueError("arity must be >= 2")
        if not 1 <= ind <= arity:
            raise ValueError(
                f"ind must satisfy 1 <= ind <= arity (got ind={ind}, "
                f"arity={arity})"
            )
        self.depth = depth
        self.arity = arity
        self.ind = ind

    # -- node enumeration ---------------------------------------------------

    def brokers(self) -> Iterator[BrokerId]:
        """All broker ids, root first, level by level."""

        def level_nodes(level: int) -> Iterator[BrokerId]:
            if level == 0:
                yield ()
                return
            for prefix in level_nodes(level - 1):
                for digit in range(self.arity):
                    yield prefix + (digit,)

        for level in range(self.depth + 1):
            yield from level_nodes(level)

    def leaves(self) -> list[BrokerId]:
        """Brokers at the maximum depth."""
        return [node for node in self.brokers() if len(node) == self.depth]

    def subscribers(self) -> list[SubscriberId]:
        """One subscriber below every leaf broker."""
        return [("S", leaf) for leaf in self.leaves()]

    def broker_count(self) -> int:
        """Number of brokers (including the root/publisher)."""
        return (self.arity ** (self.depth + 1) - 1) // (self.arity - 1)

    # -- sibling machinery -------------------------------------------------------

    def _shifted_sibling(self, node: BrokerId, shift: int) -> BrokerId:
        """The sibling of *node* whose last digit is cyclically shifted."""
        if not node:
            raise ValueError("the root has no siblings")
        return node[:-1] + ((node[-1] + shift) % self.arity,)

    # -- edges --------------------------------------------------------------------

    def tree_edges(self) -> list[MultipathEdge]:
        """The original dissemination-tree edges (plus subscriber links)."""
        edges = []
        for node in self.brokers():
            if node:
                edges.append(MultipathEdge(node[:-1], node, True))
        for subscriber in self.subscribers():
            edges.append(MultipathEdge(subscriber[1], subscriber, True))
        return edges

    def extra_edges(self) -> list[MultipathEdge]:
        """Added sibling-of-parent edges for ``ind`` independent paths.

        Every node ``n`` at depth >= 2, and every subscriber, gains an edge
        from each of the ``ind - 1`` cyclically shifted siblings of its
        parent.
        """
        edges = []
        for node in self.brokers():
            if len(node) < 2:
                continue
            parent = node[:-1]
            for shift in range(1, self.ind):
                edges.append(
                    MultipathEdge(self._shifted_sibling(parent, shift), node, False)
                )
        for subscriber in self.subscribers():
            leaf = subscriber[1]
            if len(leaf) < 1:
                continue
            for shift in range(1, self.ind):
                edges.append(
                    MultipathEdge(
                        self._shifted_sibling(leaf, shift), subscriber, False
                    )
                )
        return edges

    def edge_count(self) -> int:
        """Total edges of ``G_ind`` (construction-cost unit for Fig 8)."""
        return len(self.tree_edges()) + len(self.extra_edges())

    # -- independent paths (Theorem 4.2) ---------------------------------------

    def tree_path(self, subscriber: SubscriberId) -> list[Hashable]:
        """The original path ``<P, n_1, ..., n_d, S>``."""
        leaf = subscriber[1]
        path: list[Hashable] = [()]
        for level in range(1, len(leaf) + 1):
            path.append(leaf[:level])
        path.append(subscriber)
        return path

    def independent_paths(
        self, subscriber: SubscriberId, count: int | None = None
    ) -> list[list[Hashable]]:
        """``count`` pairwise independent publisher-to-subscriber paths.

        Path ``j`` (0-based shift) routes through ``sigma_j(n_i)``, the
        ``j``-shifted sibling of each original-path node.  Defaults to all
        ``ind`` paths.
        """
        if count is None:
            count = self.ind
        if not 1 <= count <= self.ind:
            raise ValueError(
                f"can construct between 1 and {self.ind} paths, got {count}"
            )
        base = self.tree_path(subscriber)
        interior = base[1:-1]  # n_1 .. n_d
        paths = []
        for shift in range(count):
            shifted = [self._shifted_sibling(node, shift) for node in interior]
            paths.append([base[0], *shifted, base[-1]])
        return paths

    @staticmethod
    def paths_independent(paths: list[list[Hashable]]) -> bool:
        """Check pairwise node-disjointness (excluding the endpoints)."""
        for i, first in enumerate(paths):
            for second in paths[i + 1:]:
                if set(first[1:-1]) & set(second[1:-1]):
                    return False
        return True

    def path_edges_exist(self, path: list[Hashable]) -> bool:
        """Verify every hop of *path* is an edge of ``G_ind``."""
        edges = {
            (edge.source, edge.target)
            for edge in self.tree_edges() + self.extra_edges()
        }
        return all(
            (a, b) in edges for a, b in zip(path, path[1:])
        )

    # -- construction cost (Fig 8) -----------------------------------------------

    def construction_cost(
        self, paths_per_token: dict[object, int] | None = None
    ) -> float:
        """Route-setup cost of the dissemination network.

        The network sets up ``ind_t`` routes per token ``t`` (each route
        costs one path worth of per-hop state).  With no token map, the
        cost of a single token using all ``ind`` paths is returned.
        Normalizing by the ``ind = 1`` cost reproduces Fig 8's y-axis.
        """
        path_length = self.depth + 1
        if paths_per_token is None:
            return float(self.ind * path_length)
        return float(
            sum(
                min(max(1, paths), self.ind) * path_length
                for paths in paths_per_token.values()
            )
        )

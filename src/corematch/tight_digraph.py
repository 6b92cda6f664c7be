"""Tight digraphs of competitive salary vectors.

At a salary vector y in the worker-space core, the constraints holding with
equality form a digraph on the workers plus a ground node 0 (an arc per tight
row, tail -> head). Connectivity of its base-graph characterizes extremality.
Reachability from / to node 0 characterizes the minimum / maximum vector; the
tests keep that as the oracle of ``core.is_minimum`` / ``core.is_maximum``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from dataclasses import dataclass
from typing import Sequence

from .core import CoreConstraint, CoreConstraintSystem, _require_member, core_constraints
from .market import BalancedMarket
from .matching import Matching


@dataclass(frozen=True)
class TightDigraph:
    """Digraph on nodes 0..n; node 0 is the fixed zero-salary ground node."""

    n_workers: int
    arcs: tuple[CoreConstraint, ...]

    def arc_pairs(self) -> tuple[tuple[int, int], ...]:
        """Deduplicated (tail, head) pairs, sorted."""
        return tuple(sorted({(c.tail, c.head) for c in self.arcs}))

    def _adjacency(self, directed: bool) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_workers + 1)]
        for tail, head in self.arc_pairs():
            adj[tail].append(head)
            if not directed:
                adj[head].append(tail)
        return adj

    def reachable_from(self, start: int, *, directed: bool = True) -> set[int]:
        adj = self._adjacency(directed)
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def base_graph_connected(self) -> bool:
        return len(self.reachable_from(0, directed=False)) == self.n_workers + 1

    def sources(self) -> tuple[int, ...]:
        """Nodes with no incoming arc."""
        heads = {h for _, h in self.arc_pairs()}
        return tuple(v for v in range(self.n_workers + 1) if v not in heads)

    def sinks(self) -> tuple[int, ...]:
        tails = {t for t, _ in self.arc_pairs()}
        return tuple(v for v in range(self.n_workers + 1) if v not in tails)


def build_tight_digraph(
    bm: BalancedMarket, mu: Matching, y: Sequence[Fraction]
) -> TightDigraph:
    """The tight digraph of ``y``; raises unless y is a competitive salary
    vector of the balanced market."""
    return tight_digraph_of_system(core_constraints(bm, mu), y)


def tight_digraph_of_system(
    system: CoreConstraintSystem, y: Sequence[Fraction]
) -> TightDigraph:
    _require_member(system, y)
    return TightDigraph(system.n_workers, system.tight_constraints(y))


def is_extreme(bm: BalancedMarket, mu: Matching, y: Sequence[Fraction]) -> bool:
    """Extremality in the salary polytope: the base-graph of the tight digraph
    is connected, i.e. the tight rows pin down every salary."""
    return build_tight_digraph(bm, mu, y).base_graph_connected()


def to_dot(d: TightDigraph) -> str:
    """Graphviz rendering; node 0 is the ground node, workers by index."""
    lines = ["digraph tight {"]
    for v in range(d.n_workers + 1):
        lines.append(f'  {v} [label="{v}"];')
    for tail, head in d.arc_pairs():
        lines.append(f"  {tail} -> {head};")
    lines.append("}")
    return "\n".join(lines) + "\n"

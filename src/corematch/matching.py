"""Exact optimal-matching solver and coalition values.

The optimum of the income-maximization LP is integral, so it is computed as
a min-cost flow: source -> firm arcs of capacity r_i, firm -> worker arcs of
capacity 1 and cost -a[i][j], worker -> sink arcs of capacity 1.

- Integer weights. The surplus matrix is scaled once by its common
  denominator, so the solver runs on Python ints and stays exact.
- Dijkstra with potentials. Successive shortest paths run Dijkstra on reduced
  costs (Johnson potentials). The initial network is a DAG, so the first
  potentials come from one pass in layer order.
- Binary tie-break. ``optimal_matching`` gives the pair of rank r (in
  (firm, worker) index order, K pairs) the weight a*scale*2^K + 2^(K-1-r).
  Every matching it compares has the same volume and the tie bits sum to less
  than 2^K, so the one solve returns, among the matchings of maximal value,
  the one whose sorted index-pair tuple is lexicographically smallest; the
  value is the weight's quotient by 2^K, divided by the scale.
- Dual certificate. ``certified`` says that every residual arc has a
  non-negative reduced cost under the final potentials, so the residual
  network has no negative cycle and the flow is optimal for its volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .errors import CorematchError, LimitExceededError
from .market import Market
from .rationals import common_denominator

ZERO = Fraction(0)

#: The largest number of workers ``all_optimal_matchings`` enumerates over.
MATCHING_LIMIT = 10


@dataclass(frozen=True)
class Matching:
    """A set of (firm id, worker id) pairs respecting all capacities."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(tuple(p) for p in self.pairs)))

    def workers_of(self, firm_id: str) -> tuple[str, ...]:
        return tuple(w for f, w in self.pairs if f == firm_id)

    def firm_of(self, worker_id: str) -> str | None:
        for f, w in self.pairs:
            if w == worker_id:
                return f
        return None

    def unmatched_workers(self, m: Market) -> tuple[str, ...]:
        matched = {w for _, w in self.pairs}
        return tuple(w for w in m.worker_ids if w not in matched)

    def value(self, m: Market) -> Fraction:
        total = ZERO
        for f, w in self.pairs:
            total += m.matrix[m.firm_index(f)][m.worker_index(w)]
        return total


@dataclass(frozen=True)
class MatchingResult:
    matching: Matching
    value: Fraction
    certified: bool


def matching_arrays(m: Market, matching: Matching) -> tuple[list, list]:
    """Index form of a matching: firm index per worker (or None), workers per firm.

    Raises if the matching violates capacities or references unknown agents.
    """
    firm_of: list[int | None] = [None] * m.n_workers
    workers_of: list[list[int]] = [[] for _ in range(m.n_firms)]
    for f, w in matching.pairs:
        i, j = m.firm_index(f), m.worker_index(w)
        if firm_of[j] is not None:
            raise CorematchError(f"worker {w!r} matched twice")
        firm_of[j] = i
        workers_of[i].append(j)
    for i, ws in enumerate(workers_of):
        if len(ws) > m.capacities[i]:
            raise CorematchError(f"firm {m.firm_ids[i]!r} over capacity")
    return firm_of, workers_of


def _scaled(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """The common denominator of ``matrix`` and the matrix times it, as ints."""
    scale = common_denominator(a for row in matrix for a in row)
    return scale, [
        [a.numerator * (scale // a.denominator) for a in row] for row in matrix
    ]


def _solve(
    weights: Sequence[Sequence[int]],
    caps: Sequence[int],
    volume: int | None = None,
) -> tuple[int, list[tuple[int, int]], bool]:
    """Max-weight flow by successive shortest paths on integer weights.

    Routes exactly ``volume`` units, which the complete bipartite network
    always admits for volume <= min(sum(caps), columns); with ``volume`` None,
    augments while a path adds weight. Returns (total weight, sorted index
    pairs, certified).
    """
    m = len(caps)
    n = len(weights[0]) if weights else 0
    if m == 0 or n == 0:
        return 0, [], True
    sink = m + n + 1
    n_nodes = m + n + 2
    to: list[int] = []
    cap: list[int] = []
    cost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def arc(u: int, v: int, c: int, w: int) -> int:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        cost.append(w)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-w)
        return len(to) - 2

    pair_arcs = []
    for i in range(m):
        arc(0, 1 + i, caps[i], 0)
        for j in range(n):
            pair_arcs.append((i, j, arc(1 + i, 1 + m + j, 1, -weights[i][j])))
    for j in range(n):
        arc(1 + m + j, sink, 1, 0)

    # shortest distances in the initial DAG: 0 at the source and the firms
    pot = [0] * n_nodes
    for j in range(n):
        pot[1 + m + j] = -max(row[j] for row in weights)
    pot[sink] = min(pot[1 + m : sink])

    routed = 0
    while volume is None or routed < volume:
        dist: list[int | None] = [None] * n_nodes
        parent = [-1] * n_nodes
        done = [False] * n_nodes
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, u = heappop(heap)
            if done[u]:
                continue
            done[u] = True
            if u == sink:
                break
            base = d + pot[u]
            for e in adj[u]:
                if cap[e]:
                    v = to[e]
                    nd = base + cost[e] - pot[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = e
                        heappush(heap, (nd, v))
        if not done[sink]:
            break
        # settled nodes move by dist - dist[sink], the rest by 0: every
        # residual arc keeps a non-negative reduced cost, and the path's
        # arcs (and so their reverses) get reduced cost 0
        reach = dist[sink]
        for v in range(n_nodes):
            if done[v]:
                pot[v] += dist[v] - reach
        if volume is None and pot[sink] - pot[0] >= 0:
            break
        v = sink
        while v != 0:
            e = parent[v]
            cap[e] -= 1
            cap[e ^ 1] += 1
            v = to[e ^ 1]
        routed += 1

    pairs = [(i, j) for i, j, e in pair_arcs if cap[e] == 0]
    certified = all(
        cost[e] + pot[u] - pot[to[e]] >= 0
        for u in range(n_nodes)
        for e in adj[u]
        if cap[e]
    )
    return sum(weights[i][j] for i, j in pairs), pairs, certified


def _market_value(
    matrix: Sequence[Sequence[Fraction]], caps: Sequence[int]
) -> Fraction:
    scale, weights = _scaled(matrix)
    total, _, _ = _solve(weights, caps)
    return Fraction(total, scale)


def optimal_matching(m: Market) -> MatchingResult:
    """An optimal matching, deterministically tie-broken.

    Among all matchings of maximal total value that also match as many
    workers as capacities allow (so a capacity-balanced market is fully
    saturated and every worker has an employer), the lexicographically
    smallest pair set under input index order is returned.
    """
    scale, weights = _scaled(m.matrix)
    k = m.n_firms * m.n_workers
    tied = [
        [(w << k) + (1 << (k - 1 - i * m.n_workers - j)) for j, w in enumerate(row)]
        for i, row in enumerate(weights)
    ]
    volume = min(m.total_capacity, m.n_workers)
    total, pairs, certified = _solve(tied, m.capacities, volume)
    matching = Matching(
        tuple((m.firm_ids[i], m.worker_ids[j]) for i, j in pairs)
    )
    return MatchingResult(matching, Fraction(total >> k, scale), certified)


def all_optimal_matchings(m: Market) -> tuple[Matching, ...]:
    """All matchings attaining the optimal value, canonically ordered.

    Exhaustive over worker assignments with an upper-bound prune, so it is
    restricted to markets with at most ``MATCHING_LIMIT`` workers.
    """
    if m.n_workers > MATCHING_LIMIT:
        raise LimitExceededError(
            f"{m.n_workers} workers exceeds the enumeration limit {MATCHING_LIMIT}"
        )
    best = _market_value(m.matrix, m.capacities)
    col_max = [
        max((m.matrix[i][j] for i in range(m.n_firms)), default=ZERO)
        for j in range(m.n_workers)
    ]
    suffix = [ZERO] * (m.n_workers + 1)
    for j in range(m.n_workers - 1, -1, -1):
        suffix[j] = suffix[j + 1] + col_max[j]
    found: list[tuple[tuple[int, int], ...]] = []
    caps = list(m.capacities)
    stack: list[tuple[int, int]] = []

    def descend(j: int, value: Fraction) -> None:
        if value + suffix[j] < best:
            return
        if j == m.n_workers:
            if value == best:
                found.append(tuple(stack))
            return
        descend(j + 1, value)
        for i in range(m.n_firms):
            if caps[i] == 0:
                continue
            caps[i] -= 1
            stack.append((i, j))
            descend(j + 1, value + m.matrix[i][j])
            stack.pop()
            caps[i] += 1

    descend(0, ZERO)
    matchings = sorted(set(found))
    return tuple(
        Matching(tuple((m.firm_ids[i], m.worker_ids[j]) for i, j in pairs))
        for pairs in matchings
    )


def coalition_value(m: Market, firms: Iterable[str], workers: Iterable[str]) -> Fraction:
    """Optimal matching value of the submarket on the given coalition."""
    rows = sorted({m.firm_index(f) for f in firms})
    cols = sorted({m.worker_index(w) for w in workers})
    if not rows or not cols:
        return ZERO
    matrix = [[m.matrix[i][j] for j in cols] for i in rows]
    return _market_value(matrix, [m.capacities[i] for i in rows])


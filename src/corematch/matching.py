"""Exact optimal-matching solver and coalition values.

The optimum of the income-maximization LP is integral, so it is computed here
as a min-cost flow with successive shortest paths over exact rationals:
source -> firm arcs of capacity r_i, firm -> worker arcs of capacity 1 and
cost -a[i][j], worker -> sink arcs of capacity 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CorematchError, LimitExceededError
from .market import Market

ZERO = Fraction(0)


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


class _Flow:
    """Residual network for successive-shortest-path min-cost flow."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[Fraction] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: int, cost: Fraction) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(idx + 1)
        return idx

    def shortest_path(self, s: int, t: int):
        """Bellman-Ford (queue variant); residual arcs may have negative cost."""
        dist: list[Fraction | None] = [None] * self.n
        par_edge: list[int] = [-1] * self.n
        dist[s] = ZERO
        in_queue = [False] * self.n
        queue = deque([s])
        in_queue[s] = True
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            du = dist[u]
            for e in self.adj[u]:
                if self.cap[e] <= 0:
                    continue
                v = self.to[e]
                nd = du + self.cost[e]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    par_edge[v] = e
                    if not in_queue[v]:
                        queue.append(v)
                        in_queue[v] = True
        if dist[t] is None:
            return None, None
        return dist[t], par_edge

    def augment_unit(self, s: int, t: int, par_edge: list[int]) -> None:
        v = t
        while v != s:
            e = par_edge[v]
            self.cap[e] -= 1
            self.cap[e ^ 1] += 1
            v = self.to[e ^ 1]

    def has_negative_cycle(self) -> bool:
        dist = [ZERO] * self.n
        for it in range(self.n):
            changed = False
            for u in range(self.n):
                du = dist[u]
                for e in self.adj[u]:
                    if self.cap[e] <= 0:
                        continue
                    v = self.to[e]
                    nd = du + self.cost[e]
                    if nd < dist[v]:
                        dist[v] = nd
                        changed = True
            if not changed:
                return False
        return changed


def _build_flow(
    matrix: Sequence[Sequence[Fraction]],
    caps: Sequence[int],
    forbid: frozenset[tuple[int, int]],
) -> tuple[_Flow, dict[tuple[int, int], int]]:
    m, n = len(caps), len(matrix[0]) if matrix else 0
    net = _Flow(m + n + 2)
    sink = m + n + 1
    for i in range(m):
        if caps[i] > 0:
            net.add_edge(0, 1 + i, caps[i], ZERO)
    pair_edges = {}
    for i in range(m):
        if caps[i] <= 0:
            continue
        for j in range(n):
            if (i, j) in forbid:
                continue
            pair_edges[(i, j)] = net.add_edge(1 + i, 1 + m + j, 1, -matrix[i][j])
    for j in range(n):
        net.add_edge(1 + m + j, sink, 1, ZERO)
    return net, pair_edges


def _solve(
    matrix: Sequence[Sequence[Fraction]],
    caps: Sequence[int],
    *,
    forbid: frozenset[tuple[int, int]] = frozenset(),
    volume: int | None = None,
    certify: bool = False,
):
    """Min-cost-flow core. With ``volume`` set, routes exactly that many units
    (None if infeasible); otherwise maximizes total value. Returns
    (value, index pairs, certified). The O(V*E) negative-cycle certificate is
    computed only with ``certify`` set; otherwise ``certified`` is False.
    """
    m = len(caps)
    n = len(matrix[0]) if matrix else 0
    if m == 0 or n == 0:
        if volume:
            return None
        return ZERO, [], certify
    net, pair_edges = _build_flow(matrix, caps, forbid)
    sink = m + n + 1
    routed = 0
    value = ZERO
    while True:
        if volume is not None and routed >= volume:
            break
        dist, par = net.shortest_path(0, sink)
        if dist is None:
            if volume is not None:
                return None
            break
        if volume is None and dist >= 0:
            break
        net.augment_unit(0, sink, par)
        value -= dist
        routed += 1
    pairs = [(i, j) for (i, j), e in pair_edges.items() if net.cap[e] == 0]
    certified = certify and not net.has_negative_cycle()
    return value, sorted(pairs), certified


def _market_value(
    matrix: Sequence[Sequence[Fraction]],
    caps: Sequence[int],
    forbid: frozenset[tuple[int, int]] = frozenset(),
) -> Fraction:
    value, _, _ = _solve(matrix, caps, forbid=forbid)
    return value


def optimal_matching(m: Market) -> MatchingResult:
    """An optimal matching, deterministically tie-broken.

    Among all matchings of maximal total value that also match as many
    workers as capacities allow (so a capacity-balanced market is fully
    saturated and every worker has an employer), the lexicographically
    smallest pair set under input index order is returned.
    """
    volume = min(m.total_capacity, m.n_workers)
    solved = _solve(m.matrix, m.capacities, volume=volume, certify=True)
    value, _, certified = solved
    pairs = _lex_smallest_pairs(m, value, volume)
    matching = Matching(
        tuple((m.firm_ids[i], m.worker_ids[j]) for i, j in pairs)
    )
    return MatchingResult(matching, value, certified)


def _lex_smallest_pairs(m: Market, value: Fraction, volume: int) -> list:
    """Greedy lexicographic fixing over candidate pairs.

    A pair is kept iff some matching of full volume and value ``value``
    contains all kept pairs, this one, and none of the discarded ones.
    """
    kept: list[tuple[int, int]] = []
    forbid: set[tuple[int, int]] = set()
    caps = list(m.capacities)
    used_workers: set[int] = set()
    kept_value = ZERO
    for i in range(m.n_firms):
        for j in range(m.n_workers):
            if caps[i] == 0 or j in used_workers:
                continue
            trial_caps = list(caps)
            trial_caps[i] -= 1
            rest = _solve_without(
                m, trial_caps, used_workers | {j}, frozenset(forbid), volume - len(kept) - 1
            )
            if rest is not None and kept_value + m.matrix[i][j] + rest == value:
                kept.append((i, j))
                kept_value += m.matrix[i][j]
                caps[i] -= 1
                used_workers.add(j)
            else:
                forbid.add((i, j))
    if len(kept) != volume:
        raise AssertionError("lexicographic fixing lost the optimum")
    return kept


def _solve_without(
    m: Market,
    caps: Sequence[int],
    removed_workers: set[int],
    forbid: frozenset[tuple[int, int]],
    volume: int,
):
    """Max value over matchings of the reduced market at exactly ``volume``."""
    keep = [j for j in range(m.n_workers) if j not in removed_workers]
    if not keep or all(c == 0 for c in caps):
        return ZERO if volume <= 0 else None
    sub_matrix = [[m.matrix[i][j] for j in keep] for i in range(m.n_firms)]
    sub_forbid = frozenset(
        (i, keep.index(j)) for i, j in forbid if j in keep
    )
    if volume <= 0:
        return ZERO
    solved = _solve(sub_matrix, caps, forbid=sub_forbid, volume=volume)
    if solved is None:
        return None
    return solved[0]


def all_optimal_matchings(m: Market, limit: int = 10) -> tuple[Matching, ...]:
    """All matchings attaining the optimal value, canonically ordered.

    Exhaustive over worker assignments with an upper-bound prune, so it is
    restricted to markets with at most ``limit`` workers.
    """
    if m.n_workers > limit:
        raise LimitExceededError(
            f"{m.n_workers} workers exceeds the enumeration limit {limit}"
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
    fmask = 0
    for f in firms:
        fmask |= 1 << m.firm_index(f)
    wmask = 0
    for w in workers:
        wmask |= 1 << m.worker_index(w)
    return _coalition_value_masks(m, fmask, wmask)


# Keyed on whole markets, so unbounded it would keep every market of a
# long-running process alive; repeated queries on one market still hit.
COALITION_CACHE_SIZE = 128


@lru_cache(maxsize=COALITION_CACHE_SIZE)
def _coalition_value_masks(m: Market, fmask: int, wmask: int) -> Fraction:
    rows = [i for i in range(m.n_firms) if fmask >> i & 1]
    cols = [j for j in range(m.n_workers) if wmask >> j & 1]
    if not rows or not cols:
        return ZERO
    matrix = [[m.matrix[i][j] for j in cols] for i in rows]
    caps = [m.capacities[i] for i in rows]
    return _market_value(matrix, caps)


def enumerate_all_matchings(m: Market, limit: int = 8):
    """Every capacity-feasible matching; the brute-force oracle for tests."""
    if m.n_workers > limit:
        raise LimitExceededError(
            f"{m.n_workers} workers exceeds the enumeration limit {limit}"
        )
    caps = list(m.capacities)
    stack: list[tuple[int, int]] = []
    out: list[tuple[tuple[int, int], ...]] = []

    def descend(j: int) -> None:
        if j == m.n_workers:
            out.append(tuple(stack))
            return
        descend(j + 1)
        for i in range(m.n_firms):
            if caps[i] == 0:
                continue
            caps[i] -= 1
            stack.append((i, j))
            descend(j + 1)
            stack.pop()
            caps[i] += 1

    descend(0)
    return out

"""Worker-space core, competitive equilibria, and extreme salary bounds.

For a market with reference optimal matching mu, the core projects onto
worker salaries as a system of at most n^2 + 2n difference constraints, all
of the form y[head] - y[tail] >= rhs over the node set workers + {0}, where
node 0 carries the fixed salary 0. Firm payoffs are then determined, so
membership, extremality, and the salary bounds can all be decided in this
space. The same rows certify mu: a saturating matching is optimal exactly
when they have a solution.

Public functions take the caller's market and matching, or the
``CoreConstraintSystem`` built from them; only this module sees the
zero-surplus padding (``market.balance``) that the system is built on.

The minimum and maximum competitive salary vectors are the least and the
greatest solution of that system, read off longest paths to and from node 0
by one Bellman-Ford pass each way (``salary_bounds``); ``is_minimum`` and
``is_maximum`` compare a vector with them. The paper's other
characterizations of the two vectors (clone values and marginal
contributions, each a flow solve per worker, and reachability in the tight
digraph) are kept by the test suite as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import CorematchError, NotInCoreError, NotOptimalError
from .game import essential_family
from .market import Market, RawMarket, balance, surplus_matrix
from .matching import (
    Matching,
    _scaled,
    all_optimal_matchings,
    matching_arrays,
    optimal_matching,
)
from .rationals import format_rational

ZERO = Fraction(0)


class Allocation(NamedTuple):
    """Full payoff vector: firm payoffs and worker salaries, in market order."""

    firm_payoffs: tuple[Fraction, ...]
    worker_payoffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class CoreConstraint:
    """One core inequality y[head] - y[tail] >= rhs, with y[0] fixed to 0.

    tail == 0 encodes the lower bound y[head] >= rhs (= 0), head == 0 the
    upper bound -y[tail] >= rhs (= -a[tail's firm][tail]), and worker-worker
    rows the cross-firm difference bounds.
    """

    tail: int
    head: int
    rhs: Fraction


@dataclass(frozen=True)
class CoreConstraintSystem:
    """The worker-space core of a market at a reference optimal matching.

    ``market`` and ``matching`` are the caller's; ``_padded`` is the market
    balanced by ``market.balance``. Nodes 1..n are its workers: the market's,
    then any dummies filling spare seats; node 0 is the ground. ``firm_of``
    is each node's firm index, index market.n_firms being the dummy firm of
    the workers left over when seats are short.

    ``rows`` holds integer triples (tail, head, rhs), each meaning
    y[head] - y[tail] >= rhs / scale. ``least``, the least solution of the
    system, comes from one Bellman-Ford pass over them on its first read; a
    positive cycle raises ``CorematchError`` there.
    """

    market: Market
    matching: Matching
    firm_of: tuple[int, ...]
    scale: int
    rows: tuple[tuple[int, int, int], ...]
    _padded: Market

    @cached_property
    def least(self) -> tuple[Fraction, ...]:
        dist = _longest_paths(self.n_workers + 1, self.rows)
        return tuple(Fraction(d, self.scale) for d in dist[1:])

    @property
    def n_workers(self) -> int:
        """The number of worker nodes, dummies included."""
        return len(self.firm_of)

    @property
    def worker_ids(self) -> tuple[str, ...]:
        """The ids of nodes 1..n: the market's workers, then the dummies."""
        return self._padded.worker_ids

    @property
    def constraints(self) -> tuple[CoreConstraint, ...]:
        """The rows as exact ``CoreConstraint`` values, in row order."""
        s = self.scale
        return tuple(CoreConstraint(t, h, Fraction(w, s)) for t, h, w in self.rows)

    def node_vector(self, y: Sequence) -> tuple:
        """``y`` on all n worker nodes: the market's salaries followed by a
        zero per dummy, or a vector of n salaries as is; other lengths raise."""
        k = self.market.n_workers
        if len(y) not in (k, self.n_workers):
            raise CorematchError(f"expected {k} salaries, got {len(y)}")
        return tuple(y) + (ZERO,) * (self.n_workers - len(y))

    def contains(self, y: Sequence[Fraction]) -> bool:
        """Exact membership test for the competitive salary polytope; ``y``
        holds the salaries of the market's workers or of all n nodes."""
        d, (v,) = _scaled([(0,) + self.node_vector(y)])
        s = self.scale
        return all((v[h] - v[t]) * s >= w * d for t, h, w in self.rows)

    def tight_constraints(self, y: Sequence[Fraction]) -> tuple[CoreConstraint, ...]:
        d, (v,) = _scaled([(0,) + self.node_vector(y)])
        s = self.scale
        return tuple(
            CoreConstraint(t, h, Fraction(w, s))
            for t, h, w in self.rows
            if (v[h] - v[t]) * s == w * d
        )


def _node_firms(m: Market, mu: Matching) -> list[int]:
    """The firm index of every worker node once ``mu`` is extended to the
    balanced market: dummy workers fill each firm's vacancies in firm order,
    and the workers ``mu`` leaves unmatched go to the dummy firm."""
    firm_of, workers_of = matching_arrays(m, mu)
    if len(mu.pairs) < min(m.total_capacity, m.n_workers):
        raise NotOptimalError(
            "reference matching leaves a seat and a worker both free"
        )
    return [m.n_firms if f is None else f for f in firm_of] + [
        i for i, ws in enumerate(workers_of) for _ in range(m.capacities[i] - len(ws))
    ]


def _pair_rows(
    a: Sequence[Sequence[int]], firm_of: Sequence[int], *, same_firm: bool
) -> list[tuple[int, int, int]]:
    """Rows y_k - y_j >= a[firm_of[j]][k] - a[firm_of[j]][j] over the ordered
    worker pairs j != k of different firms, or of one firm with ``same_firm``,
    on the integer matrix ``a``."""
    rows = []
    n = len(firm_of)
    for j in range(n):
        a_j = a[firm_of[j]]
        for k in range(n):
            if k != j and (firm_of[k] == firm_of[j]) == same_firm:
                rows.append((j + 1, k + 1, a_j[k] - a_j[j]))
    return rows


def _same_firm_rows(system: CoreConstraintSystem) -> tuple[tuple[int, int, int], ...]:
    """The pair rows between workers of one firm, on the system's scale."""
    _, a = _scaled(system._padded.matrix)
    return tuple(_pair_rows(a, system.firm_of, same_firm=True))


def core_constraints(m: Market, mu: Matching) -> CoreConstraintSystem:
    """Build the worker-space core system of ``m`` at its optimal matching ``mu``.

    Rows: 0 <= y_j <= a[mu(j)][j] for every worker node, and
    y_k - y_j >= a[mu(j)][k] - a[mu(j)][j] for nodes of different firms,
    all scaled by the common denominator of the matrix.
    The rows certify ``mu``: by LP duality a saturating matching is optimal
    exactly when some salary vector satisfies them, so building the system
    solves it for ``least`` and raises ``NotOptimalError`` on a positive
    cycle, as it does when ``mu`` leaves a seat and a worker both free.
    """
    firm_of = _node_firms(m, mu)
    padded = balance(m).market
    scale, a = _scaled(padded.matrix)
    n = len(firm_of)
    rows = [(0, j + 1, 0) for j in range(n)]
    rows += [(j + 1, 0, -a[firm_of[j]][j]) for j in range(n)]
    rows += _pair_rows(a, firm_of, same_firm=False)
    system = CoreConstraintSystem(m, mu, tuple(firm_of), scale, tuple(rows), padded)
    try:
        system.least
    except CorematchError:
        raise NotOptimalError(
            f"matching value {mu.value(m)} is not optimal: "
            "its core system has a positive cycle"
        ) from None
    return system


def firm_payoffs(system: CoreConstraintSystem, y: Sequence[Fraction]) -> Allocation:
    """The allocation induced by salaries ``y`` (of the market's workers or
    of all n nodes): x_i = sum of a[i][j] - y_j over the workers of firm i."""
    y = system.node_vector(y)
    a = system._padded.matrix
    x = [ZERO] * system.market.n_firms
    for j, i in enumerate(system.firm_of):
        if i < len(x):
            x[i] += a[i][j] - y[j]
    return Allocation(tuple(x), y[: system.market.n_workers])


def _payoff_vector(alloc: Allocation, n_firms: int, n_workers: int) -> list:
    """``alloc`` as one vector, firms first, then workers; raises unless it
    holds ``n_firms`` firm payoffs and ``n_workers`` salaries."""
    nf, nw = len(alloc.firm_payoffs), len(alloc.worker_payoffs)
    if (nf, nw) != (n_firms, n_workers):
        raise CorematchError(
            f"allocation has {nf} firm payoffs and {nw} salaries; "
            f"the market has {n_firms} firms and {n_workers} workers"
        )
    return list(alloc.firm_payoffs) + list(alloc.worker_payoffs)


def core_violation(m: Market, alloc: Allocation) -> frozenset[str] | None:
    """A coalition witnessing that ``alloc`` is not in the core, or None.

    Checks efficiency against the optimal matching value, then coalitional
    rationality over the essential coalitions (``essential_family``), in
    order. The grand coalition is returned when efficiency fails.
    """
    z = _payoff_vector(alloc, m.n_firms, m.n_workers)
    players = m.firm_ids + m.worker_ids
    if sum(z, ZERO) != optimal_matching(m).value:
        return frozenset(players)
    for mask, value in essential_family(m).items():
        if _mask_sum(z, mask) < value:
            return frozenset(p for k, p in enumerate(players) if mask >> k & 1)
    return None


def _mask_sum(values: Sequence[Fraction], mask: int) -> Fraction:
    """The sum of ``values`` over the positions set in ``mask``."""
    return sum((v for k, v in enumerate(values) if mask >> k & 1), ZERO)


def is_core_allocation(m: Market, alloc: Allocation) -> bool:
    """Exact core membership of a full payoff vector."""
    return core_violation(m, alloc) is None


def demand_value(m: Market, i: int, y: Sequence[Fraction]) -> Fraction:
    """Best net value firm i can get from any bundle of at most r_i workers."""
    gains = sorted(
        (m.matrix[i][j] - y[j] for j in range(m.n_workers)), reverse=True
    )
    total = ZERO
    for gain in gains[: m.capacities[i]]:
        if gain <= 0:
            break
        total += gain
    return total


def is_competitive_equilibrium(
    m: Market, mu: Matching, y: Sequence[Fraction]
) -> bool:
    """True iff (mu, y) is a competitive equilibrium: every firm's assigned
    bundle maximizes its net value at salaries y, and unmatched workers have
    zero salary."""
    if len(y) != m.n_workers:
        raise CorematchError(f"expected {m.n_workers} salaries, got {len(y)}")
    if any(v < 0 for v in y):
        return False
    firm_of, workers_of = matching_arrays(m, mu)
    for i in range(m.n_firms):
        bundle = sum((m.matrix[i][j] - y[j] for j in workers_of[i]), ZERO)
        if bundle != demand_value(m, i, y):
            return False
    for j in range(m.n_workers):
        if firm_of[j] is None and y[j] != 0:
            return False
    return True


def market_core_system(m: Market) -> CoreConstraintSystem:
    """The worker-space core system of ``m`` at its optimal matching."""
    return core_constraints(m, optimal_matching(m).matching)


def salary_bounds(
    system: CoreConstraintSystem,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The least and the greatest solution of a difference-constraint system,
    as (lowest, highest) vectors of n salaries.

    The least solution is the longest-path distance from node 0 along arcs
    tail -> head of weight rhs, kept from the pass that built the system; the
    greatest is minus the longest-path distance from node 0 along the
    reversed arcs, by one more Bellman-Ford pass over the integer rows.
    """
    arcs = [(head, tail, w) for tail, head, w in system.rows]
    dist = _longest_paths(system.n_workers + 1, arcs)
    return system.least, tuple(Fraction(-d, system.scale) for d in dist[1:])


def _require_member(
    system: CoreConstraintSystem, y: Sequence, what: str = "competitive salary vector"
) -> tuple:
    """``y`` on all n worker nodes; raises ``NotInCoreError``, showing ``y``
    as given, unless it satisfies every row of the system."""
    if not system.contains(y):
        shown = ", ".join(format_rational(Fraction(v)) for v in y)
        raise NotInCoreError(f"({shown}) is not a {what}")
    return system.node_vector(y)


def is_minimum(system: CoreConstraintSystem, y: Sequence[Fraction]) -> bool:
    """True iff ``y`` is the minimum competitive salary vector, the least
    solution of the core system; raises unless ``y`` is in the core."""
    return _require_member(system, y) == system.least


def is_maximum(system: CoreConstraintSystem, y: Sequence[Fraction]) -> bool:
    """True iff ``y`` is the maximum competitive salary vector, the greatest
    solution of the core system; raises unless ``y`` is in the core."""
    return _require_member(system, y) == salary_bounds(system)[1]


def _longest_paths(n_nodes: int, arcs: Sequence[tuple[int, int, int]]) -> list[int]:
    """Longest-path distances from node 0 by Bellman-Ford, at most n_nodes
    passes: a change in the last pass can only come from a positive cycle."""
    dist: list[int | None] = [None] * n_nodes
    dist[0] = 0
    for _ in range(n_nodes):
        changed = False
        for tail, head, w in arcs:
            d = dist[tail]
            if d is not None and (dist[head] is None or d + w > dist[head]):
                dist[head] = d + w
                changed = True
        if not changed:
            break
    else:
        raise CorematchError("the constraint system has no solution (positive cycle)")
    if None in dist:
        raise CorematchError("the constraint system leaves a salary unbounded")
    return dist


def max_competitive_salaries(m: Market) -> tuple[Fraction, ...]:
    """The worker-optimal salary vector: the greatest solution of the core
    system (the paper's marginal contributions, kept as a test oracle)."""
    return salary_bounds(market_core_system(m))[1][: m.n_workers]


def min_competitive_salaries(m: Market) -> tuple[Fraction, ...]:
    """The firm-optimal salary vector: the least solution of the core system
    (the paper's clone values, kept as a test oracle)."""
    return market_core_system(m).least[: m.n_workers]


@dataclass(frozen=True)
class DecreaseReport:
    """Validity of a constant decrease of one firm's valuations.

    ``within_matched_surplus``: the decrease does not exceed any surplus the
    firm realizes under any optimal matching. ``keeps_optimal_matchings``:
    every optimal matching of the original market stays optimal afterwards.
    """

    firm_id: str
    amount: Fraction
    within_matched_surplus: bool
    keeps_optimal_matchings: bool

    @property
    def valid(self) -> bool:
        return self.within_matched_surplus and self.keeps_optimal_matchings


def constant_decrease(
    raw: RawMarket, firm_id: str, c: Fraction
) -> tuple[RawMarket, DecreaseReport]:
    """Decrease all hire values of one firm by ``c`` (floored at zero) and
    report whether the decrease satisfies the invariance conditions."""
    c = Fraction(c)
    if c < 0:
        raise CorematchError("the decrease must be non-negative")
    market = surplus_matrix(raw)
    i0 = market.firm_index(firm_id)
    new_h = tuple(
        tuple(max(h - c, ZERO) for h in row) if i == i0 else row
        for i, row in enumerate(raw.hire_values)
    )
    decreased_raw = RawMarket(
        raw.firm_ids, raw.capacities, raw.worker_ids, new_h, raw.reservations
    )
    decreased = surplus_matrix(decreased_raw)

    old_optimal = all_optimal_matchings(market)
    within = True
    for mu in old_optimal:
        for w in mu.workers_of(firm_id):
            if c > market.matrix[i0][market.worker_index(w)]:
                within = False
    new_optimal = set(all_optimal_matchings(decreased))
    keeps = all(mu in new_optimal for mu in old_optimal)
    return decreased_raw, DecreaseReport(firm_id, c, within, keeps)


def max_valid_decrease(m: Market, firm_id: str) -> Fraction:
    """The largest valid constant decrease for a firm: the least surplus
    margin a[i0][j] - min_salary_j over its optimally matched workers."""
    i0 = m.firm_index(firm_id)
    system = market_core_system(m)
    # the market's workers come first among the nodes; dummies follow
    matched = [j for j in range(m.n_workers) if system.firm_of[j] == i0]
    if not matched:
        raise CorematchError(
            f"firm {firm_id!r} hires nobody under the optimal matching"
        )
    return min(m.matrix[i0][j] - system.least[j] for j in matched)

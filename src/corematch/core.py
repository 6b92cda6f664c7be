"""Worker-space core, competitive equilibria, and extreme salary bounds.

For a capacity-balanced market with reference optimal matching mu, the core
projects onto worker salaries as a system of at most n^2 + 2n difference
constraints, all of the form y[head] - y[tail] >= rhs over the node set
workers + {0}, where node 0 carries the fixed salary 0. Firm payoffs are then
determined, so membership, extremality, and the salary bounds can all be
decided in this space. The same rows certify mu: a saturating matching is
optimal exactly when they have a solution.

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

from .errors import CorematchError, NotBalancedError, NotInCoreError, NotOptimalError
from .game import essential_family
from .market import BalancedMarket, Market, RawMarket, balance, surplus_matrix
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
    """The worker-space core of a balanced market at a reference matching.

    ``rows`` holds integer triples (tail, head, rhs), each meaning
    y[head] - y[tail] >= rhs / scale. ``least``, the least solution of the
    system, comes from one Bellman-Ford pass over them on its first read; a
    positive cycle raises ``CorematchError`` there.
    """

    bm: BalancedMarket
    matching: Matching
    firm_of: tuple[int, ...]
    scale: int
    rows: tuple[tuple[int, int, int], ...]

    @cached_property
    def least(self) -> tuple[Fraction, ...]:
        dist = _longest_paths(self.n_workers + 1, self.rows)
        return tuple(Fraction(d, self.scale) for d in dist[1:])

    @property
    def n_workers(self) -> int:
        return self.bm.market.n_workers

    @property
    def constraints(self) -> tuple[CoreConstraint, ...]:
        """The rows as exact ``CoreConstraint`` values, in row order."""
        s = self.scale
        return tuple(CoreConstraint(t, h, Fraction(w, s)) for t, h, w in self.rows)

    def contains(self, y: Sequence[Fraction]) -> bool:
        """Exact membership test for the competitive salary polytope; ``y``
        holds the salaries of the original or of the balanced workers."""
        d, (v,) = _scaled([(0,) + self.bm.extend_worker_vector(y)])
        s = self.scale
        return all((v[h] - v[t]) * s >= w * d for t, h, w in self.rows)

    def tight_constraints(self, y: Sequence[Fraction]) -> tuple[CoreConstraint, ...]:
        d, (v,) = _scaled([(0,) + self.bm.extend_worker_vector(y)])
        s = self.scale
        return tuple(
            CoreConstraint(t, h, Fraction(w, s))
            for t, h, w in self.rows
            if (v[h] - v[t]) * s == w * d
        )


def _saturating_arrays(bm: BalancedMarket, mu: Matching) -> tuple[list, list]:
    m = bm.market
    if not m.is_balanced:
        raise NotBalancedError("internal: balanced market expected")
    firm_of, workers_of = matching_arrays(m, mu)
    if any(f is None for f in firm_of):
        raise NotOptimalError(
            "reference matching must assign every worker of the balanced market"
        )
    return firm_of, workers_of


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


def core_constraints(bm: BalancedMarket, mu: Matching) -> CoreConstraintSystem:
    """Build the worker-space core system for ``bm`` at optimal matching ``mu``.

    Rows: 0 <= y_j <= a[mu(j)][j] for every worker, and
    y_k - y_j >= a[mu(j)][k] - a[mu(j)][j] for workers of different firms,
    all scaled by the common denominator of the matrix.
    The rows certify ``mu``: by LP duality a saturating matching is optimal
    exactly when some salary vector satisfies them, so building the system
    solves it for ``least`` and raises ``NotOptimalError`` on a positive cycle.
    """
    m = bm.market
    firm_of, _ = _saturating_arrays(bm, mu)
    scale, a = _scaled(m.matrix)
    n = m.n_workers
    rows = [(0, j + 1, 0) for j in range(n)]
    rows += [(j + 1, 0, -a[firm_of[j]][j]) for j in range(n)]
    rows += _pair_rows(a, firm_of, same_firm=False)
    system = CoreConstraintSystem(bm, mu, tuple(firm_of), scale, tuple(rows))
    try:
        system.least
    except CorematchError:
        raise NotOptimalError(
            f"matching value {mu.value(m)} is not optimal: "
            "its core system has a positive cycle"
        ) from None
    return system


def is_in_worker_core(system: CoreConstraintSystem, y: Sequence[Fraction]) -> bool:
    """True iff ``y`` is a competitive salary vector of the balanced market."""
    return system.contains(y)


def firm_payoffs(
    bm: BalancedMarket, mu: Matching, y: Sequence[Fraction]
) -> Allocation:
    """The allocation induced by salaries ``y``: x_i = sum of a[i][j] - y_j
    over the workers matched to firm i, mapped back to the original market."""
    m = bm.market
    _, workers_of = _saturating_arrays(bm, mu)
    y = bm.extend_worker_vector(y)
    x = []
    for i in range(bm.n_original_firms):
        x.append(sum((m.matrix[i][j] - y[j] for j in workers_of[i]), ZERO))
    return Allocation(tuple(x), bm.strip_worker_vector(y))


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
    """The worker-space core system of ``m``: balanced, at its optimal matching."""
    return _system_at_optimum(balance(m))


def _system_at_optimum(bm: BalancedMarket) -> CoreConstraintSystem:
    """The core system of a balanced market at its optimal matching."""
    return core_constraints(bm, optimal_matching(bm.market).matching)


def salary_bounds(
    system: CoreConstraintSystem,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The least and the greatest solution of a difference-constraint system,
    as (lowest, highest) salary vectors of its balanced market.

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
    """``y`` as a balanced-space vector; raises ``NotInCoreError``, showing
    ``y`` as given, unless it satisfies every row of the system."""
    if not system.contains(y):
        shown = ", ".join(format_rational(Fraction(v)) for v in y)
        raise NotInCoreError(f"({shown}) is not a {what}")
    return system.bm.extend_worker_vector(y)


def is_minimum(bm: BalancedMarket, mu: Matching, y: Sequence[Fraction]) -> bool:
    """True iff ``y`` is the minimum competitive salary vector, the least
    solution of the core system; raises unless ``y`` is in the core."""
    system = core_constraints(bm, mu)
    return _require_member(system, y) == system.least


def is_maximum(bm: BalancedMarket, mu: Matching, y: Sequence[Fraction]) -> bool:
    """True iff ``y`` is the maximum competitive salary vector, the greatest
    solution of the core system; raises unless ``y`` is in the core."""
    system = core_constraints(bm, mu)
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
    system = market_core_system(m)
    return system.bm.strip_worker_vector(salary_bounds(system)[1])


def min_competitive_salaries(m: Market) -> tuple[Fraction, ...]:
    """The firm-optimal salary vector: the least solution of the core system
    (the paper's clone values, kept as a test oracle)."""
    system = market_core_system(m)
    return system.bm.strip_worker_vector(system.least)


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
    raw: RawMarket, firm_id: str, c: Fraction, *, limit: int = 10
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

    old_optimal = all_optimal_matchings(market, limit=limit)
    within = True
    for mu in old_optimal:
        for w in mu.workers_of(firm_id):
            if c > market.matrix[i0][market.worker_index(w)]:
                within = False
    new_optimal = set(all_optimal_matchings(decreased, limit=limit))
    keeps = all(mu in new_optimal for mu in old_optimal)
    return decreased_raw, DecreaseReport(firm_id, c, within, keeps)


def max_valid_decrease(m: Market, firm_id: str) -> Fraction:
    """The largest valid constant decrease for a firm: the least surplus
    margin a[i0][j] - min_salary_j over its optimally matched workers."""
    i0 = m.firm_index(firm_id)
    system = market_core_system(m)
    # original workers come first in the balanced market; dummies follow
    matched = [j for j in range(m.n_workers) if system.firm_of[j] == i0]
    if not matched:
        raise CorematchError(
            f"firm {firm_id!r} hires nobody under the optimal matching"
        )
    return min(m.matrix[i0][j] - system.least[j] for j in matched)

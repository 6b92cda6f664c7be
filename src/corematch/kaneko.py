"""The mirrored buyer-seller market: unit-demand buyers, capacitated sellers.

Transposing the matrix turns this into the job-market model with sellers in
the firm role, so the core machinery is reused directly. The difference sits
in the competitive equilibria: all units of a seller trade at one price, so
the CE payoff set adds difference constraints between buyers of the same
seller and can be strictly smaller than the core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import _kernels
from .core import (
    Allocation,
    CoreConstraintSystem,
    _pair_rows,
    _require_member,
    _system_at_optimum,
    core_constraints,
    firm_payoffs,
)
from .errors import CorematchError
from .market import BalancedMarket, Market, balance
from .matching import Matching, _scaled, matching_arrays, optimal_matching
from .maxmin import _scan
from .tight_digraph import TightDigraph

ZERO = Fraction(0)


@dataclass(frozen=True)
class BuyerMarket:
    """Buyers value one unit each; sellers offer up to their capacity."""

    buyer_ids: tuple[str, ...]
    seller_ids: tuple[str, ...]
    capacities: tuple[int, ...]
    matrix: tuple[tuple[Fraction, ...], ...]  # buyers x sellers

    def __post_init__(self):
        if len(self.matrix) != len(self.buyer_ids) or any(
            len(row) != len(self.seller_ids) for row in self.matrix
        ):
            raise CorematchError("valuation matrix must be buyers x sellers")
        transposed = tuple(
            tuple(self.matrix[i][j] for i in range(len(self.buyer_ids)))
            for j in range(len(self.seller_ids))
        )
        job = Market(self.seller_ids, self.capacities, self.buyer_ids, transposed)
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in self.matrix))
        object.__setattr__(self, "_balanced", balance(job))

    def balanced(self) -> BalancedMarket:
        return self._balanced


def optimal_assignment(b: BuyerMarket) -> Matching:
    """Optimal matching of the balanced transposed market; pairs are
    (seller id, buyer id)."""
    return optimal_matching(b.balanced().market).matching


def buyer_core_constraints(
    b: BuyerMarket, mu: Matching | None = None
) -> CoreConstraintSystem:
    """The buyer-space core: boxes plus difference constraints between buyers
    of different sellers."""
    if mu is None:
        return _system_at_optimum(b.balanced())
    return core_constraints(b.balanced(), mu)


def ce_constraints(
    b: BuyerMarket, mu: Matching | None = None
) -> CoreConstraintSystem:
    """The competitive-equilibrium payoff set: the core constraints plus the
    difference constraints between buyers of the same seller, which force a
    single per-unit price per seller."""
    return _ce_system(buyer_core_constraints(b, mu))


def _ce_system(core: CoreConstraintSystem) -> CoreConstraintSystem:
    """The CE system of a buyer core system: its rows plus the same-seller
    rows. It is not solved: the CE set at an optimal matching is never empty."""
    _, a = _scaled(core.bm.market.matrix)
    extra = _pair_rows(a, core.firm_of, same_firm=True)
    return replace(core, rows=core.rows + tuple(extra))


def seller_payoffs(
    b: BuyerMarket, mu: Matching, x: Sequence[Fraction]
) -> Allocation:
    """Allocation induced by buyer payoffs x: each seller collects the
    residual a[i][j] - x_i over its buyers."""
    return firm_payoffs(b.balanced(), mu, x)


def ce_prices(
    b: BuyerMarket, x: Sequence[Fraction], mu: Matching | None = None
) -> tuple[Fraction, ...]:
    """Per-seller unit prices supporting a CE payoff vector."""
    return _prices(ce_constraints(b, mu), x)


def _prices(
    system: CoreConstraintSystem, x: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Prices of a payoff vector in the CE system ``system``."""
    x = _require_member(system, x, "CE payoff vector")
    m = system.bm.market
    _, buyers_of = matching_arrays(m, system.matching)
    prices = []
    for j in range(system.bm.n_original_firms):
        block = buyers_of[j]
        values = {m.matrix[j][i] - x[i] for i in block}
        if len(values) != 1:
            raise AssertionError("inconsistent prices inside a seller block")
        prices.append(values.pop())
    return tuple(prices)


@dataclass(frozen=True)
class CEVertex:
    buyer_payoffs: tuple[Fraction, ...]
    prices: tuple[Fraction, ...]


def ce_vertices(b: BuyerMarket, *, limit: int = 8) -> tuple[CEVertex, ...]:
    """All extreme CE payoff vectors (projected to the original buyers).

    The max-min scan runs on the CE constraint system, whose predecessor
    bounds span all buyers, same seller or not. That system keeps both box
    rows for every buyer, so the scan returns exactly its vertex set; the
    tests check it against brute-force vertex enumeration. Buyers whose box is a
    single point (dummies, buyers of the dummy seller, zero values) are
    folded into node 0 first: their rows become rows on node 0 shifted by
    the pinned value, so ``limit`` counts only the buyers that are scanned.
    """
    system = ce_constraints(b)
    n = system.n_workers
    low, high, _ = _kernels._scan_tables(n, system.rows)
    # y[k] = z[node[k]] + shift[k] for the scanned vector z (z[0] = 0): free
    # buyers become scan nodes 1, 2, ... and pinned ones node 0
    free = [k + 1 for k in range(n) if low[k] != high[k]]
    node = [0] * (n + 1)
    for new, k in enumerate(free, 1):
        node[k] = new
    shift = [0] + [lo if lo == hi else 0 for lo, hi in zip(low, high)]
    rows = [
        (node[t], node[h], w - shift[h] + shift[t])
        for t, h, w in system.rows
        if node[t] != node[h]
    ]
    _, _, witnesses = _scan(len(free), rows, limit, agents="buyers")
    out = []
    # pinned salaries are constant, so z's order is the order of the vertices
    for z in sorted(witnesses):
        z = (0,) + z
        x = tuple(Fraction(z[i] + d, system.scale) for i, d in zip(node, shift))[1:]
        out.append(CEVertex(system.bm.strip_worker_vector(x), _prices(system, x)))
    return tuple(out)


def extended_tight_digraph(
    b: BuyerMarket, mu: Matching, x: Sequence[Fraction]
) -> TightDigraph:
    """Tight digraph over buyers + ground node built from all CE constraints;
    same-seller equalities contribute arcs in both directions."""
    system = ce_constraints(b, mu)
    _require_member(system, x, "CE payoff vector")
    return TightDigraph(system.n_workers, system.tight_constraints(x))


def ce_equals_core(b: BuyerMarket) -> bool:
    """Sufficient condition for every core element to be competitive: moving
    any buyer from its seller to another seller's buyer slot (swapping with a
    buyer there) never gains in total value."""
    bm = b.balanced()
    m = bm.market
    mu = optimal_matching(m).matching
    _, buyers_of = matching_arrays(m, mu)
    n_sellers = m.n_firms
    for j in range(n_sellers):
        for jp in range(n_sellers):
            if j == jp:
                continue
            for i in buyers_of[j]:
                for ip in buyers_of[jp]:
                    if (
                        m.matrix[jp][i] + m.matrix[j][ip]
                        < m.matrix[j][i] + m.matrix[jp][ip]
                    ):
                        return False
    return True

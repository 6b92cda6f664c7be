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
    CoreConstraintSystem,
    _require_member,
    _same_firm_rows,
    firm_payoffs,
    market_core_system,
)
from .errors import CorematchError
from .market import Market
from .matching import Matching, optimal_matching
from .maxmin import _scan
from .tight_digraph import TightDigraph


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
        object.__setattr__(self, "_job", job)

    def as_job_market(self) -> Market:
        """The transposed market: sellers as firms, buyers as workers."""
        return self._job


def optimal_assignment(b: BuyerMarket) -> Matching:
    """Optimal matching of the transposed market; pairs are
    (seller id, buyer id)."""
    return optimal_matching(b.as_job_market()).matching


def buyer_core_constraints(b: BuyerMarket) -> CoreConstraintSystem:
    """The buyer-space core: boxes plus difference constraints between buyers
    of different sellers, at the optimal assignment."""
    return market_core_system(b.as_job_market())


def ce_constraints(b: BuyerMarket) -> CoreConstraintSystem:
    """The competitive-equilibrium payoff set: the core constraints plus the
    difference constraints between buyers of the same seller, which force a
    single per-unit price per seller."""
    return _ce_system(buyer_core_constraints(b))


def _ce_system(core: CoreConstraintSystem) -> CoreConstraintSystem:
    """The CE system of a buyer core system: its rows plus the same-seller
    rows. It is not solved: the CE set at an optimal matching is never empty."""
    return replace(core, rows=core.rows + _same_firm_rows(core))


def ce_prices(
    system: CoreConstraintSystem, x: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Per-seller unit prices supporting the payoff vector ``x`` of the CE
    system ``system``: every unit goes, to a dummy buyer if need be, at one
    price per seller, so the price is the seller's payoff over its capacity."""
    _require_member(system, x, "CE payoff vector")
    payoffs = firm_payoffs(system, x).firm_payoffs
    return tuple(p / c for p, c in zip(payoffs, system.market.capacities))


@dataclass(frozen=True)
class CEVertex:
    buyer_payoffs: tuple[Fraction, ...]
    prices: tuple[Fraction, ...]


def ce_vertices(b: BuyerMarket) -> tuple[CEVertex, ...]:
    """All extreme CE payoff vectors (projected to the original buyers).

    The max-min scan runs on the CE constraint system, whose predecessor
    bounds span all buyers, same seller or not. That system keeps both box
    rows for every buyer, so the scan returns exactly its vertex set; the
    tests check it against brute-force vertex enumeration. Buyers whose box is a
    single point (dummies, buyers of the dummy seller, zero values) are
    folded into node 0 first: their rows become rows on node 0 shifted by
    the pinned value, so ``maxmin.SCAN_LIMIT`` counts only the buyers that
    are scanned.
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
    _, _, witnesses = _scan(len(free), rows, agents="buyers")
    out = []
    # pinned salaries are constant, so z's order is the order of the vertices
    for z in sorted(witnesses):
        z = (0,) + z
        x = tuple(Fraction(z[i] + d, system.scale) for i, d in zip(node, shift))[1:]
        out.append(CEVertex(x[: len(b.buyer_ids)], ce_prices(system, x)))
    return tuple(out)


def extended_tight_digraph(
    system: CoreConstraintSystem, x: Sequence[Fraction]
) -> TightDigraph:
    """Tight digraph over buyers + ground node built from all rows of the CE
    system ``system``; same-seller equalities contribute arcs in both
    directions."""
    _require_member(system, x, "CE payoff vector")
    return TightDigraph(system.n_workers, system.tight_constraints(x))


def ce_equals_core(b: BuyerMarket) -> bool:
    """Sufficient condition for every core element to be competitive: moving
    any buyer from its seller to another seller's buyer slot (swapping with a
    buyer there) never loses total value.

    Buyers i of seller j and i' of seller j' swap without loss exactly when
    a[j'][i] - a[j][i] + a[j][i'] - a[j'][i'] >= 0, which is the rhs of the
    core row from i to i' plus that of the row back.
    """
    pairs = {(t, h): w for t, h, w in buyer_core_constraints(b).rows if t and h}
    return all(w + pairs[h, t] >= 0 for (t, h), w in pairs.items())

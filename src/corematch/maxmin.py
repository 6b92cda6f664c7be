"""Extended orders and the enumeration of extreme competitive salary vectors.

An extended order is a worker permutation with a minimize/maximize flag per
position. Walking the order, each worker's salary is set tight against the
strongest bound induced by its predecessors (its box bound when none
applies). Every vertex of a difference-constraint system with both box rows
for every worker arises this way, so scanning all n! * 2^n extended orders
over the system's integer rows and keeping the vectors that satisfy every
row yields exactly the vertex set: of the core system here, and of the CE
system in ``kaneko.ce_vertices``. The tests check the scan against two
independent oracles: a ``Fraction`` walk of single orders, and brute-force
vertex enumeration over every nonsingular n-subset of rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from . import _kernels
from .core import Allocation, _system_at_optimum, firm_payoffs
from .errors import LimitExceededError
from .market import BalancedMarket
from .matching import _scaled


@dataclass(frozen=True)
class ExtendedOrder:
    """A worker permutation with a maximize flag per position."""

    workers: tuple[str, ...]
    maximize: tuple[bool, ...]

    def __post_init__(self):
        if len(self.workers) != len(self.maximize):
            raise ValueError("one flag per position is required")

    def label(self) -> str:
        return "(" + ", ".join(
            f"{w}{'+' if up else '-'}" for w, up in zip(self.workers, self.maximize)
        ) + ")"


@dataclass(frozen=True)
class ExtremePoint:
    """An extreme salary vector with its witnesses and induced allocation."""

    salaries: tuple[Fraction, ...]
    allocation: Allocation
    witnesses: tuple[ExtendedOrder, ...]


@dataclass(frozen=True)
class ExtremeSet:
    points: tuple[ExtremePoint, ...]

    def salary_vectors(self) -> frozenset[tuple[Fraction, ...]]:
        return frozenset(p.salaries for p in self.points)

    def witness_count(self) -> int:
        return sum(len(p.witnesses) for p in self.points)


def _scan(n: int, rows, limit: int, collect_rows=False, agents="workers"):
    """Run the extended-order scan over integer rows on nodes 0..n."""
    if n > limit:
        raise LimitExceededError(f"{n} {agents} exceeds the enumeration limit {limit}")
    perms = list(permutations(range(n)))
    table, witnesses = _kernels.scan_orders(perms, n, rows, collect_rows)
    return perms, table, witnesses


def _order_from_code(m, perm, bits: int) -> ExtendedOrder:
    n = len(perm)
    return ExtendedOrder(
        tuple(m.worker_ids[perm[pos]] for pos in range(n)),
        tuple(bool(bits >> (n - 1 - pos) & 1) for pos in range(n)),
    )


def enumerate_extremes(bm: BalancedMarket, *, limit: int = 8) -> ExtremeSet:
    """All extreme competitive salary vectors, with every witnessing extended
    order and the induced allocation on the original market."""
    system = _system_at_optimum(bm)
    perms, _, witnesses = _scan(system.n_workers, system.rows, limit)
    m = bm.market
    points = []
    for vec in sorted(witnesses):
        salaries = tuple(Fraction(v, system.scale) for v in vec)
        orders = tuple(
            _order_from_code(m, perms[pi], bits) for pi, bits in witnesses[vec]
        )
        points.append(
            ExtremePoint(
                salaries, firm_payoffs(bm, system.matching, salaries), orders
            )
        )
    return ExtremeSet(tuple(points))


def maxmin_table(
    bm: BalancedMarket, *, limit: int = 8
) -> list[tuple[ExtendedOrder, tuple[Fraction, ...], bool]]:
    """Every extended order with its max-min vector and core membership flag,
    in enumeration order (permutations lexicographic, min flags first)."""
    system = _system_at_optimum(bm)
    perms, table, _ = _scan(system.n_workers, system.rows, limit, collect_rows=True)
    return [
        (
            _order_from_code(bm.market, perms[pi], bits),
            tuple(Fraction(v, system.scale) for v in vec),
            ok,
        )
        for pi, bits, vec, ok in table
    ]


def witnesses_for(
    bm: BalancedMarket, y: Sequence[Fraction], *, limit: int = 8
) -> tuple[ExtendedOrder, ...]:
    """All extended orders whose max-min vector equals ``y``.

    ``y`` holds the salaries of the original or of the balanced workers; any
    other length raises. Only extreme competitive salary vectors have
    witnesses; anything else yields an empty tuple with a warning.
    """
    d, (v,) = _scaled([bm.extend_worker_vector(y)])
    system = _system_at_optimum(bm)
    perms, _, witnesses = _scan(system.n_workers, system.rows, limit)
    # y times the system's scale is an integer vector exactly when d divides it
    s = system.scale
    codes = witnesses.get(tuple(x * (s // d) for x in v)) if s % d == 0 else None
    if not codes:
        warnings.warn(
            "no extended order produces this vector; it is not an extreme "
            "competitive salary vector",
            stacklevel=2,
        )
        return ()
    return tuple(_order_from_code(bm.market, perms[pi], bits) for pi, bits in codes)


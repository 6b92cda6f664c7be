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
from .core import Allocation, CoreConstraintSystem, firm_payoffs
from .errors import LimitExceededError
from .matching import _scaled

#: The largest number of agents the n! * 2^n scan runs over.
SCAN_LIMIT = 8


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


def _scan(n: int, rows, collect_rows=False, agents="workers"):
    """Run the extended-order scan over integer rows on nodes 0..n."""
    if n > SCAN_LIMIT:
        raise LimitExceededError(
            f"{n} {agents} exceeds the enumeration limit {SCAN_LIMIT}"
        )
    perms = list(permutations(range(n)))
    table, witnesses = _kernels.scan_orders(perms, n, rows, collect_rows)
    return perms, table, witnesses


def _order_from_code(worker_ids, perm, bits: int) -> ExtendedOrder:
    n = len(perm)
    return ExtendedOrder(
        tuple(worker_ids[perm[pos]] for pos in range(n)),
        tuple(bool(bits >> (n - 1 - pos) & 1) for pos in range(n)),
    )


def enumerate_extremes(system: CoreConstraintSystem) -> ExtremeSet:
    """All extreme competitive salary vectors, with every witnessing extended
    order and the induced allocation on the market."""
    perms, _, witnesses = _scan(system.n_workers, system.rows)
    ids = system.worker_ids
    points = []
    for vec in sorted(witnesses):
        salaries = tuple(Fraction(v, system.scale) for v in vec)
        orders = tuple(
            _order_from_code(ids, perms[pi], bits) for pi, bits in witnesses[vec]
        )
        points.append(ExtremePoint(salaries, firm_payoffs(system, salaries), orders))
    return ExtremeSet(tuple(points))


def maxmin_table(
    system: CoreConstraintSystem,
) -> list[tuple[ExtendedOrder, tuple[Fraction, ...], bool]]:
    """Every extended order with its max-min vector and core membership flag,
    in enumeration order (permutations lexicographic, min flags first)."""
    perms, table, _ = _scan(system.n_workers, system.rows, collect_rows=True)
    return [
        (
            _order_from_code(system.worker_ids, perms[pi], bits),
            tuple(Fraction(v, system.scale) for v in vec),
            ok,
        )
        for pi, bits, vec, ok in table
    ]


def witnesses_for(
    system: CoreConstraintSystem, y: Sequence[Fraction]
) -> tuple[ExtendedOrder, ...]:
    """All extended orders whose max-min vector equals ``y``.

    ``y`` holds the salaries of the market's workers or of all n nodes; any
    other length raises. Only extreme competitive salary vectors have
    witnesses; anything else yields an empty tuple with a warning.
    """
    d, (v,) = _scaled([system.node_vector(y)])
    perms, _, witnesses = _scan(system.n_workers, system.rows)
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
    ids = system.worker_ids
    return tuple(_order_from_code(ids, perms[pi], bits) for pi, bits in codes)


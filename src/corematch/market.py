"""Market data model: raw valuations, surplus matrices, capacity balancing.

A many-to-one assignment market has firms with integer capacities on one side
and unit-capacity workers on the other. The surplus ``a[i][j]`` is the joint
income a firm-worker pair can generate, shared through the worker's salary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CorematchError

#: Reserved prefix for generated dummy agents; rejected in user input.
DUMMY_PREFIX = "__dummy"

ZERO = Fraction(0)


def _check_ids(ids: Sequence[str], side: str) -> tuple[str, ...]:
    out = tuple(str(i) for i in ids)
    if len(set(out)) != len(out):
        raise CorematchError(f"duplicate {side} ids: {sorted(out)}")
    for i in out:
        if i.startswith(DUMMY_PREFIX):
            raise CorematchError(
                f"{side} id {i!r} uses the reserved prefix {DUMMY_PREFIX!r}"
            )
    return out


def _check_sides_disjoint(firm_ids, worker_ids) -> None:
    clash = set(firm_ids) & set(worker_ids)
    if clash:
        raise CorematchError(
            f"ids used on both sides: {sorted(clash)}; players must be distinct"
        )


def _check_matrix(
    matrix: Sequence[Sequence[Fraction]], n_rows: int, n_cols: int, what: str
) -> tuple[tuple[Fraction, ...], ...]:
    if len(matrix) != n_rows:
        raise CorematchError(f"{what} has {len(matrix)} rows, expected {n_rows}")
    rows = []
    for r, row in enumerate(matrix):
        if len(row) != n_cols:
            raise CorematchError(
                f"{what} row {r} has {len(row)} entries, expected {n_cols}"
            )
        vals = tuple(Fraction(v) for v in row)
        for c, v in enumerate(vals):
            if v < 0:
                raise CorematchError(f"{what}[{r}][{c}] = {v} is negative")
        rows.append(vals)
    return tuple(rows)


@dataclass(frozen=True)
class RawMarket:
    """A market described by hire values h[i][j] and reservation values t[j]."""

    firm_ids: tuple[str, ...]
    capacities: tuple[int, ...]
    worker_ids: tuple[str, ...]
    hire_values: tuple[tuple[Fraction, ...], ...]
    reservations: tuple[Fraction, ...]

    def __post_init__(self):
        firm_ids = _check_ids(self.firm_ids, "firm")
        worker_ids = _check_ids(self.worker_ids, "worker")
        _check_sides_disjoint(firm_ids, worker_ids)
        caps = tuple(int(c) for c in self.capacities)
        if len(caps) != len(firm_ids):
            raise CorematchError("capacities and firm ids differ in length")
        for fid, c in zip(firm_ids, caps):
            if c < 1:
                raise CorematchError(
                    f"firm {fid!r} has capacity {c}; omit firms that cannot hire"
                )
        h = _check_matrix(self.hire_values, len(firm_ids), len(worker_ids), "h")
        t = tuple(Fraction(v) for v in self.reservations)
        if len(t) != len(worker_ids):
            raise CorematchError("reservations and worker ids differ in length")
        for wid, v in zip(worker_ids, t):
            if v < 0:
                raise CorematchError(f"reservation of worker {wid!r} is negative")
        object.__setattr__(self, "firm_ids", firm_ids)
        object.__setattr__(self, "worker_ids", worker_ids)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "hire_values", h)
        object.__setattr__(self, "reservations", t)


@dataclass(frozen=True)
class Market:
    """A market given directly by its non-negative surplus matrix."""

    firm_ids: tuple[str, ...]
    capacities: tuple[int, ...]
    worker_ids: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    _allow_dummy_ids: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self._allow_dummy_ids:
            firm_ids = tuple(str(i) for i in self.firm_ids)
            worker_ids = tuple(str(i) for i in self.worker_ids)
        else:
            firm_ids = _check_ids(self.firm_ids, "firm")
            worker_ids = _check_ids(self.worker_ids, "worker")
            _check_sides_disjoint(firm_ids, worker_ids)
        caps = tuple(int(c) for c in self.capacities)
        if len(caps) != len(firm_ids):
            raise CorematchError("capacities and firm ids differ in length")
        for fid, c in zip(firm_ids, caps):
            if c < 1:
                raise CorematchError(
                    f"firm {fid!r} has capacity {c}; omit firms that cannot hire"
                )
        a = _check_matrix(self.matrix, len(firm_ids), len(worker_ids), "surplus")
        object.__setattr__(self, "firm_ids", firm_ids)
        object.__setattr__(self, "worker_ids", worker_ids)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "matrix", a)

    @property
    def n_firms(self) -> int:
        return len(self.firm_ids)

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    @property
    def is_balanced(self) -> bool:
        return self.total_capacity == self.n_workers

    def firm_index(self, firm_id: str) -> int:
        try:
            return self.firm_ids.index(firm_id)
        except ValueError:
            raise CorematchError(f"unknown firm id {firm_id!r}") from None

    def worker_index(self, worker_id: str) -> int:
        try:
            return self.worker_ids.index(worker_id)
        except ValueError:
            raise CorematchError(f"unknown worker id {worker_id!r}") from None


@dataclass(frozen=True)
class BalancedMarket:
    """A market padded with zero-surplus dummies so total capacity equals n.

    ``market`` is the padded market, ``original`` the market it was built
    from. Dummy workers are appended after the original workers; a dummy firm,
    if needed, is appended after the original firms. Dropping the dummies
    recovers ``original`` exactly.
    """

    market: Market
    original: Market
    dummy_worker_ids: tuple[str, ...]
    dummy_firm_id: str | None

    @property
    def n_original_workers(self) -> int:
        return self.original.n_workers

    @property
    def n_original_firms(self) -> int:
        return self.original.n_firms

    def strip_worker_vector(self, values: Sequence) -> tuple:
        """Project a balanced-space worker vector onto the original workers."""
        return tuple(values[: self.n_original_workers])

    def extend_worker_vector(self, values: Sequence) -> tuple:
        """A balanced-space worker vector: an original-space vector extended
        with zeros for the dummies, or a balanced-space vector as is."""
        if len(values) == self.market.n_workers:
            return tuple(values)
        if len(values) != self.n_original_workers:
            raise CorematchError(
                f"expected {self.market.n_workers} salaries, got {len(values)}"
            )
        return tuple(values) + (ZERO,) * len(self.dummy_worker_ids)


def surplus_matrix(raw: RawMarket) -> Market:
    """Derive the surplus market: a[i][j] = max(h[i][j] - t[j], 0)."""
    a = tuple(
        tuple(max(h - t, ZERO) for h, t in zip(row, raw.reservations))
        for row in raw.hire_values
    )
    return Market(raw.firm_ids, raw.capacities, raw.worker_ids, a)


def balance(m: Market) -> BalancedMarket:
    """Pad ``m`` with zero-surplus dummies until total capacity equals n.

    If capacity exceeds the worker count the difference is filled with dummy
    workers (zero columns); in the opposite case a single dummy firm absorbs
    the extra workers (zero row). An already balanced market is wrapped as is.
    """
    total = m.total_capacity
    n = m.n_workers
    if total == n:
        return BalancedMarket(m, m, (), None)
    if total > n:
        extra = total - n
        dummy_ids = tuple(f"{DUMMY_PREFIX}_w{k}" for k in range(extra))
        matrix = tuple(row + (ZERO,) * extra for row in m.matrix)
        padded = Market(
            m.firm_ids,
            m.capacities,
            m.worker_ids + dummy_ids,
            matrix,
            _allow_dummy_ids=True,
        )
        return BalancedMarket(padded, m, dummy_ids, None)
    dummy_firm = f"{DUMMY_PREFIX}_f0"
    matrix = m.matrix + ((ZERO,) * n,)
    padded = Market(
        m.firm_ids + (dummy_firm,),
        m.capacities + (n - total,),
        m.worker_ids,
        matrix,
        _allow_dummy_ids=True,
    )
    return BalancedMarket(padded, m, (), dummy_firm)


def restrict(m: Market, firms: Iterable[str], workers: Iterable[str]) -> Market:
    """Submarket on the given firm and worker ids, capacities carried over."""
    f_idx = sorted(m.firm_index(f) for f in firms)
    w_idx = sorted(m.worker_index(w) for w in workers)
    return Market(
        tuple(m.firm_ids[i] for i in f_idx),
        tuple(m.capacities[i] for i in f_idx),
        tuple(m.worker_ids[j] for j in w_idx),
        tuple(tuple(m.matrix[i][j] for j in w_idx) for i in f_idx),
        _allow_dummy_ids=True,
    )

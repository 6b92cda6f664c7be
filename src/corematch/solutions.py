"""Classical cooperative solutions on assignment games.

Kernel membership via pairwise maximum surpluses, the nucleolus by the
iterated LP scheme over exact rationals, the Shapley value, the tau value,
the fair-division point, and the dominant-diagonal / convexity structure
tests.

The nucleolus and the kernel test for core points read only the market's
essential coalitions (``game.essential_family``); the rest take the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .core import (
    Allocation,
    _mask_sum,
    _payoff_vector,
    core_constraints,
    core_violation,
    firm_payoffs,
    market_core_system,
    salary_bounds,
)
from .errors import (
    NotBalancedError,
    NotDominantDiagonalError,
    NotImputationError,
    NotInCoreError,
    UndefinedSolutionError,
)
from .exact_lp import solve_affine, solve_lp
from .game import GameTable, essential_family
from .market import Market
from .matching import Matching, all_optimal_matchings, matching_arrays, optimal_matching

ZERO = Fraction(0)
ONE = Fraction(1)


def _require_imputation(g: GameTable, z: Sequence[Fraction]) -> None:
    if sum(z, ZERO) != g.values[g.grand_mask]:
        raise NotImputationError("allocation is not efficient")
    for i, zi in enumerate(z):
        if zi < g.values[1 << i]:
            raise NotImputationError(
                f"player {g.players[i]!r} is below its stand-alone value"
            )


def max_surplus(g: GameTable, alloc: Allocation, i: str, j: str) -> Fraction:
    """s_ij: the largest excess over coalitions containing i but not j."""
    z = _payoff_vector(alloc, g.n_firms, g.n_players - g.n_firms)
    _require_imputation(g, z)
    sums = g.payoff_sums(z)
    return _max_surplus_masked(g, sums, g.player_index(i), g.player_index(j))


def _max_surplus_masked(g, sums, i: int, j: int) -> Fraction:
    ibit, jbit = 1 << i, 1 << j
    best = None
    for mask in range(1, g.grand_mask + 1):
        if mask & ibit and not mask & jbit:
            e = g.values[mask] - sums[mask]
            if best is None or e > best:
                best = e
    return best


def is_in_kernel(g: GameTable, alloc: Allocation) -> bool:
    """Kernel membership: s_ij(z) = s_ji(z) for every pair of players."""
    z = _payoff_vector(alloc, g.n_firms, g.n_players - g.n_firms)
    _require_imputation(g, z)
    sums = g.payoff_sums(z)
    for i in range(g.n_players):
        for j in range(i + 1, g.n_players):
            if _max_surplus_masked(g, sums, i, j) != _max_surplus_masked(
                g, sums, j, i
            ):
                return False
    return True


def kernel_core_test(m: Market, alloc: Allocation) -> bool:
    """Kernel membership for core allocations, using the two reductions that
    hold inside the core: surpluses are maximized over the essential
    coalitions only, and only pairs sharing a block in every optimal
    matching matter."""
    if core_violation(m, alloc) is not None:
        raise NotInCoreError("allocation is outside the core")
    z = _payoff_vector(alloc, m.n_firms, m.n_workers)
    excess = {s: v - _mask_sum(z, s) for s, v in essential_family(m).items()}

    def surplus(i: int, j: int) -> Fraction:
        ibit, jbit = 1 << i, 1 << j
        return max(e for s, e in excess.items() if s & ibit and not s & jbit)

    return all(surplus(i, j) == surplus(j, i) for i, j in _inseparable_pairs(m))


def _inseparable_pairs(m: Market):
    """Player index pairs lying in a common block under every optimal
    matching; all other pairs are automatically balanced at core points."""
    # a player's block is named by its firm; an unmatched worker j is alone
    blocks = []
    for mu in all_optimal_matchings(m):
        firm_of, _ = matching_arrays(m, mu)
        blocks.append(
            list(range(m.n_firms))
            + [~j if f is None else f for j, f in enumerate(firm_of)]
        )
    n = m.n_firms + m.n_workers
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if all(b[i] == b[j] for b in blocks)
    ]


def nucleolus(m: Market) -> Allocation:
    """The lexicographic minimizer of sorted excesses over efficient vectors.

    Iterated scheme: minimize the largest excess by LP, pin the coalitions
    whose excess cannot leave that level, repeat on the rest until the pinned
    equalities determine the allocation. Only the essential coalitions
    (``game.essential_family``) enter the programs; for assignment games the
    rest never decide the nucleolus.
    """
    values = essential_family(m)
    grand = optimal_matching(m).value
    return _nucleolus(m.n_firms + m.n_workers, m.n_firms, grand, values, list(values))


def _nucleolus(n, n_firms, grand, values, masks) -> Allocation:
    """The iterated LP scheme over the coalitions ``masks`` (the grand one
    excluded), with ``values[mask]`` the worth of each and of every
    singleton."""
    if n == 1:
        return _split_allocation(n_firms, [grand])

    # shift to non-negative LP variables: with e0 an upper bound on the first
    # level, z_i = (v({i}) - e0) + w_i and eps = e0 - d cut nothing relevant
    share = Fraction(grand, n)
    e0 = max(values[s] - share * s.bit_count() for s in masks)
    lb = [values[1 << i] - e0 for i in range(n)]
    lp = _NucleolusLP(n, grand, lb, e0, values)

    settled: list[tuple[int, Fraction]] = []  # (mask, pinned coalition payoff)
    remaining = list(masks)
    while True:
        solution = lp.pinned_solution(settled)
        if solution is not None:
            return _split_allocation(n_firms, solution)
        if not remaining:
            raise AssertionError("equality system stalled before full rank")
        sol = solve_lp(*lp.level_program(settled, remaining))
        d_star = sol.x[n]
        eps = e0 - d_star
        z = [lb[i] + sol.x[i] for i in range(n)]
        tight = []
        newly = []
        for k, s in enumerate(remaining):
            if _mask_sum(z, s) + eps == values[s]:
                tight.append(k)
                if sol.ub_multiplier_nonzero[k]:
                    newly.append(k)
        if not newly:
            for k in tight:
                s = remaining[k]
                best = solve_lp(
                    *lp.face_program(settled, remaining, s, d_star)
                )
                if _mask_sum(lb, s) - best.objective == values[s] - eps:
                    newly.append(k)
        if not newly:
            raise AssertionError("no coalition settled at the optimal level")
        for k in newly:
            s = remaining[k]
            settled.append((s, values[s] - eps))
        for k in sorted(newly, reverse=True):
            del remaining[k]


class _NucleolusLP:
    """Row builders for the shifted level programs.

    Variables are w_0..w_{n-1}, d, all non-negative, with z_i = lb_i + w_i
    and eps = e0 - d.
    """

    def __init__(self, n, grand, lb, e0, values):
        self.n = n
        self.grand = grand
        self.lb = lb
        self.e0 = e0
        self.values = values

    def _eq_rows(self, settled):
        n = self.n
        rows = [([ONE] * n + [ZERO], self.grand - sum(self.lb, ZERO))]
        for s, payoff in settled:
            coeffs = [ONE if s >> i & 1 else ZERO for i in range(n)] + [ZERO]
            rows.append((coeffs, payoff - _mask_sum(self.lb, s)))
        return rows

    def _ub_rows(self, remaining):
        # z(S) + eps >= v(S) becomes -w(S) + d <= lb(S) + e0 - v(S)
        n = self.n
        rows = []
        for s in remaining:
            coeffs = [-ONE if s >> i & 1 else ZERO for i in range(n)] + [ONE]
            rows.append((coeffs, _mask_sum(self.lb, s) + self.e0 - self.values[s]))
        return rows

    def level_program(self, settled, remaining):
        c = [ZERO] * self.n + [-ONE]  # minimize -d, i.e. minimize eps
        return c, self._eq_rows(settled), self._ub_rows(remaining)

    def face_program(self, settled, remaining, s, d_star):
        # maximize z(S) over the optimal face (d pinned at d_star)
        c = [-ONE if s >> i & 1 else ZERO for i in range(self.n)] + [ZERO]
        eq = self._eq_rows(settled)
        eq.append(([ZERO] * self.n + [ONE], d_star))
        return c, eq, self._ub_rows(remaining)

    def pinned_solution(self, settled):
        rows = [([ONE] * self.n, self.grand)]
        for s, payoff in settled:
            rows.append(
                ([ONE if s >> i & 1 else ZERO for i in range(self.n)], payoff)
            )
        rank, solution = solve_affine(rows, self.n)
        return solution


def _split_allocation(n_firms: int, z: Sequence[Fraction]) -> Allocation:
    return Allocation(tuple(z[:n_firms]), tuple(z[n_firms:]))


def shapley(g: GameTable) -> Allocation:
    """The Shapley value: averaged marginal contributions, exact rationals."""
    n = g.n_players
    fact = [factorial(k) for k in range(n + 1)]
    total = fact[n]
    out = [ZERO] * n
    for mask in range(g.grand_mask + 1):
        size = mask.bit_count()
        weight = Fraction(fact[size] * fact[n - 1 - size], total) if size < n else None
        if weight is None:
            continue
        v_s = g.values[mask]
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                out[i] += weight * (g.values[mask | bit] - v_s)
    return _split_allocation(g.n_firms, out)


def tau_value(g: GameTable) -> Allocation:
    """The tau value: the efficient compromise between the utopia vector
    M_i = v(N) - v(N \\ i) and the minimum-rights vector
    m_i = max over S containing i of v(S) - M(S \\ i)."""
    n = g.n_players
    grand = g.values[g.grand_mask]
    utopia = [g.dual_mask(1 << i) for i in range(n)]
    rights = list(utopia)
    for i in range(n):
        bit = 1 << i
        best = None
        for mask in range(g.grand_mask + 1):
            if not mask & bit:
                continue
            rest = mask ^ bit
            concession = sum(
                (utopia[k] for k in range(n) if rest >> k & 1), ZERO
            )
            cand = g.values[mask] - concession
            if best is None or cand > best:
                best = cand
        rights[i] = best
    for mi, ui in zip(rights, utopia):
        if mi > ui:
            raise UndefinedSolutionError(
                "minimum rights exceed the utopia payoff; tau value undefined"
            )
    m_total = sum(rights, ZERO)
    u_total = sum(utopia, ZERO)
    if u_total == m_total:
        if m_total != grand:
            raise UndefinedSolutionError(
                "degenerate utopia span cannot be scaled to efficiency"
            )
        return _split_allocation(g.n_firms, rights)
    kappa = (grand - m_total) / (u_total - m_total)
    return _split_allocation(
        g.n_firms, [mi + kappa * (ui - mi) for mi, ui in zip(rights, utopia)]
    )


def fair_division(m: Market) -> Allocation:
    """Midpoint of the firm-optimal and worker-optimal core allocations."""
    system = market_core_system(m)
    lowest, highest = salary_bounds(system)
    at_min = firm_payoffs(system, lowest)
    at_max = firm_payoffs(system, highest)
    half = Fraction(1, 2)
    return Allocation(
        tuple((a + b) * half for a, b in zip(at_min.firm_payoffs, at_max.firm_payoffs)),
        tuple(
            (a + b) * half
            for a, b in zip(at_min.worker_payoffs, at_max.worker_payoffs)
        ),
    )


@dataclass(frozen=True)
class DominantDiagonalCheck:
    """Outcome of the dominant-diagonal test at a witness optimal matching.

    Condition 1: each firm's assigned workers form a best possible bundle of
    its row. Condition 2: each worker's assigned surplus tops its column.
    The property does not depend on which optimal matching is inspected.
    """

    holds: bool
    matching: Matching
    condition1_failures: tuple[str, ...]
    condition2_failures: tuple[str, ...]


def has_dominant_diagonal(m: Market) -> DominantDiagonalCheck:
    """Check whether each firm holds a best bundle and each worker a best
    firm under the optimal matching; requires a capacity-balanced market."""
    if not m.is_balanced:
        raise NotBalancedError("dominant diagonal is defined for balanced markets")
    mu = optimal_matching(m).matching
    firm_of, workers_of = matching_arrays(m, mu)
    bad_firms = []
    for i in range(m.n_firms):
        matched = sum((m.matrix[i][j] for j in workers_of[i]), ZERO)
        best = sum(sorted(m.matrix[i], reverse=True)[: m.capacities[i]], ZERO)
        if matched < best:
            bad_firms.append(m.firm_ids[i])
    bad_workers = []
    for j in range(m.n_workers):
        diag = m.matrix[firm_of[j]][j]
        if any(m.matrix[i][j] > diag for i in range(m.n_firms)):
            bad_workers.append(m.worker_ids[j])
    return DominantDiagonalCheck(
        not bad_firms and not bad_workers,
        mu,
        tuple(bad_firms),
        tuple(bad_workers),
    )


def side_optimal_allocations(m: Market) -> tuple[Allocation, Allocation]:
    """(firm-optimal, worker-optimal) core allocations of a dominant-diagonal
    market: all surplus to the matched firm, respectively to the worker."""
    check = has_dominant_diagonal(m)
    if not check.holds:
        raise NotDominantDiagonalError(
            "side-optimal closed forms require a dominant diagonal"
        )
    firm_of, workers_of = matching_arrays(m, check.matching)
    x_f = tuple(
        sum((m.matrix[i][j] for j in workers_of[i]), ZERO)
        for i in range(m.n_firms)
    )
    y_w = tuple(m.matrix[firm_of[j]][j] for j in range(m.n_workers))
    zeros_w = (ZERO,) * m.n_workers
    zeros_f = (ZERO,) * m.n_firms
    system = core_constraints(m, check.matching)
    if not (system.contains(zeros_w) and system.contains(y_w)):
        raise AssertionError("side-optimal vectors left the core")
    return Allocation(x_f, zeros_w), Allocation(zeros_f, y_w)


def is_convex_market(m: Market) -> bool:
    """Convexity of the assignment game, read off the matrix: no row has more
    positive entries than the firm's capacity and no column more than one."""
    for i in range(m.n_firms):
        if sum(1 for v in m.matrix[i] if v > 0) > m.capacities[i]:
            return False
    for j in range(m.n_workers):
        if sum(1 for i in range(m.n_firms) if m.matrix[i][j] > 0) > 1:
            return False
    return True

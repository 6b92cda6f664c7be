"""Coalitional games built from markets.

A :class:`GameTable` stores the coalition value v(S) for every subset of the
players (firms first, then workers), bitmask indexed, for the solutions that
need every coalition: Shapley, tau, kernel, dual games, marginal and lemaral
vectors. The core and the nucleolus need only the essential coalitions,
which ``essential_family`` reads off the surplus matrix without the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import CorematchError, LimitExceededError
from .market import Market

ZERO = Fraction(0)

#: Most coalitions ``essential_family`` lists: each is one row of every
#: nucleolus level program.
ESSENTIAL_LIMIT = 1024

#: Most players ``build_game`` tabulates: the table has 2^N entries.
GAME_LIMIT = 16

#: A PlayerOrder is a permutation of the game's player ids.
PlayerOrder = Sequence[str]


@dataclass(frozen=True)
class GameTable:
    """Coalitional game on firms + workers with all 2^N values materialized."""

    players: tuple[str, ...]
    values: tuple[Fraction, ...]
    n_firms: int

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def grand_mask(self) -> int:
        return (1 << self.n_players) - 1

    def player_index(self, player_id: str) -> int:
        try:
            return self.players.index(player_id)
        except ValueError:
            raise CorematchError(f"unknown player id {player_id!r}") from None

    def mask_of(self, coalition: Iterable[str]) -> int:
        mask = 0
        for p in coalition:
            mask |= 1 << self.player_index(p)
        return mask

    def coalition_of(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.players[i] for i in range(self.n_players) if mask >> i & 1
        )

    def value(self, coalition: Iterable[str]) -> Fraction:
        return self.values[self.mask_of(coalition)]

    def value_mask(self, mask: int) -> Fraction:
        return self.values[mask]

    def dual_mask(self, mask: int) -> Fraction:
        return self.values[self.grand_mask] - self.values[self.grand_mask & ~mask]

    def payoff_sums(self, payoffs: Sequence[Fraction]) -> list[Fraction]:
        """z(S) for every coalition mask S; payoffs in player order."""
        sums = [ZERO] * (self.grand_mask + 1)
        for mask in range(1, self.grand_mask + 1):
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + payoffs[low.bit_length() - 1]
        return sums


def build_game(m: Market) -> GameTable:
    """The assignment game of ``m``: v(S ∪ T) is the optimal matching value of
    the submarket on firms S and workers T.

    Computed by dynamic programming over worker subsets, one firm at a time.
    Capped at ``GAME_LIMIT`` players.
    """
    n_players = m.n_firms + m.n_workers
    if n_players > GAME_LIMIT:
        raise LimitExceededError(
            f"{n_players} players exceeds the game-table limit {GAME_LIMIT}"
        )
    nf, nw = m.n_firms, m.n_workers
    full_w = (1 << nw) - 1

    # best value a single firm can extract from each worker subset
    single: list[list[Fraction]] = []
    for i in range(nf):
        row = m.matrix[i]
        cap = m.capacities[i]
        best = [ZERO] * (full_w + 1)
        for t in range(1, full_w + 1):
            gains = sorted((row[j] for j in range(nw) if t >> j & 1), reverse=True)
            best[t] = sum(gains[:cap], ZERO)
        single.append(best)

    values = [ZERO] * (1 << n_players)
    for fmask in range(1 << nf):
        firms = [i for i in range(nf) if fmask >> i & 1]
        table = [ZERO] * (full_w + 1)
        for i in firms:
            # max over the part of T handed to firm i
            prev = table
            cur = list(single[i])
            for t in range(1, full_w + 1):
                best = prev[t]
                # iterate non-empty submasks assigned to firm i
                sub = t
                while sub:
                    cand = single[i][sub] + prev[t ^ sub]
                    if cand > best:
                        best = cand
                    sub = (sub - 1) & t
                cur[t] = best
            table = cur
        for wmask in range(full_w + 1):
            values[fmask | (wmask << nf)] = table[wmask]
    return GameTable(m.firm_ids + m.worker_ids, tuple(values), nf)


def dual_value(g: GameTable, coalition: Iterable[str]) -> Fraction:
    """v*(S) = v(N) - v(N \\ S)."""
    return g.dual_mask(g.mask_of(coalition))


def candidate_masks(capacities: Sequence[int], n_workers: int) -> list[int]:
    """Bitmasks (firms first, then workers) of the essential candidates of an
    assignment game: all singletons plus every single firm with 1..r_i workers.

    Coalitions with two firms, one-sided coalitions of size two or more, and
    single-firm coalitions over capacity split into cheaper parts, so no
    other coalition can be essential.
    """
    nf = len(capacities)
    masks = [1 << i for i in range(nf + n_workers)]
    for i, cap in enumerate(capacities):
        masks += _firm_masks(nf, i, cap, range(n_workers))
    return masks


def _firm_masks(nf: int, i: int, cap: int, workers: Sequence[int]) -> list[int]:
    """Masks of firm i with 1..cap of ``workers``, in increasing mask order."""
    wmasks = sorted(
        sum(1 << j for j in ws)
        for size in range(1, min(cap, len(workers)) + 1)
        for ws in combinations(workers, size)
    )
    return [(1 << i) | (w << nf) for w in wmasks]


def essential_candidates(m: Market) -> tuple[frozenset[str], ...]:
    """Superset of the essential coalitions of the assignment game of ``m``,
    as player-id sets (``candidate_masks``)."""
    players = m.firm_ids + m.worker_ids
    return tuple(
        frozenset(p for i, p in enumerate(players) if mask >> i & 1)
        for mask in candidate_masks(m.capacities, m.n_workers)
    )


def essential_family(m: Market) -> dict[int, Fraction]:
    """The essential coalitions of the assignment game of ``m`` but the grand
    coalition, as {mask: value} in ``candidate_masks`` order.

    Singletons are worth 0. Firm i with workers S, |S| <= r_i, is worth the
    sum of a[i][j] over S, and is essential exactly when every such a[i][j]
    is positive: a zero entry splits its worker off at no loss. Raises
    ``LimitExceededError`` before listing anything when the family has more
    than ``ESSENTIAL_LIMIT`` members.
    """
    nf, n = m.n_firms, m.n_firms + m.n_workers
    positive = [[j for j, a in enumerate(row) if a > 0] for row in m.matrix]
    size = n + sum(
        comb(len(ws), k)
        for ws, cap in zip(positive, m.capacities)
        for k in range(1, min(cap, len(ws)) + 1)
    )
    if nf == 1 and len(positive[0]) == m.n_workers <= m.capacities[0]:
        size -= 1  # the grand coalition, which is left out
    if size > ESSENTIAL_LIMIT:
        raise LimitExceededError(
            f"{size} essential coalitions exceeds the limit {ESSENTIAL_LIMIT}"
        )
    out = {1 << p: ZERO for p in range(n)}
    for i, (row, ws, cap) in enumerate(zip(m.matrix, positive, m.capacities)):
        for mask in _firm_masks(nf, i, cap, ws):
            out[mask] = sum((row[j] for j in ws if mask >> nf + j & 1), ZERO)
    out.pop((1 << n) - 1, None)
    return out


def marginal_vector(g: GameTable, order: PlayerOrder) -> tuple[Fraction, ...]:
    """Payoffs v(P ∪ {i}) - v(P) along ``order``, indexed in game player order."""
    _check_order(g, order)
    out = [ZERO] * g.n_players
    mask = 0
    for p in order:
        i = g.player_index(p)
        out[i] = g.values[mask | (1 << i)] - g.values[mask]
        mask |= 1 << i
    return tuple(out)


def lemaral_vector(g: GameTable, order: PlayerOrder) -> tuple[Fraction, ...]:
    """Lexicographic maximization over dual-coalitionally-rational payoffs.

    Player at position k receives min over predecessor subsets Q of
    v*(Q ∪ {k}) - (payoff already granted to Q); indexed in game player order.
    """
    _check_order(g, order)
    out = [ZERO] * g.n_players
    pred: list[int] = []
    for p in order:
        i = g.player_index(p)
        bit = 1 << i
        best = g.dual_mask(bit)
        for r in range(1, len(pred) + 1):
            for q in combinations(pred, r):
                qmask = 0
                granted = ZERO
                for k in q:
                    qmask |= 1 << k
                    granted += out[k]
                cand = g.dual_mask(qmask | bit) - granted
                if cand < best:
                    best = cand
        out[i] = best
        pred.append(i)
    return tuple(out)


def _check_order(g: GameTable, order: PlayerOrder) -> None:
    if sorted(order) != sorted(g.players):
        raise CorematchError("order must be a permutation of the game's players")

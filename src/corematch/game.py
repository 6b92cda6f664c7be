"""Explicit coalitional games built from markets.

A :class:`GameTable` stores the coalition value v(S) for every subset of the
players (firms first, then workers), bitmask indexed. It is meant for
desk-scale analysis: kernels, nucleolus, dual games, marginal and lemaral
vectors all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import CorematchError, LimitExceededError
from .market import Market

ZERO = Fraction(0)

#: A PlayerOrder is a permutation of the game's player ids.
PlayerOrder = Sequence[str]


@dataclass(frozen=True)
class GameTable:
    """Coalitional game on firms + workers with all 2^N values materialized."""

    players: tuple[str, ...]
    values: tuple[Fraction, ...]
    n_firms: int
    capacities: tuple[int, ...]

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


def build_game(m: Market, limit: int = 16) -> GameTable:
    """The assignment game of ``m``: v(S ∪ T) is the optimal matching value of
    the submarket on firms S and workers T.

    Computed by dynamic programming over worker subsets, one firm at a time.
    Capped at ``limit`` players since the table has 2^N entries.
    """
    n_players = m.n_firms + m.n_workers
    if n_players > limit:
        raise LimitExceededError(
            f"{n_players} players exceeds the game-table limit {limit}"
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
    return GameTable(m.firm_ids + m.worker_ids, tuple(values), nf, m.capacities)


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
        wmasks = sorted(
            sum(1 << j for j in ws)
            for size in range(1, min(cap, n_workers) + 1)
            for ws in combinations(range(n_workers), size)
        )
        masks += [(1 << i) | (w << nf) for w in wmasks]
    return masks


def essential_candidates(m: Market) -> tuple[frozenset[str], ...]:
    """Superset of the essential coalitions of the assignment game of ``m``,
    as player-id sets (``candidate_masks``)."""
    players = m.firm_ids + m.worker_ids
    return tuple(
        frozenset(p for i, p in enumerate(players) if mask >> i & 1)
        for mask in candidate_masks(m.capacities, m.n_workers)
    )


def is_inessential(g: GameTable, coalition: Iterable[str]) -> bool:
    """True iff the coalition splits into two parts at least as valuable."""
    mask = g.mask_of(coalition)
    if mask == 0:
        raise CorematchError("the empty coalition has no essentiality status")
    v = g.values[mask]
    sub = (mask - 1) & mask
    while sub > mask ^ sub:
        if v <= g.values[sub] + g.values[mask ^ sub]:
            return True
        sub = (sub - 1) & mask
    return False


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

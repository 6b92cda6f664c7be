"""Independent oracles and random-market generators for the test suite."""

from fractions import Fraction as F
from random import Random

from hypothesis import strategies as st

from corematch import (
    BuyerMarket,
    CoreConstraint,
    CorematchError,
    LimitExceededError,
    Market,
    TightDigraph,
    build_tight_digraph,
    coalition_value,
    core_constraints,
    optimal_matching,
)
from corematch.game import candidate_masks
from corematch.matching import matching_arrays
from corematch.solutions import _nucleolus

ZERO = F(0)


def enumerate_all_matchings(m: Market, limit: int = 8):
    """Every capacity-feasible matching; the brute-force oracle for tests."""
    if m.n_workers > limit:
        raise LimitExceededError(
            f"{m.n_workers} workers exceeds the enumeration limit {limit}"
        )
    caps = list(m.capacities)
    stack: list[tuple[int, int]] = []
    out: list[tuple[tuple[int, int], ...]] = []

    def descend(j: int) -> None:
        if j == m.n_workers:
            out.append(tuple(stack))
            return
        descend(j + 1)
        for i in range(m.n_firms):
            if caps[i] == 0:
                continue
            caps[i] -= 1
            stack.append((i, j))
            descend(j + 1)
            stack.pop()
            caps[i] += 1

    descend(0)
    return out


def matching_value(m: Market, pairs) -> F:
    return sum((m.matrix[i][j] for i, j in pairs), ZERO)


def brute_force_optimum(m: Market) -> F:
    """Max matching value by plain exhaustive enumeration."""
    return max(matching_value(m, pairs) for pairs in enumerate_all_matchings(m))


def brute_force_optimal_pair_sets(m: Market):
    best = brute_force_optimum(m)
    return {
        frozenset(pairs)
        for pairs in enumerate_all_matchings(m)
        if matching_value(m, pairs) == best
    }


def brute_force_core_membership(g, z) -> bool:
    """Core test over every coalition of a game table."""
    if sum(z, ZERO) != g.values[g.grand_mask]:
        return False
    sums = g.payoff_sums(list(z))
    return all(
        sums[mask] >= g.values[mask] for mask in range(1, g.grand_mask)
    )


# The game-table characterizations of the essential coalitions. Production
# reads the essential family and its values off the surplus matrix
# (``game.essential_family``); these decide on the full 2^N table instead.


def is_inessential(g, coalition) -> bool:
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


def table_core_violation(m: Market, g, z):
    """The first coalition of ``candidate_masks`` order, essential or not,
    whose table value exceeds its payoff under ``z``; the grand coalition if
    ``z`` is not efficient; None if ``z`` is in the core."""
    if sum(z, ZERO) != g.values[g.grand_mask]:
        return g.coalition_of(g.grand_mask)
    sums = g.payoff_sums(list(z))
    for mask in candidate_masks(m.capacities, m.n_workers):
        if sums[mask] < g.values[mask]:
            return g.coalition_of(mask)
    return None


def nucleolus_all_coalitions(g):
    """The nucleolus by the same iterated LP scheme over every coalition of
    the game table, essential or not."""
    return _nucleolus(
        g.n_players, g.n_firms, g.values[g.grand_mask], g.values,
        range(1, g.grand_mask),
    )


def brute_force_convex(g) -> bool:
    """v(S + i) - v(S) nondecreasing in S, checked over all pairs S <= T."""
    n = g.n_players
    for i in range(n):
        bit = 1 << i
        for t in range(g.grand_mask + 1):
            if t & bit:
                continue
            dt = g.values[t | bit] - g.values[t]
            s = t
            while True:
                if g.values[s | bit] - g.values[s] > dt:
                    return False
                if s == 0:
                    break
                s = (s - 1) & t
    return True


def random_fraction(rng: Random, max_num=8) -> F:
    return F(rng.randint(0, max_num), rng.choice((1, 1, 2, 3)))


def random_balanced_market(rng: Random, n_workers=None, max_num=8) -> Market:
    n = n_workers if n_workers is not None else rng.randint(2, 5)
    m = rng.randint(1, min(3, n))
    caps = [1] * m
    for _ in range(n - m):
        caps[rng.randrange(m)] += 1
    matrix = tuple(
        tuple(random_fraction(rng, max_num) for _ in range(n)) for _ in range(m)
    )
    return Market(
        tuple(f"f{i}" for i in range(1, m + 1)),
        tuple(caps),
        tuple(f"w{j}" for j in range(1, n + 1)),
        matrix,
    )


def random_market(rng: Random, max_workers=5) -> Market:
    """Possibly unbalanced market."""
    n = rng.randint(1, max_workers)
    m = rng.randint(1, 3)
    caps = tuple(rng.randint(1, 3) for _ in range(m))
    matrix = tuple(
        tuple(random_fraction(rng) for _ in range(n)) for _ in range(m)
    )
    return Market(
        tuple(f"f{i}" for i in range(1, m + 1)),
        caps,
        tuple(f"w{j}" for j in range(1, n + 1)),
        matrix,
    )


def zero_heavy_market(rng: Random, max_workers=6) -> Market:
    """Possibly unbalanced market where each surplus is 0 with probability
    0, 1/5 or 1/2, drawn per market."""
    n = rng.randint(1, max_workers)
    m = rng.randint(1, 3)
    zeros = rng.choice((0, 0.2, 0.5))
    matrix = tuple(
        tuple(
            ZERO if rng.random() < zeros else F(rng.randint(1, 8), rng.choice((1, 2)))
            for _ in range(n)
        )
        for _ in range(m)
    )
    return Market(
        tuple(f"f{i}" for i in range(1, m + 1)),
        tuple(rng.randint(1, 3) for _ in range(m)),
        tuple(f"w{j}" for j in range(1, n + 1)),
        matrix,
    )


@st.composite
def markets(draw, max_firms=3, max_workers=5):
    """Hypothesis markets: balanced, with spare seats or with too few seats."""
    n = draw(st.integers(1, max_workers))
    caps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_firms))
    value = st.builds(F, st.integers(0, 8), st.sampled_from((1, 2, 3)))
    matrix = draw(
        st.lists(
            st.lists(value, min_size=n, max_size=n),
            min_size=len(caps),
            max_size=len(caps),
        )
    )
    return Market(
        tuple(f"f{i}" for i in range(1, len(caps) + 1)),
        tuple(caps),
        tuple(f"w{j}" for j in range(1, n + 1)),
        tuple(tuple(row) for row in matrix),
    )


def fraction_core_rows(bm, mu, *, ce=False) -> tuple:
    """The core system's rows (tail, head, rhs), built in Fractions straight
    from the balanced matrix, in row order: lower boxes, upper boxes,
    cross-firm pairs and, for the CE system, the same-firm pairs."""
    m = bm.market
    a = m.matrix
    firm_of = [m.firm_index(mu.firm_of(w)) for w in m.worker_ids]
    n = m.n_workers
    rows = [(0, j + 1, ZERO) for j in range(n)]
    rows += [(j + 1, 0, -a[firm_of[j]][j]) for j in range(n)]
    for same_firm in (False, True) if ce else (False,):
        rows += [
            (j + 1, k + 1, a[firm_of[j]][k] - a[firm_of[j]][j])
            for j in range(n)
            for k in range(n)
            if k != j and (firm_of[k] == firm_of[j]) == same_firm
        ]
    return tuple(rows)


BUYER_SHAPES = ("balanced", "spare units", "short of units")


def buyer_market(caps, matrix) -> BuyerMarket:
    return BuyerMarket(
        tuple(f"b{i}" for i in range(1, len(matrix) + 1)),
        tuple(f"s{j}" for j in range(1, len(caps) + 1)),
        tuple(caps),
        tuple(tuple(row) for row in matrix),
    )


def random_buyer_market(rng: Random, shape: str, max_size=5) -> BuyerMarket:
    """Buyer-seller market whose balanced form has at most ``max_size``
    buyers. "balanced": as many units as buyers; "spare units": more units,
    so balancing adds dummy buyers; "short of units": fewer units, so
    balancing adds a dummy seller."""
    while True:
        caps = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        total = sum(caps)
        if shape == "balanced":
            n = total
        elif shape == "spare units":
            n = rng.randint(1, total - 1) if total > 1 else 0
        else:
            n = total + rng.randint(1, 2)
        if 1 <= n and max(n, total) <= max_size:
            break
    matrix = [[random_fraction(rng) for _ in caps] for _ in range(n)]
    return buyer_market(caps, matrix)


@st.composite
def buyer_markets(draw, max_size=5):
    """Hypothesis buyer-seller markets of every shape, at most ``max_size``
    buyers after balancing."""
    caps = draw(
        st.lists(st.integers(1, 2), min_size=1, max_size=3).filter(
            lambda c: sum(c) <= max_size
        )
    )
    n = draw(st.integers(1, max_size))
    value = st.builds(F, st.integers(0, 8), st.sampled_from((1, 2, 3)))
    matrix = draw(
        st.lists(
            st.lists(value, min_size=len(caps), max_size=len(caps)),
            min_size=n,
            max_size=n,
        )
    )
    return buyer_market(caps, matrix)


# The paper's characterizations of the salary bounds. Production computes
# both bounds as the least and greatest solution of the core difference
# system; these flow-solve formulas are the independent oracles.


def _reduced_value(m: Market, caps, cols) -> F:
    """Optimal value of ``m`` on the columns ``cols`` with capacities ``caps``."""
    rows = [i for i, c in enumerate(caps) if c > 0]
    if not rows or not cols:
        return ZERO
    sub = Market(
        tuple(m.firm_ids[i] for i in rows),
        tuple(caps[i] for i in rows),
        tuple(m.worker_ids[k] for k in cols),
        tuple(tuple(m.matrix[i][k] for k in cols) for i in rows),
    )
    return coalition_value(sub, sub.firm_ids, sub.worker_ids)


def value_with_column_duplicated(m: Market, worker_id: str) -> F:
    """Optimal value after duplicating one worker's surplus column, subject to
    the two copies never working for the same firm.

    The copies are handled by case analysis on where they end up (at most one
    per firm), each case solved as an ordinary reduced market.
    """
    j = m.worker_index(worker_id)
    keep = [k for k in range(m.n_workers) if k != j]
    col = [m.matrix[i][j] for i in range(m.n_firms)]
    best = _reduced_value(m, list(m.capacities), keep)
    for i1 in range(m.n_firms):
        caps = list(m.capacities)
        caps[i1] -= 1
        best = max(best, col[i1] + _reduced_value(m, caps, keep))
        for i2 in range(i1 + 1, m.n_firms):
            if caps[i2] == 0:
                continue
            caps2 = list(caps)
            caps2[i2] -= 1
            best = max(best, col[i1] + col[i2] + _reduced_value(m, caps2, keep))
    return best


def clone_value_min_salaries(m: Market) -> tuple:
    """Minimum competitive salaries: the value a clone of each worker adds
    when the clone may not join the original's firm."""
    total = coalition_value(m, m.firm_ids, m.worker_ids)
    return tuple(value_with_column_duplicated(m, w) - total for w in m.worker_ids)


def marginal_max_salaries(m: Market) -> tuple:
    """Maximum competitive salaries: each worker's marginal contribution to
    the grand coalition."""
    total = coalition_value(m, m.firm_ids, m.worker_ids)
    return tuple(
        total - coalition_value(m, m.firm_ids, [x for x in m.worker_ids if x != w])
        for w in m.worker_ids
    )


# The vertex oracle. Production enumerates the vertices of a difference
# system by the extended-order scan (``maxmin``, ``_kernels.scan_orders``);
# these solve every nonsingular n-subset of its rows instead.


def vertex_solutions(n, rows):
    """All basic solutions of the constraint system that are feasible.

    Every n-subset of rows is treated as a system of equalities; the subset
    is nonsingular exactly when, read as edges, it forms a spanning tree of
    the node set, and is then solved by propagation from node 0. Feasible
    solutions are returned as a set of tuples (y[1], ..., y[n]).
    """
    m = len(rows)
    found: set[tuple] = set()
    if n == 0:
        return {()} if all(c <= 0 for _, _, c in rows) else set()
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    chosen: list[int] = []
    y = [0] * (n + 1)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def leaf() -> None:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for idx in chosen:
            t, h, c = rows[idx]
            adj[t].append((h, c))
            adj[h].append((t, -c))
        stack = [0]
        seen = [False] * (n + 1)
        seen[0] = True
        y[0] = 0
        while stack:
            u = stack.pop()
            for v, delta in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    y[v] = y[u] + delta
                    stack.append(v)
        for t, h, c in rows:
            if y[h] - y[t] < c:
                return
        found.add(tuple(y[1:]))

    def descend(start: int, need: int) -> None:
        if need == 0:
            leaf()
            return
        for idx in range(start, m - need + 1):
            t, h, _ = rows[idx]
            rt, rh = find(t), find(h)
            if rt == rh:
                continue
            if size[rt] < size[rh]:
                rt, rh = rh, rt
            parent[rh] = rt
            size[rt] += size[rh]
            chosen.append(idx)
            descend(idx + 1, need - 1)
            chosen.pop()
            parent[rh] = rh
            size[rt] -= size[rh]

    descend(0, n)
    return found


def vertices_of_system(system, *, limit: int = 6) -> frozenset:
    """The exact vertex set of a core or CE constraint system, in Fractions."""
    n = system.n_workers
    if n > limit:
        raise LimitExceededError(f"{n} workers exceeds the enumeration limit {limit}")
    return frozenset(
        tuple(F(v, system.scale) for v in vec)
        for vec in vertex_solutions(n, system.rows)
    )


def brute_force_vertices(bm, *, limit: int = 6) -> frozenset:
    """The exact vertex set of the competitive salary polytope of ``bm``."""
    mu = optimal_matching(bm.market).matching
    return vertices_of_system(core_constraints(bm, mu), limit=limit)


def maxmin_vector(bm, mu, order) -> tuple:
    """The max-min vector of one extended order, walked in Fractions on the
    balanced matrix: each worker takes the bound its predecessors of other
    firms impose (its box bound when none applies)."""
    m = bm.market
    firm_of, _ = matching_arrays(m, mu)
    if sorted(order.workers) != sorted(m.worker_ids):
        raise ValueError("order must be a permutation of the balanced workers")
    y: dict[int, F] = {}
    placed: list[int] = []
    for wid, up in zip(order.workers, order.maximize):
        k = m.worker_index(wid)
        row_k = m.matrix[firm_of[k]]
        if up:
            best = row_k[k]
            for j in placed:
                if firm_of[j] != firm_of[k]:
                    best = min(best, y[j] - row_k[j] + row_k[k])
        else:
            best = ZERO
            for j in placed:
                if firm_of[j] != firm_of[k]:
                    row_j = m.matrix[firm_of[j]]
                    best = max(best, y[j] - row_j[j] + row_j[k])
        y[k] = best
        placed.append(k)
    return tuple(y[k] for k in range(m.n_workers))


# The paper's digraph characterization of the salary bounds. Production
# compares a vector with the least and greatest solution of the core system.


def digraph_is_minimum(bm, mu, y) -> bool:
    """y is the minimum competitive salary vector iff its tight digraph has a
    spanning tree directed away from node 0 (every node reachable)."""
    d = build_tight_digraph(bm, mu, y)
    return len(d.reachable_from(0)) == d.n_workers + 1


def digraph_is_maximum(bm, mu, y) -> bool:
    """y is the maximum competitive salary vector iff every node of its tight
    digraph reaches node 0 along directed arcs."""
    d = build_tight_digraph(bm, mu, y)
    reversed_d = TightDigraph(
        d.n_workers,
        tuple(CoreConstraint(c.head, c.tail, c.rhs) for c in d.arcs),
    )
    return len(reversed_d.reachable_from(0)) == d.n_workers + 1

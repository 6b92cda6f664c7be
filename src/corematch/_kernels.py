"""Enumeration kernels over the integer rows of a difference-constraint system.

Both kernels take rows (tail, head, rhs) meaning y[head] - y[tail] >= rhs
over nodes 0..n with y[0] = 0, scaled to a common denominator
(``CoreConstraintSystem.rows``), so the arithmetic below is exact
integer arithmetic with no magnitude limit.
"""

from __future__ import annotations


def implementation() -> str:
    """Which kernel implementation runs: always 'pure' (Python integers)."""
    return "pure"


def _scan_tables(n, rows):
    """Box bounds and the pair table of a system with both box rows for
    every worker.

    low[k] / high[k]: bounds of worker k from the rows (0, k+1) and (k+1, 0).
    pair[j][k]: rhs of the row y[k] - y[j] >= rhs between workers j and k,
    or None when there is no such row. Repeated rows keep the tightest.
    """
    table = [[None] * (n + 1) for _ in range(n + 1)]
    for t, h, c in rows:
        old = table[t][h]
        if old is None or c > old:
            table[t][h] = c
    low = table[0][1:]
    high = [None if row[0] is None else -row[0] for row in table[1:]]
    if None in low or None in high:
        raise ValueError("the scan needs both box rows of every worker")
    return low, high, [row[1:] for row in table[1:]]


def scan_orders(perms, n, rows, collect_rows):
    """Evaluate the max-min vector of every extended order.

    perms: permutations of range(n) to scan, in the order to report.
    rows: integer (tail, head, rhs) rows with both box rows for every worker.

    Walking an order, a minimizing worker takes the largest lower bound its
    predecessors and its box impose, a maximizing worker the smallest upper
    bound. Flag bits are read most-significant-first: bit (n-1-pos) set
    means the worker at position pos maximizes.

    Returns (rows, witnesses): rows is a list of
    (perm_index, flag_bits, vector, satisfies_every_row) when collect_rows,
    else None; witnesses maps each vector that satisfies every row to its
    (perm_index, flag_bits) list in scan order.
    """
    low, high, pair = _scan_tables(n, rows)
    rows_out = [] if collect_rows else None
    witnesses: dict[tuple, list] = {}
    y = [0] * n
    for pi, perm in enumerate(perms):
        for bits in range(1 << n):
            for pos in range(n):
                k = perm[pos]
                if (bits >> (n - 1 - pos)) & 1:
                    best = high[k]
                    for q in range(pos):
                        j = perm[q]
                        d = pair[k][j]
                        if d is not None:
                            cand = y[j] - d
                            if cand < best:
                                best = cand
                else:
                    best = low[k]
                    for q in range(pos):
                        j = perm[q]
                        d = pair[j][k]
                        if d is not None:
                            cand = y[j] + d
                            if cand > best:
                                best = cand
                y[k] = best
            ok = True
            for j in range(n):
                if y[j] < low[j] or y[j] > high[j]:
                    ok = False
                    break
            if ok:
                for j in range(n):
                    yj = y[j]
                    row = pair[j]
                    for k in range(n):
                        d = row[k]
                        if d is not None and y[k] - yj < d:
                            ok = False
                            break
                    if not ok:
                        break
            vec = tuple(y)
            if collect_rows:
                rows_out.append((pi, bits, vec, ok))
            if ok:
                witnesses.setdefault(vec, []).append((pi, bits))
    return rows_out, witnesses


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

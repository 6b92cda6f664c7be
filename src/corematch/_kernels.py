"""The extended-order scan over the integer rows of a difference-constraint
system.

It takes rows (tail, head, rhs) meaning y[head] - y[tail] >= rhs over nodes
0..n with y[0] = 0, scaled to a common denominator
(``CoreConstraintSystem.rows``), so the arithmetic below is exact integer
arithmetic with no magnitude limit.
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


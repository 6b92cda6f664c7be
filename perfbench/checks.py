"""Independent checks of every answered market.

Nothing here imports corematch. Each check recomputes what the program
printed from the market alone: SciPy's assignment solver and LP solver,
exact Bellman-Ford over the core's difference constraints, brute-force
matchings and coalition values, an exact max-min walk over every extended
order, and a float sequential-LP nucleolus. A check returns a list of
mismatch messages; an empty list means the market's outputs are correct.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from markets import labelled_values

# float tolerance for the LP-based checks, relative to 1 + |value|
LP_TOL = 1e-6
DIRECTIONS = 8
NO_ROW = np.iinfo(np.int64).min // 4


class Job:
    """A job market as exact rationals plus a common scale to integers."""

    def __init__(self, caps, matrix):
        self.caps = list(caps)
        self.matrix = [[Fraction(v) for v in row] for row in matrix]
        self.n_firms = len(caps)
        self.n_workers = len(self.matrix[0])
        self.scale = lcm(*(v.denominator for row in self.matrix for v in row))
        self.ints = np.array(
            [[int(v * self.scale) for v in row] for row in self.matrix], dtype=np.int64
        )

    @classmethod
    def from_dict(cls, m: dict) -> "Job":
        if m["mode"] == "buyer-seller":
            caps = [s["capacity"] for s in m["sellers"]]
            vals = m["valuations"]
            return cls(caps, [[vals[b][s] for b in range(len(vals))] for s in range(len(caps))])
        return cls([f["capacity"] for f in m["firms"]], m["surplus"])


def assignment_value(ints: np.ndarray, caps, drop_column: int | None = None) -> int:
    """Optimal scaled value by linear_sum_assignment on the capacity-expanded
    matrix (one row per seat)."""
    rows = np.repeat(ints, caps, axis=0)
    if drop_column is not None:
        rows = np.delete(rows, drop_column, axis=1)
    r, c = linear_sum_assignment(rows, maximize=True)
    return int(rows[r, c].sum())


def lex_first_optimal(job: Job) -> list[int]:
    """Firm of each worker in the optimal full matching whose sorted
    (firm, worker) pair list is lexicographically first; brute force, so
    only for balanced desk-size markets."""
    n = job.n_workers
    seats = list(job.caps)
    firm_of = [0] * n
    best = [None, None]

    def descend(j, value):
        if j == n:
            pairs = sorted((firm_of[k], k) for k in range(n))
            if best[0] is None or value > best[0] or (value == best[0] and pairs < best[1]):
                best[0], best[1] = value, pairs
            return
        for i in range(job.n_firms):
            if seats[i]:
                seats[i] -= 1
                firm_of[j] = i
                descend(j + 1, value + int(job.ints[i, j]))
                seats[i] += 1

    descend(0, 0)
    out = [0] * n
    for i, j in best[1]:
        out[j] = i
    return out


def core_rows(job: Job, firm_of, same_firm: bool):
    """Rows (tail, head, rhs) of y[head] - y[tail] >= rhs over nodes 0..n
    (worker j is node j + 1, node 0 is fixed at 0), scaled to integers:
    0 <= y_j <= a[firm(j)][j], and y_k - y_j >= a[firm(j)][k] - a[firm(j)][j]
    for pairs in different firms (all pairs when ``same_firm``)."""
    a = job.ints
    n = len(firm_of)
    rows = []
    for j in range(n):
        rows.append((0, j + 1, 0))
        rows.append((j + 1, 0, -int(a[firm_of[j], j])))
    for j in range(n):
        for k in range(n):
            if k != j and (same_firm or firm_of[k] != firm_of[j]):
                rows.append((j + 1, k + 1, int(a[firm_of[j], k] - a[firm_of[j], j])))
    return rows


def least_and_greatest(rows, n: int):
    """Least and greatest solutions of the difference system by exact
    Bellman-Ford: longest paths from node 0, and minus longest paths to 0."""
    low = [None] * (n + 1)
    low[0] = 0
    to_ground = [None] * (n + 1)
    to_ground[0] = 0
    for _ in range(n + 1):
        changed = False
        for t, h, c in rows:
            if low[t] is not None and (low[h] is None or low[t] + c > low[h]):
                low[h] = low[t] + c
                changed = True
            if to_ground[h] is not None and (to_ground[t] is None or to_ground[h] + c > to_ground[t]):
                to_ground[t] = to_ground[h] + c
                changed = True
        if not changed:
            break
    else:
        raise ValueError("the core system has a positive cycle")
    return low[1:], [-g for g in to_ground[1:]]


def connected(rows, y, n: int) -> bool:
    """Whether the rows tight at y (node 0 prepended) connect all n+1 nodes."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n + 1
    for t, h, c in rows:
        if y[h] - y[t] == c:
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
                parts -= 1
    return parts == 1


def vertex_problems(rows, n: int, vectors, what: str) -> list[str]:
    """Every vector must satisfy every row and be a vertex (tight rows
    connect every node)."""
    bad = []
    for y in vectors:
        full = [0] + list(y)
        if any(full[h] - full[t] < c for t, h, c in rows):
            bad.append(f"{what} {y} violates a core row")
        elif not connected(rows, full, n):
            bad.append(f"{what} {y} is not a vertex: its tight rows leave nodes unconnected")
    if len(set(map(tuple, vectors))) != len(vectors):
        bad.append(f"a {what} is printed twice")
    return bad


def lp_completeness(rows, n: int, vectors, rng: random.Random) -> list[str]:
    """For random integer directions, the best printed vector must reach the
    LP optimum over the same system (a missing vertex shows as a gap)."""
    a_ub = np.zeros((len(rows), n))
    b_ub = np.zeros(len(rows))
    for r, (t, h, c) in enumerate(rows):  # y_t - y_h <= -c
        if t:
            a_ub[r, t - 1] += 1
        if h:
            a_ub[r, h - 1] -= 1
        b_ub[r] = -c
    points = np.array(vectors, dtype=float)
    bad = []
    for _ in range(DIRECTIONS):
        d = np.array([rng.randint(-10, 10) for _ in range(n)], dtype=float)
        res = linprog(-d, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n, method="highs")
        if res.status != 0:
            bad.append(f"linprog failed: {res.message}")
            continue
        best = float((points @ d).max())
        if abs(best + res.fun) > LP_TOL * (1 + abs(res.fun)):
            bad.append(f"direction {d.tolist()}: printed best {best}, LP optimum {-res.fun}")
    return bad


@lru_cache(maxsize=4096)
def _scaled(text: str, scale: int) -> int | None:
    x = Fraction(text) * scale
    return x.numerator if x.denominator == 1 else None


def firm_shares(job: Job, firm_of, y) -> list[int]:
    """Each firm's matched surplus left after paying salaries y (scaled)."""
    return [
        sum(int(job.ints[i, j]) - y[j] for j in range(len(y)) if firm_of[j] == i)
        for i in range(job.n_firms)
    ]


def parse_values(values, job: Job, what: str) -> list[int]:
    """Printed rationals as integers over the market's scale."""
    out = []
    for v in values:
        x = _scaled(v, job.scale)
        if x is None:
            raise ValueError(f"{what} value {v} is not a multiple of 1/{job.scale}")
        out.append(x)
    return out


# --- salaries -------------------------------------------------------------


def check_salaries(record: dict) -> list[str]:
    m = record["market"]
    job = Job.from_dict(m)
    outs = [r["out"] for r in record["runs"]]
    n, firms = job.n_workers, [f["id"] for f in m["firms"]]
    workers = m["workers"]
    bad = []

    lines = outs[0].splitlines()
    value = _scaled(lines[0].removeprefix("optimal value: "), job.scale)
    best = assignment_value(job.ints, job.caps)
    if value != best:
        bad.append(f"optimal value {lines[0]} differs from linear_sum_assignment {best}/{job.scale}")
    firm_of = [None] * n
    for line in lines[1:]:
        if line.startswith("unmatched: "):
            continue
        fid, _, hired = line.partition(" <- ")
        i = firms.index(fid)
        if hired != "(nobody)":
            for w in hired.split(", "):
                j = workers.index(w)
                if firm_of[j] is not None:
                    bad.append(f"{w} is matched twice")
                firm_of[j] = i
    if None in firm_of:
        bad.append("a worker is unmatched although seats suffice")
        return bad
    if any(firm_of.count(i) > job.caps[i] for i in range(job.n_firms)):
        bad.append("the printed matching exceeds a capacity")
    if sum(int(job.ints[firm_of[j], j]) for j in range(n)) != value:
        bad.append("the printed pairs do not add up to the printed value")
    if bad:
        return bad

    # spare seats are filled with zero-surplus dummy workers
    spare = [job.caps[i] - firm_of.count(i) for i in range(job.n_firms)]
    padded = Job(job.caps, [list(row) + [Fraction(0)] * sum(spare) for row in job.matrix])
    padded_firm_of = firm_of + [i for i in range(job.n_firms) for _ in range(spare[i])]
    rows = core_rows(padded, padded_firm_of, same_firm=False)
    low, high = least_and_greatest(rows, len(padded_firm_of))

    y_min = parse_values(labelled_values(outs[1].splitlines()[0]), job, "salary")
    y_max = parse_values(labelled_values(outs[2].splitlines()[0]), job, "salary")
    if y_min != low[:n]:
        bad.append(f"minimum salaries {y_min} differ from the least core solution {low[:n]} (scaled by {job.scale})")
    if y_max != high[:n]:
        bad.append(f"maximum salaries {y_max} differ from the greatest core solution {high[:n]} (scaled by {job.scale})")
    marginal = [best - assignment_value(job.ints, job.caps, drop_column=j) for j in range(n)]
    if y_max != marginal:
        bad.append(f"maximum salaries {y_max} differ from v(N) - v(N - w) = {marginal} (scaled by {job.scale})")
    for out, y in ((outs[1], y_min), (outs[2], y_max)):
        payoffs = parse_values(labelled_values(out.splitlines()[1]), job, "firm payoff")
        expect = firm_shares(job, firm_of, y)
        if payoffs != expect:
            bad.append(f"firm payoffs {payoffs} differ from the matched surplus left to firms {expect}")

    size = len(padded_firm_of)
    adj = [[] for _ in range(size + 1)]
    for line in outs[3].splitlines():
        t, _, h = line.partition(" -> ")
        adj[int(t)].append(int(h))
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != size + 1:
        bad.append(f"digraph at the minimum: nodes {sorted(set(range(size + 1)) - seen)} are not reachable from 0")
    return bad


# --- extremes -------------------------------------------------------------


def scan_extended_orders(rows, n: int, names):
    """The max-min walk over every extended order, vectorized: each worker in
    turn is set tight against the strongest row linking it to node 0 and the
    workers already placed (maximize: least upper bound; minimize: greatest
    lower bound). Returns {label: vector} for the orders whose vector
    satisfies every row, labelled as the CLI prints them: '(w2+, w1-, ...)'."""
    rhs = np.full((n + 1, n + 1), NO_ROW, dtype=np.int64)
    for t, h, c in rows:
        rhs[t, h] = max(rhs[t, h], c)
    perms = np.array(list(permutations(range(1, n + 1))), dtype=np.int64)
    flags = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    nodes = np.repeat(perms, 1 << n, axis=0)
    order_flags = np.tile(flags, (len(perms), 1))
    count = len(nodes)
    y = np.zeros((count, n + 1), dtype=np.int64)
    at = np.arange(count)
    for pos in range(n):
        k = nodes[:, pos]
        hi = -rhs[k, 0]
        lo = rhs[0, k].copy()
        for q in range(pos):
            j = nodes[:, q]
            up = rhs[k, j]
            hi = np.where(up != NO_ROW, np.minimum(hi, y[at, j] - up), hi)
            down = rhs[j, k]
            lo = np.where(down != NO_ROW, np.maximum(lo, y[at, j] + down), lo)
        y[at, k] = np.where(order_flags[:, pos] == 1, hi, lo)
    ok = np.ones(count, dtype=bool)
    for t, h, c in rows:
        ok &= y[:, h] - y[:, t] >= c
    keep = np.flatnonzero(ok)
    # token 2 * (node - 1) + flag is the step 'w-' or 'w+'
    tokens = [f"{name}{sign}" for name in names for sign in "-+"]
    template = "(" + ", ".join(["%s"] * n) + ")"
    ids = (2 * (nodes[keep] - 1) + order_flags[keep]).tolist()
    labels = [template % tuple(map(tokens.__getitem__, row)) for row in ids]
    return dict(zip(labels, map(tuple, y[keep, 1:].tolist())))


def check_extremes(record: dict) -> list[str]:
    m = record["market"]
    job = Job.from_dict(m)
    n = job.n_workers
    points = json.loads(record["runs"][0]["out"])
    firm_of = lex_first_optimal(job)
    rows = core_rows(job, firm_of, same_firm=False)
    vectors = [parse_values(p["salaries"], job, "salary") for p in points]
    bad = vertex_problems(rows, n, vectors, "salary vector")
    for p, y in zip(points, vectors):
        expect = firm_shares(job, firm_of, y)
        if parse_values(p["firm_payoffs"], job, "firm payoff") != expect:
            bad.append(f"firm payoffs {p['firm_payoffs']} do not match salaries {p['salaries']}")

    printed = {}
    for p, y in zip(points, vectors):
        printed.update(dict.fromkeys(p["witnesses"], tuple(y)))
    if len(printed) != sum(len(p["witnesses"]) for p in points):
        bad.append("a witness order is printed twice")
    walked = scan_extended_orders(rows, n, m["workers"])
    if printed != walked:
        wrong = sum(1 for k, v in printed.items() if walked.get(k) != v)
        missing = sum(1 for k in walked if k not in printed)
        bad.append(
            f"witnesses differ from the max-min walk: {wrong} printed orders give another "
            f"vector or leave the core, {missing} in-core orders are missing"
        )
    rng = random.Random(f"extremes:{record['index']}")
    bad += lp_completeness(rows, n, vectors, rng)
    return bad


# --- ce -------------------------------------------------------------------


def check_ce(record: dict) -> list[str]:
    m = record["market"]
    job = Job.from_dict(m)  # sellers in the firm role, buyers as workers
    n = job.n_workers
    run = record["runs"][0]
    if run["err"]:
        return [f"stderr is not empty: {run['err'].strip()}"]
    lines = run["out"].splitlines()
    if lines[0] != "buyer payoffs | seller prices":
        return [f"unexpected header {lines[0]!r}"]
    firm_of = lex_first_optimal(job)
    rows = core_rows(job, firm_of, same_firm=True)
    vectors, prices = [], []
    for line in lines[1:]:
        x, _, p = line.partition(" | ")
        vectors.append(parse_values(x.split(), job, "buyer payoff"))
        prices.append(parse_values(p.split(), job, "price"))
    if not vectors:
        return ["no CE vertex printed"]
    bad = vertex_problems(rows, n, vectors, "CE payoff vector")
    for x, p in zip(vectors, prices):
        for s in range(job.n_firms):
            implied = {int(job.ints[s, b]) - x[b] for b in range(n) if firm_of[b] == s}
            if implied != {p[s]}:
                bad.append(f"seller {s + 1}: printed price {p[s]}, buyers imply {sorted(implied)}")
    # every in-core max-min vector is a vertex, and the scan reaches them all
    walked = set(scan_extended_orders(rows, n, m["buyers"]).values())
    if walked != set(map(tuple, vectors)):
        bad.append(
            f"CE vertices differ from the max-min walk: {len(walked - set(map(tuple, vectors)))} "
            f"missing, {len(set(map(tuple, vectors)) - walked)} not reached by any order"
        )
    rng = random.Random(f"ce:{record['index']}")
    bad += lp_completeness(rows, n, vectors, rng)
    return bad


# --- coop -----------------------------------------------------------------


def coalition_values(job: Job) -> list[Fraction]:
    """v(S) for every coalition mask (firms are bits 0..F-1, then workers),
    by brute force over all capacity-feasible assignments."""
    nf, n = job.n_firms, job.n_workers
    size = 1 << (nf + n)
    best = [0] * size
    seats = list(job.caps)

    def descend(j, mask, value):
        if j == n:
            best[mask] = max(best[mask], value)
            return
        descend(j + 1, mask, value)
        for i in range(nf):
            if seats[i]:
                seats[i] -= 1
                descend(j + 1, mask | 1 << i | 1 << (nf + j), value + int(job.ints[i, j]))
                seats[i] += 1

    descend(0, 0, 0)
    for bit in range(nf + n):
        for mask in range(size):
            if mask >> bit & 1 and best[mask ^ (1 << bit)] > best[mask]:
                best[mask] = best[mask ^ (1 << bit)]
    return [Fraction(v, job.scale) for v in best]


def shapley_value(v, n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size == n:
            continue
        weight = Fraction(factorial(size) * factorial(n - 1 - size), factorial(n))
        for i in range(n):
            if not mask >> i & 1:
                out[i] += weight * (v[mask | 1 << i] - v[mask])
    return out


def tau(v, n: int) -> list[Fraction]:
    grand = (1 << n) - 1
    utopia = [v[grand] - v[grand ^ 1 << i] for i in range(n)]
    rights = []
    for i in range(n):
        rights.append(max(
            v[mask] - sum(utopia[k] for k in range(n) if k != i and mask >> k & 1)
            for mask in range(1, grand + 1) if mask >> i & 1
        ))
    spread = sum(utopia) - sum(rights)
    if spread == 0:
        return rights
    kappa = (v[grand] - sum(rights)) / spread
    return [r + kappa * (u - r) for r, u in zip(rights, utopia)]


def float_nucleolus(v, n: int) -> np.ndarray:
    """Sequential LPs: minimize the largest excess of the free coalitions,
    settle those with a nonzero dual (their excess is at that level in every
    optimum), drop coalitions whose payoff the settled rows already fix, and
    repeat until the settled rows determine the allocation."""
    grand = (1 << n) - 1
    masks = np.arange(1, grand)
    inc = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    vals = np.array([float(v[s]) for s in masks])
    eq_a, eq_b = [np.ones(n)], [float(v[grand])]
    free = np.ones(len(masks), dtype=bool)
    while True:
        a = np.array(eq_a)
        if np.linalg.matrix_rank(a) == n:
            return np.linalg.lstsq(a, np.array(eq_b), rcond=None)[0]
        rows = np.flatnonzero(free)
        a_ub = np.hstack([-inc[rows], -np.ones((len(rows), 1))])
        res = linprog(
            np.r_[np.zeros(n), 1.0], A_ub=a_ub, b_ub=-vals[rows],
            A_eq=np.hstack([a, np.zeros((len(a), 1))]), b_eq=np.array(eq_b),
            bounds=[(None, None)] * (n + 1), method="highs",
        )
        if res.status != 0:
            raise ValueError(f"nucleolus LP failed: {res.message}")
        level = res.x[-1]
        settled = rows[np.abs(res.ineqlin.marginals) > 1e-9]
        for r in settled:
            eq_a.append(inc[r])
            eq_b.append(vals[r] - level)
        free[settled] = False
        # a coalition whose incidence lies in the span of the settled rows
        # has a fixed payoff and no longer constrains the excess
        _, sing, vt = np.linalg.svd(np.array(eq_a))
        null = vt[int((sing > 1e-9).sum()):]
        free &= np.abs(inc @ null.T).max(axis=1, initial=0.0) > 1e-9


def check_coop(record: dict) -> list[str]:
    m = record["market"]
    job = Job.from_dict(m)
    n = job.n_firms + job.n_workers
    grand = (1 << n) - 1
    v = coalition_values(job)
    outs = [r["out"] for r in record["runs"]]

    def allocation(out):
        firm_line, salary_line = out.splitlines()[:2]
        return [Fraction(x) for x in labelled_values(firm_line) + labelled_values(salary_line)]

    bad = []
    z = allocation(outs[0])
    if sum(z) != v[grand]:
        bad.append(f"nucleolus {z} is not efficient: sums to {sum(z)}, v(N) = {v[grand]}")
    for mask in range(1, grand):
        if sum(z[i] for i in range(n) if mask >> i & 1) < v[mask]:
            bad.append(f"nucleolus is blocked by coalition mask {mask}")
            break
    approx = float_nucleolus(v, n)
    if np.abs(approx - np.array([float(x) for x in z])).max() > LP_TOL * (1 + float(v[grand])):
        bad.append(f"nucleolus {z} differs from the float sequential-LP nucleolus {approx.tolist()}")
    if allocation(outs[1]) != shapley_value(v, n):
        bad.append(f"Shapley {allocation(outs[1])} differs from the exact recomputation")
    if allocation(outs[2]) != tau(v, n):
        bad.append(f"tau {allocation(outs[2])} differs from the exact recomputation")
    if outs[3].strip() != "in kernel: yes":
        bad.append(f"kernel check at the nucleolus printed {outs[3].strip()!r}")
    return bad


CHECKS = {
    "salaries": check_salaries,
    "extremes": check_extremes,
    "ce": check_ce,
    "coop": check_coop,
}


def check(workload: str, record: dict) -> tuple[bool, list[str]]:
    """(operation failed, mismatches) for one market record. A market whose
    commands did not all exit 0 failed and is not checked further."""
    for run in record["runs"]:
        if run["code"] != 0:
            return True, [f"{' '.join(run['argv'][:2])} exited {run['code']}: {run['err'].strip()[-300:]}"]
    try:
        return False, CHECKS[workload](record)
    except (ValueError, IndexError, KeyError, json.JSONDecodeError) as exc:
        return False, [f"unreadable output: {exc!r}"]

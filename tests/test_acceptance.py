"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every expected number is asserted with zero tolerance.
"""

from fractions import Fraction as F
from itertools import permutations
from random import Random

from corematch import (
    Allocation,
    RawMarket,
    balance,
    build_game,
    buyer_core_constraints,
    ce_constraints,
    ce_vertices,
    constant_decrease,
    core_violation,
    dual_value,
    enumerate_extremes,
    extended_tight_digraph,
    fair_division,
    has_dominant_diagonal,
    is_core_allocation,
    is_extreme,
    is_in_kernel,
    is_maximum,
    is_minimum,
    lemaral_vector,
    marginal_vector,
    max_competitive_salaries,
    market_core_system,
    max_valid_decrease,
    maxmin_table,
    min_competitive_salaries,
    nucleolus,
    optimal_matching,
    shapley,
    side_optimal_allocations,
    surplus_matrix,
    tau_value,
    tight_digraph_of_system,
)
from helpers import (
    brute_force_core_membership,
    brute_force_vertices,
    random_balanced_market,
)
from test_game import TINY_DUAL, TINY_V
from test_maxmin import GOLDEN_EXTREMES, parse_golden


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_matching_and_salary_bounds(bench):
    res = optimal_matching(bench)
    assert res.matching.pairs == (("f1", "w1"), ("f1", "w2"), ("f2", "w3"))
    assert res.value == 18
    assert min_competitive_salaries(bench) == (F(3), F(2), F(0))
    assert max_competitive_salaries(bench) == (F(8), F(6), F(4))
    _report(1, "optimal matching, value 18, salary bounds (3,2,0) and (8,6,4)")


def test_criterion_2_extreme_enumeration(bench):
    system = market_core_system(bench)
    extremes = enumerate_extremes(system)
    got = {
        p.salaries: (p.allocation.firm_payoffs, len(p.witnesses))
        for p in extremes.points
    }
    assert got == GOLDEN_EXTREMES
    assert extremes.witness_count() == 28

    rows = maxmin_table(system)
    golden = parse_golden()
    assert len(rows) == 48
    for (order, vec, ok), (workers, maximize, g_vec, g_ok) in zip(rows, golden):
        assert order.workers == workers
        assert order.maximize == maximize
        assert vec == g_vec
        assert ok == g_ok
    _report(2, "9 extreme vectors, 28 of 48 extended orders, full table row-by-row")


def test_criterion_3_tight_digraphs(bench):
    bm = balance(bench)
    system = market_core_system(bench)
    expected_arcs = {
        (F(3), F(2), F(0)): {(0, 3), (3, 1), (3, 2)},
        (F(8), F(6), F(4)): {(1, 0), (2, 0), (3, 0), (3, 2)},
        (F(3), F(3), F(0)): {(0, 3), (2, 3), (3, 1)},
        (F(7), F(6), F(4)): {(2, 0), (3, 0), (3, 1), (3, 2)},
    }
    for y, arcs in expected_arcs.items():
        digraph = tight_digraph_of_system(system, y)
        assert set(digraph.arc_pairs()) == arcs, y
        assert is_extreme(system, y)
    for vertex in brute_force_vertices(bm):
        assert is_minimum(system, vertex) == (vertex == (F(3), F(2), F(0)))
        assert is_maximum(system, vertex) == (vertex == (F(8), F(6), F(4)))
    _report(3, "figure arc sets exact; minimum/maximum flags unique")


def test_criterion_4_single_core_point_market(ones):
    bm = balance(ones)
    assert brute_force_vertices(bm) == {(F(1), F(1), F(1), F(0))}
    g = build_game(ones)
    core_point = Allocation((F(0), F(0)), (F(1), F(1), F(1)))
    assert brute_force_core_membership(
        g, core_point.firm_payoffs + core_point.worker_payoffs
    )
    third = F(1, 3)
    kernel_points = [
        Allocation((F(1), F(1)), (third, third, third)),
        core_point,
        Allocation((F(3, 2), F(3, 2)), (F(0), F(0), F(0))),
    ]
    for z in kernel_points:
        assert is_in_kernel(g, z)
    assert not is_core_allocation(ones, kernel_points[0])
    assert shapley(g) == Allocation(
        (F(78, 120), F(78, 120)), (F(68, 120), F(68, 120), F(68, 120))
    )
    _report(4, "unique core point, kernel memberships, exact Shapley value")


def test_criterion_5_point_solutions(bench):
    g = build_game(bench)
    assert nucleolus(bench) == Allocation(
        (F(4), F(9, 4)), (F(23, 4), F(17, 4), F(7, 4))
    )
    assert fair_division(bench) == Allocation(
        (F(9, 2), F(2)), (F(11, 2), F(4), F(2))
    )
    tau = tau_value(g)
    assert tau == Allocation(
        (F(143, 28), F(52, 28)), (F(149, 28), F(108, 28), F(52, 28))
    )
    # the pair {f2, w3} blocks the tau value: 104/28 < 4
    blocked = tau.firm_payoffs[1] + tau.worker_payoffs[2]
    assert blocked == F(104, 28) < F(4) == g.value(("f2", "w3"))
    assert not is_core_allocation(bench, tau)
    _report(5, "nucleolus, fair division, tau value exact; tau blocked by {f2,w3}")


def test_criterion_6_dominant_diagonal_market(dd):
    check = has_dominant_diagonal(dd)
    assert check.holds
    firm_opt, worker_opt = side_optimal_allocations(dd)
    assert firm_opt == Allocation((F(10), F(5)), (F(0), F(0), F(0)))
    assert worker_opt == Allocation((F(0), F(0)), (F(6), F(4), F(5)))
    g = build_game(dd)
    rejected = Allocation((F(0), F(5)), (F(6), F(4), F(0)))
    assert core_violation(dd, rejected) == frozenset(("f1", "w3"))
    target = Allocation((F(5), F(4)), (F(1), F(4), F(1)))
    assert is_extreme(market_core_system(dd), target.worker_payoffs)
    flat = target.firm_payoffs + target.worker_payoffs
    orders = list(permutations(g.players))
    assert len(orders) == 120
    assert all(marginal_vector(g, order) != flat for order in orders)
    _report(6, "dominant diagonal, side optima, {f1,w3} witness, non-marginal extreme")


def test_criterion_7_buyer_seller_market(buyers):
    got = {v.buyer_payoffs for v in ce_vertices(buyers)}
    assert got == {
        (F(4), F(2), F(0)),
        (F(5), F(3), F(0)),
        (F(8), F(6), F(3)),
        (F(8), F(6), F(4)),
    }
    x = (F(3), F(2), F(0))
    assert buyer_core_constraints(buyers).contains(x)
    assert not ce_constraints(buyers).contains(x)
    digraph = extended_tight_digraph(ce_constraints(buyers), (F(4), F(2), F(0)))
    assert set(digraph.arc_pairs()) == {(0, 3), (1, 2), (2, 1), (3, 2)}
    assert digraph.sources() == (0,)
    _report(7, "CE vertex set exact; (3,2,0) core-only; extended digraph arcs")


def test_criterion_8_duality_and_lemarals(tiny):
    g = build_game(tiny)
    assert len(TINY_V) == len(TINY_DUAL) == 15
    for coalition, v in TINY_V.items():
        assert g.value(coalition) == v
    for coalition, v in TINY_DUAL.items():
        assert dual_value(g, coalition) == v
    target = (F(2), F(0), F(3), F(2))
    assert brute_force_core_membership(g, target)
    count = 0
    for order in permutations(g.players):
        vec = lemaral_vector(g, order)
        count += 1
        assert vec != target
        if order[0] == "f1":
            assert vec[g.player_index("f1")] == 4
            assert not is_core_allocation(
                tiny, Allocation(tuple(vec[:2]), tuple(vec[2:]))
            )
    assert count == 24
    _report(8, "full value/dual tables; lemaral vectors miss the extreme point")


def test_criterion_9_randomized_oracle_suite():
    rng = Random(20240817)
    sizes = [2] * 60 + [3] * 70 + [4] * 50 + [5] * 20
    markets = [random_balanced_market(rng, n_workers=n) for n in sizes]
    assert len(markets) >= 200

    checked_inv = 0
    for m in markets:
        bm = balance(m)
        mu = optimal_matching(m).matching
        system = market_core_system(m)
        g = build_game(m)

        # extreme enumeration equals the independent vertex oracle
        vertices = brute_force_vertices(bm)
        assert enumerate_extremes(system).salary_vectors() == vertices

        # extremality test agrees with vertex membership
        verts = sorted(vertices)
        for vertex in verts:
            assert is_extreme(system, vertex)
        for a, b in zip(verts, verts[1:]):
            mid = tuple((p + q) / 2 for p, q in zip(a, b))
            if mid not in vertices and system.contains(mid):
                assert not is_extreme(system, mid)

        # the nucleolus sits in core and kernel
        nuc = nucleolus(m)
        assert brute_force_core_membership(g, nuc.firm_payoffs + nuc.worker_payoffs)
        assert is_in_kernel(g, nuc)

        # superadditivity of the built game
        grand = g.grand_mask
        for _ in range(8):
            s = rng.randrange(1, grand)
            t = rng.randrange(1, grand) & ~s
            if t:
                assert g.values[s | t] >= g.values[s] + g.values[t]

        # minimum salaries are invariant under a valid constant decrease
        firm = rng.choice(m.firm_ids)
        matched = mu.workers_of(firm)
        if matched:
            c_star = max_valid_decrease(m, firm)
            raw = RawMarket(m.firm_ids, m.capacities, m.worker_ids,
                            m.matrix, (F(0),) * m.n_workers)
            lo = min_competitive_salaries(m)
            c = c_star if rng.random() < 0.5 else c_star / 2
            decreased, report = constant_decrease(raw, firm, c)
            if report.valid:
                lo_c = min_competitive_salaries(surplus_matrix(decreased))
                for w in matched:
                    j = m.worker_index(w)
                    assert lo_c[j] == lo[j]
                checked_inv += 1
    assert checked_inv >= 100
    _report(9, f"oracle equivalence and invariants on {len(markets)} random markets")

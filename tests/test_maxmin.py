from fractions import Fraction as F
from random import Random

import pytest

from corematch import (
    CorematchError,
    ExtendedOrder,
    LimitExceededError,
    balance,
    enumerate_extremes,
    market_core_system,
    maxmin_table,
    optimal_matching,
    witnesses_for,
)
from conftest import fr
from corematch import Market
from helpers import brute_force_vertices, maxmin_vector, random_balanced_market

# every extended order of the benchmark market with its max-min vector and
# core membership; permutation groups in lexicographic order, flags counted
# min-first (m = minimize, M = maximize)
GOLDEN_TABLE = """
123 mmm |  0 0  0 | out
123 mmM |  0 0 -3 | out
123 mMm |  0 6  3 | out
123 mMM |  0 6 -3 | out
123 Mmm |  8 0  3 | out
123 MmM |  8 0 -2 | out
123 MMm |  8 6  3 | in
123 MMM |  8 6  4 | in
132 mmm |  0 2  0 | out
132 mmM |  0 3  0 | out
132 mMm |  0 0 -3 | out
132 mMM |  0 0 -3 | out
132 Mmm |  8 5  3 | in
132 MmM |  8 6  3 | in
132 MMm |  8 6  4 | in
132 MMM |  8 6  4 | in
213 mmm |  0 0  0 | out
213 mmM |  0 0 -3 | out
213 mMm |  8 0  3 | out
213 mMM |  8 0 -2 | out
213 Mmm |  0 6  3 | out
213 MmM |  0 6 -3 | out
213 MMm |  8 6  3 | in
213 MMM |  8 6  4 | in
231 mmm |  3 0  0 | out
231 mmM |  5 0  0 | out
231 mMm |  1 0 -2 | out
231 mMM |  3 0 -2 | out
231 Mmm |  6 6  3 | in
231 MmM |  8 6  3 | in
231 MMm |  7 6  4 | in
231 MMM |  8 6  4 | in
312 mmm |  3 2  0 | in
312 mmM |  3 3  0 | in
312 mMm |  5 2  0 | in
312 mMM |  5 3  0 | in
312 Mmm |  7 6  4 | in
312 MmM |  7 6  4 | in
312 MMm |  8 6  4 | in
312 MMM |  8 6  4 | in
321 mmm |  3 2  0 | in
321 mmM |  5 2  0 | in
321 mMm |  3 3  0 | in
321 mMM |  5 3  0 | in
321 Mmm |  7 6  4 | in
321 MmM |  8 6  4 | in
321 MMm |  7 6  4 | in
321 MMM |  8 6  4 | in
"""

# the nine extreme core allocations of the benchmark market with the number
# of extended orders supporting each
GOLDEN_EXTREMES = {
    (F(3), F(2), F(0)): ((F(9), F(4)), 2),
    (F(3), F(3), F(0)): ((F(8), F(4)), 2),
    (F(5), F(2), F(0)): ((F(7), F(4)), 2),
    (F(5), F(3), F(0)): ((F(6), F(4)), 2),
    (F(6), F(6), F(3)): ((F(2), F(1)), 1),
    (F(7), F(6), F(4)): ((F(1), F(0)), 5),
    (F(8), F(5), F(3)): ((F(1), F(1)), 1),
    (F(8), F(6), F(3)): ((F(0), F(1)), 4),
    (F(8), F(6), F(4)): ((F(0), F(0)), 9),
}


def parse_golden():
    rows = []
    for line in GOLDEN_TABLE.strip().splitlines():
        head, ys, flag = (part.strip() for part in line.split("|"))
        perm_digits, updown = head.split()
        workers = tuple(f"w{d}" for d in perm_digits)
        maximize = tuple(ch == "M" for ch in updown)
        vec = tuple(F(v) for v in ys.split())
        rows.append((workers, maximize, vec, flag == "in"))
    return rows


def _setup(m):
    bm = balance(m)
    return bm, optimal_matching(bm.market).matching, market_core_system(m)


def test_maxmin_worked_examples(bench):
    bm, mu, _ = _setup(bench)
    cases = [
        ((("w2", "w3", "w1"), (True, True, False)), (F(7), F(6), F(4))),
        ((("w1", "w2", "w3"), (False, True, False)), (F(0), F(6), F(3))),
        ((("w3", "w1", "w2"), (False, False, True)), (F(3), F(3), F(0))),
    ]
    for (workers, flags), expected in cases:
        assert maxmin_vector(bm, mu, ExtendedOrder(workers, flags)) == expected


def test_full_order_table_matches_golden(bench):
    _, _, system = _setup(bench)
    rows = maxmin_table(system)
    golden = parse_golden()
    assert len(rows) == len(golden) == 48
    for (order, vec, ok), (workers, maximize, g_vec, g_ok) in zip(rows, golden):
        assert order.workers == workers
        assert order.maximize == maximize
        assert vec == g_vec
        assert ok == g_ok
    assert sum(1 for _, _, ok in rows if ok) == 28


def test_table_agrees_with_single_order_evaluation(bench):
    bm, mu, system = _setup(bench)
    for order, vec, ok in maxmin_table(system):
        assert maxmin_vector(bm, mu, order) == vec
        assert system.contains(vec) == ok


def test_enumerate_extremes_golden(bench):
    _, _, system = _setup(bench)
    extremes = enumerate_extremes(system)
    got = {
        p.salaries: (p.allocation.firm_payoffs, len(p.witnesses))
        for p in extremes.points
    }
    assert got == GOLDEN_EXTREMES
    assert extremes.witness_count() == 28


def test_enumerate_extremes_on_ones(ones):
    _, _, system = _setup(ones)
    extremes = enumerate_extremes(system)
    assert len(extremes.points) == 1
    (point,) = extremes.points
    assert point.salaries == (F(1), F(1), F(1), F(0))
    assert point.allocation.firm_payoffs == (F(0), F(0))
    assert point.allocation.worker_payoffs == (F(1), F(1), F(1))


def test_enumerate_extremes_zero_matrix():
    m = Market(("f1",), (2,), ("w1", "w2"), fr([[0, 0]]))
    _, _, system = _setup(m)
    extremes = enumerate_extremes(system)
    assert extremes.salary_vectors() == {(F(0), F(0))}


def test_brute_force_vertices(bench, ones):
    bm, _, _ = _setup(bench)
    assert brute_force_vertices(bm) == frozenset(GOLDEN_EXTREMES)
    bm1, _, _ = _setup(ones)
    assert brute_force_vertices(bm1) == {(F(1), F(1), F(1), F(0))}
    single = Market(("f1",), (1,), ("w1",), fr([[5]]))
    bms, _, _ = _setup(single)
    assert brute_force_vertices(bms) == {(F(0),), (F(5),)}


def test_witnesses(bench):
    _, _, system = _setup(bench)
    w = witnesses_for(system, (F(8), F(5), F(3)))
    assert [(o.workers, o.maximize) for o in w] == [
        (("w1", "w3", "w2"), (True, False, False))
    ]
    w = witnesses_for(system, (F(3), F(2), F(0)))
    assert {(o.workers, o.maximize) for o in w} == {
        (("w3", "w1", "w2"), (False, False, False)),
        (("w3", "w2", "w1"), (False, False, False)),
    }
    w = witnesses_for(system, (F(8), F(6), F(4)))
    assert len(w) == 9


def test_witnesses_warn_on_non_extreme(bench):
    _, _, system = _setup(bench)
    with pytest.warns(UserWarning):
        assert witnesses_for(system, (F(4), F(3), F(1))) == ()
    with pytest.warns(UserWarning):
        assert witnesses_for(system, (F(100), F(0), F(0))) == ()


def test_oracle_equivalence_on_random_markets():
    rng = Random(71)
    for _ in range(30):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, _, system = _setup(m)
        assert enumerate_extremes(system).salary_vectors() == brute_force_vertices(bm)


def test_in_core_maxmin_vectors_are_extreme():
    rng = Random(73)
    for _ in range(15):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, _, system = _setup(m)
        vertices = brute_force_vertices(bm)
        for _, vec, ok in maxmin_table(system):
            assert ok == system.contains(vec)
            if ok:
                assert vec in vertices


def test_all_min_order_is_coordinatewise_floor_when_in_core():
    rng = Random(79)
    hits = 0
    for _ in range(40):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, mu, system = _setup(m)
        n = bm.market.n_workers
        workers = bm.market.worker_ids
        order = ExtendedOrder(workers, (False,) * n)
        vec = maxmin_vector(bm, mu, order)
        if system.contains(vec):
            hits += 1
            for vertex in brute_force_vertices(bm):
                assert all(a <= b for a, b in zip(vec, vertex))
        up = maxmin_vector(bm, mu, ExtendedOrder(workers, (True,) * n))
        if system.contains(up):
            for vertex in brute_force_vertices(bm):
                assert all(a >= b for a, b in zip(up, vertex))
    assert hits > 5


def test_same_firm_adjacent_swap_invariance(bench):
    bm, mu, _ = _setup(bench)
    # w1 and w2 share a firm: swapping them in adjacent positions with the
    # same flags yields the same vector
    rng = Random(83)
    for _ in range(20):
        flags = tuple(rng.random() < 0.5 for _ in range(3))
        a = maxmin_vector(bm, mu, ExtendedOrder(("w1", "w2", "w3"), flags))
        swapped = (flags[1], flags[0], flags[2])
        b = maxmin_vector(bm, mu, ExtendedOrder(("w2", "w1", "w3"), swapped))
        assert a == b
        a = maxmin_vector(bm, mu, ExtendedOrder(("w3", "w1", "w2"), flags))
        swapped = (flags[0], flags[2], flags[1])
        b = maxmin_vector(bm, mu, ExtendedOrder(("w3", "w2", "w1"), swapped))
        assert a == b


def test_enumeration_limits():
    n = 9
    m = Market(("f1",), (n,), tuple(f"w{k}" for k in range(n)),
               (tuple(F(0) for _ in range(n)),))
    bm, _, system = _setup(m)
    with pytest.raises(LimitExceededError):
        enumerate_extremes(system)
    with pytest.raises(LimitExceededError):
        brute_force_vertices(bm)


def test_row_of_minus_two_to_the_62_is_a_row():
    # every variant has the cross-firm core row y_w2 - y_w1 >= -2**62
    big = 2**62
    for shift in range(4):
        for low in (0, 1, 3, 9):
            m = Market(("f1", "f2"), (1, 1), ("w1", "w2"),
                       fr([[big + 10 + shift, 10 + shift], [low, big - 7]]))
            bm, _, system = _setup(m)
            extremes = enumerate_extremes(system).salary_vectors()
            assert extremes == brute_force_vertices(bm)
            for _, vec, ok in maxmin_table(system):
                if ok:
                    assert system.contains(vec)
            if shift == low == 0:
                assert (F(big + 10), F(10)) in extremes
                assert (F(big + 10), F(0)) not in extremes


def test_witnesses_reject_a_vector_of_the_wrong_length(bench):
    _, _, system = _setup(bench)
    for y in ((F(1),), (F(1), F(2)), (F(0),) * 4):
        with pytest.raises(CorematchError, match="expected 3 salaries"):
            witnesses_for(system, y)

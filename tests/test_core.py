from dataclasses import replace
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings

from corematch import (
    Allocation,
    CorematchError,
    Market,
    NotOptimalError,
    RawMarket,
    balance,
    build_game,
    constant_decrease,
    core_constraints,
    core_violation,
    fair_division,
    firm_payoffs,
    is_competitive_equilibrium,
    is_core_allocation,
    is_extreme,
    is_maximum,
    is_minimum,
    market_core_system,
    max_competitive_salaries,
    max_valid_decrease,
    min_competitive_salaries,
    optimal_matching,
    salary_bounds,
    surplus_matrix,
    tight_digraph_of_system,
)
from corematch.matching import Matching
from conftest import fr
from helpers import (
    brute_force_core_membership,
    brute_force_optimum,
    brute_force_vertices,
    clone_value_min_salaries,
    enumerate_all_matchings,
    fraction_core_rows,
    marginal_max_salaries,
    markets,
    matching_value,
    padded_optimum_system,
    random_balanced_market,
    table_core_violation,
    tie_heavy_market,
    zero_heavy_market,
    random_market,
)


def _system(m):
    bm = balance(m)
    mu = optimal_matching(bm.market).matching
    return bm, mu, market_core_system(m)


def test_bench_constraint_rows(bench):
    _, _, system = _system(bench)
    rows = {(c.tail, c.head, c.rhs) for c in system.constraints}
    assert rows == {
        (0, 1, F(0)), (0, 2, F(0)), (0, 3, F(0)),
        (1, 0, F(-8)), (2, 0, F(-6)), (3, 0, F(-4)),
        (1, 3, F(-5)), (2, 3, F(-3)),
        (3, 1, F(3)), (3, 2, F(2)),
    }


def test_constraint_count_bound():
    rng = Random(37)
    for _ in range(20):
        m = random_balanced_market(rng)
        _, _, system = _system(m)
        n = m.n_workers
        assert len(system.constraints) <= n * n + 2 * n


def test_single_firm_has_only_boxes():
    m = Market(("f1",), (3,), ("w1", "w2", "w3"), fr([[5, 4, 3]]))
    _, _, system = _system(m)
    assert all(c.tail == 0 or c.head == 0 for c in system.constraints)


def test_ones_constraints(ones):
    bm, _, system = _system(ones)
    # real workers: boxes [0, 1]; cross-firm differences >= 0
    for c in system.constraints:
        if c.tail == 0:
            assert c.rhs == 0
        elif c.head == 0:
            assert c.rhs in (F(-1), F(0))  # dummy column upper bound is 0
    assert bm.market.n_workers == 4


def test_non_optimal_reference_rejected(bench):
    bad = Matching((("f1", "w1"), ("f1", "w3"), ("f2", "w2")))
    with pytest.raises(NotOptimalError):
        core_constraints(bench, bad)


def test_core_system_certifies_exactly_the_optimal_matchings():
    # every saturating matching of small balanced markets, ties included
    rng = Random(151)
    rejected = accepted = 0
    for t in range(48):
        m = random_balanced_market(rng, 2 + t % 6, max_num=rng.choice((2, 8)))
        best = brute_force_optimum(m)
        for pairs in enumerate_all_matchings(m):
            if len(pairs) < m.n_workers:
                continue
            mu = Matching(tuple((m.firm_ids[i], m.worker_ids[j]) for i, j in pairs))
            if matching_value(m, pairs) < best:
                with pytest.raises(NotOptimalError):
                    core_constraints(m, mu)
                rejected += 1
            else:
                assert core_constraints(m, mu).matching == mu
                accepted += 1
    assert rejected > 1000 and accepted > 48


def test_worker_core_membership(bench):
    _, _, system = _system(bench)
    assert system.contains((F(3), F(2), F(0)))
    assert not system.contains((F(0), F(6), F(3)))
    assert system.contains((F(8), F(6), F(4)))


def test_firm_payoffs(bench):
    bm, _, system = _system(bench)
    assert firm_payoffs(system, (F(3), F(2), F(0))).firm_payoffs == (F(9), F(4))
    assert firm_payoffs(system, (F(8), F(6), F(4))).firm_payoffs == (F(0), F(0))
    # paying every box upper bound leaves all firms with zero
    uppers = tuple(bm.market.matrix[system_firm][j]
                   for j, system_firm in enumerate(_system(bench)[2].firm_of))
    assert firm_payoffs(system, uppers).firm_payoffs == (F(0), F(0))


# f2 has a spare seat; with capacities (1, 1) the seats fall short
SPARE = Market(("f1", "f2"), (2, 2), ("w1", "w2", "w3"), fr([[8, 6, 3], [7, 6, 4]]))
SHORT = Market(("f1", "f2"), (1, 1), ("w1", "w2", "w3"), fr([[8, 6, 3], [7, 6, 4]]))


def _check_against_padded_optimum(m):
    system = market_core_system(m)
    oracle = padded_optimum_system(m)
    assert system.firm_of == oracle.firm_of
    assert system.rows == oracle.rows
    assert system.least == oracle.least
    assert system.matching == optimal_matching(m).matching


@pytest.mark.parametrize("shape", ["spare seats", "short of seats"])
def test_market_core_system_pads_as_the_padded_optimum(shape):
    rng = Random(263 if shape == "spare seats" else 269)
    for _ in range(250):
        _check_against_padded_optimum(tie_heavy_market(rng, shape))


@settings(max_examples=60, deadline=None)
@given(markets())
def test_market_core_system_pads_as_the_padded_optimum_generated(m):
    _check_against_padded_optimum(m)


@pytest.mark.parametrize(
    "m, lo, hi, at_lo",
    [
        (SPARE, (7, 6, 3), (8, 6, 4), (1, 1)),
        (SHORT, (1, 0, 0), (4, 2, 0), (7, 6)),
    ],
)
def test_the_system_takes_the_matching_of_the_market(m, lo, hi, at_lo):
    system = core_constraints(m, optimal_matching(m).matching)
    oracle = padded_optimum_system(m)
    lo, hi = tuple(map(F, lo)), tuple(map(F, hi))
    assert (min_competitive_salaries(m), max_competitive_salaries(m)) == (lo, hi)
    assert is_minimum(system, lo) and not is_minimum(system, hi)
    assert is_maximum(system, hi) and not is_maximum(system, lo)
    assert is_extreme(system, lo) and is_extreme(system, hi)
    alloc = firm_payoffs(system, lo)
    assert alloc == Allocation(tuple(map(F, at_lo)), lo)
    assert sum(alloc.firm_payoffs + lo) == optimal_matching(m).value
    padding = (F(0),) * (oracle.n_workers - m.n_workers)
    for y in (lo, hi, tuple((a + b) / 2 for a, b in zip(lo, hi))):
        assert is_extreme(system, y) == is_extreme(oracle, y + padding)
        assert (
            tight_digraph_of_system(system, y).arc_pairs()
            == tight_digraph_of_system(oracle, y + padding).arc_pairs()
        )


def test_matchings_that_are_not_optimal_are_rejected():
    for m, mu in (
        (SPARE, Matching((("f1", "w1"), ("f1", "w2")))),
        (SHORT, Matching((("f1", "w1"),))),
    ):
        with pytest.raises(NotOptimalError, match="a seat and a worker both free"):
            core_constraints(m, mu)
    worse = Matching((("f1", "w2"), ("f1", "w3"), ("f2", "w1")))
    with pytest.raises(NotOptimalError, match="value 16 is not optimal"):
        core_constraints(SPARE, worse)


def test_core_allocation_checks(ones, dd):
    bad = Allocation((F(1), F(1)), (F(1, 3),) * 3)
    assert not is_core_allocation(ones, bad)
    good = Allocation((F(0), F(0)), (F(1),) * 3)
    assert is_core_allocation(ones, good)
    alloc = Allocation((F(0), F(5)), (F(6), F(4), F(0)))
    assert core_violation(dd, alloc) == frozenset(("f1", "w3"))


def test_core_allocation_full_mode_agrees(ones):
    g = build_game(ones)
    rng = Random(41)
    for _ in range(30):
        z = [F(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(5)]
        alloc = Allocation(tuple(z[:2]), tuple(z[2:]))
        assert is_core_allocation(ones, alloc) == brute_force_core_membership(g, z)


def test_core_violation_witness_is_the_table_witness():
    rng = Random(53)
    for _ in range(60):
        m = zero_heavy_market(rng, max_workers=4)
        g = build_game(m)
        fd = fair_division(m)
        base = list(fd.firm_payoffs + fd.worker_payoffs)
        n, nf = len(base), m.n_firms
        for _ in range(6):
            z = list(base)
            i, j = rng.sample(range(n), 2)
            shift = F(rng.randint(0, 6), 2)
            z[i] -= shift
            z[j] += shift if rng.random() < 0.8 else shift + 1
            witness = core_violation(m, Allocation(tuple(z[:nf]), tuple(z[nf:])))
            assert witness == table_core_violation(m, g, z)
            assert (witness is None) == brute_force_core_membership(g, z)


def test_allocation_sides_must_match_the_market(bench):
    # the bench nucleolus with worker w1 moved to the firm side
    moved = Allocation((F(4), F(9, 4), F(23, 4)), (F(17, 4), F(7, 4)))
    with pytest.raises(CorematchError, match="3 firm payoffs and 2 salaries"):
        is_core_allocation(bench, moved)
    with pytest.raises(CorematchError, match="the market has 2 firms and 3"):
        core_violation(bench, moved)


def test_competitive_equilibrium(bench):
    mu = optimal_matching(bench).matching
    assert is_competitive_equilibrium(bench, mu, (F(3), F(2), F(0)))
    # at zero salaries f2 demands w1 (7) over its assigned w3 (4)
    assert not is_competitive_equilibrium(bench, mu, (F(0), F(0), F(0)))


def test_demand_value_matches_bundle_enumeration():
    from itertools import combinations

    from corematch.core import demand_value

    rng = Random(151)
    for _ in range(25):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        y = tuple(F(rng.randint(0, 10), 2) for _ in range(m.n_workers))
        for i in range(m.n_firms):
            best = F(0)
            for size in range(1, m.capacities[i] + 1):
                for bundle in combinations(range(m.n_workers), size):
                    gain = sum((m.matrix[i][j] - y[j] for j in bundle), F(0))
                    best = max(best, gain)
            assert demand_value(m, i, y) == best


def test_unmatched_worker_needs_zero_salary():
    m = Market(("f1",), (1,), ("w1", "w2"), fr([[5, 0]]))
    mu = Matching((("f1", "w1"),))
    assert is_competitive_equilibrium(m, mu, (F(0), F(0)))
    assert not is_competitive_equilibrium(m, mu, (F(0), F(1)))


def test_salary_bounds(bench, dd):
    assert max_competitive_salaries(bench) == (F(8), F(6), F(4))
    assert min_competitive_salaries(bench) == (F(3), F(2), F(0))
    assert max_competitive_salaries(dd) == (F(6), F(4), F(5))
    assert min_competitive_salaries(dd) == (F(0), F(0), F(0))


def test_null_worker_and_single_pair_bounds():
    m = Market(("f1",), (1,), ("w1", "w2"), fr([[5, 0]]))
    assert max_competitive_salaries(m)[1] == 0
    single = Market(("f1",), (1,), ("w1",), fr([[5]]))
    assert min_competitive_salaries(single) == (F(0),)
    assert max_competitive_salaries(single) == (F(5),)


def _check_bounds_against_oracles(m):
    system = market_core_system(m)
    lowest, highest = salary_bounds(system)
    assert lowest[: m.n_workers] == clone_value_min_salaries(m)
    assert highest[: m.n_workers] == marginal_max_salaries(m)
    assert is_minimum(system, lowest)
    assert is_maximum(system, highest)


def test_salary_bounds_match_paper_oracles():
    rng = Random(61)
    # balanced, padded with dummy workers, padded with a dummy firm
    shapes = {-1: 0, 0: 0, 1: 0}
    while min(shapes.values()) < 15:
        m = random_market(rng, max_workers=6)
        gap = m.total_capacity - m.n_workers
        shapes[(gap > 0) - (gap < 0)] += 1
        _check_bounds_against_oracles(m)


@settings(max_examples=60, deadline=None)
@given(markets())
def test_salary_bounds_match_paper_oracles_generated(m):
    _check_bounds_against_oracles(m)


def test_salary_bounds_reject_an_empty_system(bench):
    system = market_core_system(bench)
    # y1 >= 9 contradicts the box bound y1 <= 8; reading the copy's least
    # solution certifies it
    with pytest.raises(CorematchError, match="positive cycle"):
        empty = replace(system, rows=system.rows + ((0, 1, 9 * system.scale),))
        salary_bounds(empty)


def test_rebuilt_system_solves_its_own_rows(bench):
    system = market_core_system(bench)
    # y1 >= 5 raises worker 1's least salary; the copy keeps no stale solution
    raised = replace(system, rows=system.rows + ((0, 1, 5 * system.scale),))
    assert salary_bounds(raised)[0] == (F(5), F(2), F(0))
    assert salary_bounds(system)[0] == (F(3), F(2), F(0))


def test_constraint_view_matches_fraction_rows():
    rng = Random(211)
    # balanced, padded with dummy workers, padded with a dummy firm
    shapes = {-1: 0, 0: 0, 1: 0}
    while min(shapes.values()) < 10:
        m = random_market(rng, max_workers=6)
        gap = m.total_capacity - m.n_workers
        shapes[(gap > 0) - (gap < 0)] += 1
        _, _, system = _system(m)
        rows = tuple((c.tail, c.head, c.rhs) for c in system.constraints)
        assert rows == fraction_core_rows(m)


def test_bounds_of_a_spare_seat_market_pass_the_digraph_tests():
    m = Market(("f1", "f2"), (2, 2), ("w1", "w2", "w3"), fr([[8, 6, 3], [7, 6, 4]]))
    bm, mu, system = _system(m)
    assert bm.market.n_workers == 4
    lowest, highest = min_competitive_salaries(m), max_competitive_salaries(m)
    assert len(lowest) == len(highest) == 3
    assert is_minimum(system, lowest)
    assert is_maximum(system, highest)
    assert system.contains(lowest) and system.contains(highest)
    assert not system.contains((F(9), F(0), F(0)))


def test_core_equivalences_on_random_markets():
    rng = Random(43)
    for _ in range(25):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, mu, system = _system(m)
        g = build_game(m)
        n = m.n_workers
        uppers = [m.matrix[system.firm_of[j]][j] for j in range(n)]
        for _ in range(12):
            y = tuple(
                F(rng.randint(0, int(uppers[j] * 2) + 1), 2) for j in range(n)
            )
            in_cw = system.contains(y)
            alloc = firm_payoffs(system, y)
            assert in_cw == brute_force_core_membership(
                g, alloc.firm_payoffs + alloc.worker_payoffs
            )
            assert in_cw == is_competitive_equilibrium(m, mu, y)


def test_lattice_bounds_hold_at_extremes(bench):
    bm, _, _ = _system(bench)
    lo = min_competitive_salaries(bench)
    hi = max_competitive_salaries(bench)
    for vertex in brute_force_vertices(bm):
        assert all(lo[j] <= vertex[j] <= hi[j] for j in range(3))


def test_boundary_salaries_corollary():
    rng = Random(47)
    for _ in range(20):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, mu, system = _system(m)
        lo = min_competitive_salaries(m)
        hi = max_competitive_salaries(m)
        assert any(v == 0 for v in lo)
        assert any(
            hi[j] == m.matrix[system.firm_of[j]][j] for j in range(m.n_workers)
        )


RAW_BENCH = RawMarket(("f1", "f2"), (2, 1), ("w1", "w2", "w3"),
                      fr([[9, 7, 3], [8, 7, 4]]), (F(1), F(1), F(0)))


def test_constant_decrease_zero_is_identity():
    decreased, report = constant_decrease(RAW_BENCH, "f1", F(0))
    assert decreased == RAW_BENCH
    assert report.valid


def test_constant_decrease_f2_by_four():
    decreased, report = constant_decrease(RAW_BENCH, "f2", F(4))
    m = surplus_matrix(decreased)
    assert m.matrix[1] == (F(3), F(2), F(0))
    assert report.within_matched_surplus  # c = 4 <= a[f2][w3] = 4
    # the old optimum stays optimal in the decreased market
    assert report.keeps_optimal_matchings
    assert report.valid


def test_constant_decrease_clamps_and_fails_condition():
    decreased, report = constant_decrease(RAW_BENCH, "f2", F(9))
    m = surplus_matrix(decreased)
    assert m.matrix[1] == (F(0), F(0), F(0))
    assert not report.within_matched_surplus


def test_max_valid_decrease(bench):
    assert max_valid_decrease(bench, "f1") == 4  # min{8-3, 6-2}
    assert max_valid_decrease(bench, "f2") == 4  # 4 - 0


def test_max_valid_decrease_touching_zero():
    # two firms bidding 5 for one worker: competition forces the minimum
    # salary up to the full surplus, leaving no room to decrease
    m = Market(("f1", "f2"), (1, 1), ("w1",), fr([[5], [5]]))
    assert min_competitive_salaries(m) == (F(5),)
    assert max_valid_decrease(m, "f1") == 0


def test_min_salary_invariance_under_valid_decrease():
    rng = Random(53)
    checked = 0
    for _ in range(30):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        raw = RawMarket(m.firm_ids, m.capacities, m.worker_ids, m.matrix,
                        (F(0),) * m.n_workers)
        mu = optimal_matching(m).matching
        firm = rng.choice(m.firm_ids)
        if not mu.workers_of(firm):
            continue
        c_star = max_valid_decrease(m, firm)
        lo = min_competitive_salaries(m)
        for c in {F(0), c_star / 2, c_star}:
            decreased, report = constant_decrease(raw, firm, c)
            if not report.valid:
                continue
            lo_c = min_competitive_salaries(surplus_matrix(decreased))
            for w in mu.workers_of(firm):
                j = m.worker_index(w)
                assert lo_c[j] == lo[j]
                checked += 1
    assert checked > 20

from fractions import Fraction as F
from itertools import permutations
from random import Random

import pytest

from corematch import (
    Allocation,
    Market,
    NotBalancedError,
    NotDominantDiagonalError,
    NotImputationError,
    NotInCoreError,
    balance,
    build_game,
    core_violation,
    fair_division,
    has_dominant_diagonal,
    is_core_allocation,
    is_extreme,
    is_in_kernel,
    kernel_core_test,
    marginal_vector,
    market_core_system,
    max_surplus,
    nucleolus,
    shapley,
    side_optimal_allocations,
    tau_value,
    firm_payoffs,
    is_convex_market,
    CorematchError,
)
from conftest import fr
from helpers import (
    brute_force_convex,
    brute_force_core_membership,
    brute_force_vertices,
    nucleolus_all_coalitions,
    random_balanced_market,
    random_market,
)

THIRD = F(1, 3)


def test_max_surplus_ones(ones):
    g = build_game(ones)
    z = Allocation((F(1), F(1)), (THIRD,) * 3)
    assert max_surplus(g, z, "f1", "f2") == THIRD
    assert max_surplus(g, z, "w1", "w2") == THIRD
    assert max_surplus(g, z, "f1", "w1") == THIRD


def test_max_surplus_zero_game():
    m = Market(("f1",), (1,), ("w1",), fr([[0]]))
    g = build_game(m)
    z = Allocation((F(0),), (F(0),))
    assert max_surplus(g, z, "f1", "w1") == 0


def test_max_surplus_requires_imputation(ones):
    g = build_game(ones)
    with pytest.raises(NotImputationError):
        max_surplus(g, Allocation((F(5), F(0)), (F(0),) * 3), "f1", "f2")


def test_kernel_membership_ones(ones):
    g = build_game(ones)
    assert is_in_kernel(g, Allocation((F(1), F(1)), (THIRD,) * 3))
    assert is_in_kernel(g, Allocation((F(0), F(0)), (F(1),) * 3))
    assert is_in_kernel(g, Allocation((F(3, 2), F(3, 2)), (F(0),) * 3))


def test_kernel_segment_ones(ones):
    g = build_game(ones)
    rng = Random(89)
    for _ in range(10):
        alpha = F(rng.randint(0, 6), 4)  # in [0, 3/2]
        z = Allocation((alpha, alpha), (F(1) - 2 * alpha / 3,) * 3)
        assert is_in_kernel(g, z)
    # off the symmetric segment the pair balance breaks
    assert not is_in_kernel(g, Allocation((F(3, 2), F(0)), (F(1, 2),) * 3))


def test_kernel_not_inside_core(ones):
    g = build_game(ones)
    z = Allocation((F(1), F(1)), (THIRD,) * 3)
    assert is_in_kernel(g, z) and not is_core_allocation(ones, z)


def test_kernel_core_reduction_vacuous_on_ones(ones):
    z = Allocation((F(0), F(0)), (F(1),) * 3)
    assert kernel_core_test(ones, z)


def test_kernel_core_test_rejects_non_core(ones):
    with pytest.raises(NotInCoreError):
        kernel_core_test(ones, Allocation((F(1), F(1)), (THIRD,) * 3))


def test_kernel_core_agrees_with_full_kernel_on_core_points():
    rng = Random(97)
    for _ in range(15):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        g = build_game(m)
        bm = balance(m)
        system = market_core_system(m)
        vertices = sorted(brute_force_vertices(bm))
        samples = vertices[:3]
        if len(vertices) >= 2:
            mid = tuple((a + b) / 2 for a, b in zip(vertices[0], vertices[-1]))
            samples.append(mid)
        for y in samples:
            alloc = firm_payoffs(system, y)
            assert kernel_core_test(m, alloc) == is_in_kernel(g, alloc)


def test_nucleolus_bench(bench):
    assert nucleolus(bench) == Allocation(
        (F(4), F(9, 4)), (F(23, 4), F(17, 4), F(7, 4))
    )


def test_nucleolus_ones_is_the_core_point(ones):
    expected = Allocation((F(0), F(0)), (F(1), F(1), F(1)))
    assert nucleolus(ones) == expected
    assert nucleolus_all_coalitions(build_game(ones)) == expected


def test_nucleolus_single_pair():
    m = Market(("f1",), (1,), ("w1",), fr([[5]]))
    assert nucleolus(m) == Allocation((F(5, 2),), (F(5, 2),))


def diagonal_market(n: int) -> Market:
    """Firm i values only worker i, at 2i; all capacities 1."""
    return Market(
        tuple(f"f{i}" for i in range(1, n + 1)),
        (1,) * n,
        tuple(f"w{j}" for j in range(1, n + 1)),
        tuple(
            tuple(F(2 * i) if i == j else F(0) for j in range(1, n + 1))
            for i in range(1, n + 1)
        ),
    )


def test_nucleolus_beyond_the_game_table_limit():
    m = diagonal_market(9)
    assert m.n_firms + m.n_workers == 18
    halves = tuple(F(i) for i in range(1, 10))
    assert nucleolus(m) == Allocation(halves, halves)


def test_kernel_paths_reject_a_misplaced_payoff(bench):
    moved = Allocation((F(4), F(9, 4), F(23, 4)), (F(17, 4), F(7, 4)))
    g = build_game(bench)
    for check in (
        lambda: is_in_kernel(g, moved),
        lambda: max_surplus(g, moved, "f1", "f2"),
        lambda: kernel_core_test(bench, moved),
    ):
        with pytest.raises(CorematchError, match="3 firm payoffs and 2 salaries"):
            check()


def test_nucleolus_families_agree_on_random_markets():
    rng = Random(101)
    for _ in range(15):
        m = random_market(rng, max_workers=4)
        assert nucleolus(m) == nucleolus_all_coalitions(build_game(m))


def test_nucleolus_in_core_and_kernel():
    rng = Random(103)
    for _ in range(12):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        g = build_game(m)
        nuc = nucleolus(m)
        assert brute_force_core_membership(g, nuc.firm_payoffs + nuc.worker_payoffs)
        assert is_in_kernel(g, nuc)


def test_shapley_ones(ones):
    g = build_game(ones)
    assert shapley(g) == Allocation(
        (F(78, 120), F(78, 120)), (F(68, 120),) * 3
    )


def test_shapley_symmetry_and_zero_game(bench):
    g = build_game(bench)
    val = shapley(g)
    assert sum(val.firm_payoffs + val.worker_payoffs, F(0)) == 18
    zero = Market(("f1", "f2"), (1, 1), ("w1", "w2"), fr([[0, 0], [0, 0]]))
    gz = build_game(zero)
    assert shapley(gz) == Allocation((F(0), F(0)), (F(0), F(0)))
    sym = Market(("f1", "f2"), (1, 1), ("w1", "w2"), fr([[2, 2], [2, 2]]))
    gs = build_game(sym)
    vs = shapley(gs)
    assert vs.firm_payoffs[0] == vs.firm_payoffs[1]
    assert vs.worker_payoffs[0] == vs.worker_payoffs[1]


def test_tau_bench(bench):
    g = build_game(bench)
    tau = tau_value(g)
    assert tau == Allocation(
        (F(143, 28), F(52, 28)), (F(149, 28), F(108, 28), F(52, 28))
    )
    # outside the core: the single-firm pair {f2, w3} can improve
    assert tau.firm_payoffs[1] + tau.worker_payoffs[2] == F(104, 28)
    assert F(104, 28) < 4 == build_game(bench).value(("f2", "w3"))
    assert not is_core_allocation(bench, tau)


def test_tau_on_dominant_diagonal_is_half_side_optimal(dd):
    g = build_game(dd)
    assert tau_value(g) == Allocation(
        (F(5), F(5, 2)), (F(3), F(2), F(5, 2))
    )
    fo, wo = side_optimal_allocations(dd)
    halves = Allocation(
        tuple(v / 2 for v in fo.firm_payoffs),
        tuple(v / 2 for v in wo.worker_payoffs),
    )
    assert tau_value(g) == halves
    assert fair_division(dd) == tau_value(g)


def test_fair_division_bench(bench):
    assert fair_division(bench) == Allocation(
        (F(9, 2), F(2)), (F(11, 2), F(4), F(2))
    )


def test_fair_division_unique_core_point(ones):
    assert fair_division(ones) == Allocation((F(0), F(0)), (F(1), F(1), F(1)))


def test_dominant_diagonal(dd, bench):
    check = has_dominant_diagonal(dd)
    assert check.holds
    bench_check = has_dominant_diagonal(bench)
    assert not bench_check.holds
    assert bench_check.condition1_failures == ("f2",)
    assert bench_check.condition2_failures == ()
    zero = Market(("f1",), (2,), ("w1", "w2"), fr([[0, 0]]))
    assert has_dominant_diagonal(zero).holds


def test_dominant_diagonal_needs_balance(ones):
    with pytest.raises(NotBalancedError):
        has_dominant_diagonal(ones)


def test_dominant_diagonal_iff_zero_and_full_salary_in_core():
    rng = Random(107)
    for _ in range(25):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        system = market_core_system(m)
        zeros = (F(0),) * m.n_workers
        full = tuple(m.matrix[system.firm_of[j]][j] for j in range(m.n_workers))
        both_in = system.contains(zeros) and system.contains(full)
        assert has_dominant_diagonal(m).holds == both_in


def test_side_optimal_allocations(dd):
    fo, wo = side_optimal_allocations(dd)
    assert fo == Allocation((F(10), F(5)), (F(0), F(0), F(0)))
    assert wo == Allocation((F(0), F(0)), (F(6), F(4), F(5)))
    single = Market(("f1",), (1,), ("w1",), fr([[1]]))
    fo, wo = side_optimal_allocations(single)
    assert fo == Allocation((F(1),), (F(0),))
    assert wo == Allocation((F(0),), (F(1),))
    zero = Market(("f1",), (1,), ("w1",), fr([[0]]))
    fo, wo = side_optimal_allocations(zero)
    assert fo == wo == Allocation((F(0),), (F(0),))


def test_side_optimal_requires_dominant_diagonal(bench):
    with pytest.raises(NotDominantDiagonalError):
        side_optimal_allocations(bench)


def test_extreme_allocation_not_a_marginal_vector(dd):
    target = Allocation((F(5), F(4)), (F(1), F(4), F(1)))
    assert is_extreme(market_core_system(dd), target.worker_payoffs)
    g = build_game(dd)
    flat = target.firm_payoffs + target.worker_payoffs
    count = 0
    for order in permutations(g.players):
        count += 1
        assert marginal_vector(g, order) != flat
    assert count == 120


def test_convexity(dd):
    assert not is_convex_market(dd)  # column w1 has two positive entries
    block = Market(("f1", "f2"), (2, 1), ("w1", "w2", "w3"),
                   fr([[3, 2, 0], [0, 0, 4]]))
    assert is_convex_market(block)
    zero = Market(("f1",), (2,), ("w1", "w2"), fr([[0, 0]]))
    assert is_convex_market(zero)


def test_convexity_matches_game_convexity():
    rng = Random(109)
    for _ in range(30):
        m = random_market(rng, max_workers=4)
        g = build_game(m)
        assert is_convex_market(m) == brute_force_convex(g)


def test_tau_core_violation_witness(bench):
    g = build_game(bench)
    assert core_violation(bench, tau_value(g)) is not None

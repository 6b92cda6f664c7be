from fractions import Fraction as F
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings

from corematch import (
    Allocation,
    CorematchError,
    LimitExceededError,
    Market,
    build_game,
    dual_value,
    essential_candidates,
    essential_family,
    is_core_allocation,
    lemaral_vector,
    marginal_vector,
)
from corematch.game import ESSENTIAL_LIMIT, candidate_masks
from conftest import fr
from helpers import (
    brute_force_core_membership,
    is_inessential,
    markets,
    random_market,
    zero_heavy_market,
)

# full coalitional table of the 2x2 tiny market, capacities (2,1)
TINY_V = {
    frozenset(("f1",)): 0, frozenset(("f2",)): 0,
    frozenset(("w1",)): 0, frozenset(("w2",)): 0,
    frozenset(("f1", "f2")): 0,
    frozenset(("f1", "w1")): 4, frozenset(("f1", "w2")): 3,
    frozenset(("f2", "w1")): 3, frozenset(("f2", "w2")): 2,
    frozenset(("w1", "w2")): 0,
    frozenset(("f1", "f2", "w1")): 4, frozenset(("f1", "f2", "w2")): 3,
    frozenset(("f1", "w1", "w2")): 7, frozenset(("f2", "w1", "w2")): 3,
    frozenset(("f1", "f2", "w1", "w2")): 7,
}
TINY_DUAL = {
    frozenset(("f1",)): 4, frozenset(("f2",)): 0,
    frozenset(("w1",)): 4, frozenset(("w2",)): 3,
    frozenset(("f1", "f2")): 7,
    frozenset(("f1", "w1")): 5, frozenset(("f1", "w2")): 4,
    frozenset(("f2", "w1")): 4, frozenset(("f2", "w2")): 3,
    frozenset(("w1", "w2")): 7,
    frozenset(("f1", "f2", "w1")): 7, frozenset(("f1", "f2", "w2")): 7,
    frozenset(("f1", "w1", "w2")): 7, frozenset(("f2", "w1", "w2")): 7,
    frozenset(("f1", "f2", "w1", "w2")): 7,
}


def test_tiny_game_table(tiny):
    g = build_game(tiny)
    for coalition, v in TINY_V.items():
        assert g.value(coalition) == v, coalition
    for coalition, v in TINY_DUAL.items():
        assert dual_value(g, coalition) == v, coalition


def test_ones_game_values(ones):
    g = build_game(ones)
    assert g.value(("f1", "w1", "w2")) == 2
    assert g.value(("f1", "w1")) == 1
    assert g.value(("f1", "f2", "w1")) == 1
    assert g.value(("f1", "f2", "w1", "w2", "w3")) == 3


def test_zero_matrix_game():
    m = Market(("f1",), (1,), ("w1", "w2"), fr([[0, 0]]))
    g = build_game(m)
    assert all(v == 0 for v in g.values)


def test_dual_identities(tiny):
    g = build_game(tiny)
    assert dual_value(g, ()) == 0
    assert dual_value(g, g.players) == g.value(g.players)


def test_dual_of_null_player():
    m = Market(("f1",), (1,), ("w1", "w2"), fr([[5, 0]]))
    g = build_game(m)
    assert dual_value(g, ("w2",)) == 0


def test_game_limit():
    m = Market(tuple(f"f{i}" for i in range(9)), (1,) * 9,
               tuple(f"w{j}" for j in range(8)),
               tuple((F(1),) * 8 for _ in range(9)))
    with pytest.raises(LimitExceededError):
        build_game(m)


def test_essential_candidates_count(bench):
    cands = essential_candidates(bench)
    assert len(cands) == 14  # 5 singletons + 6 for f1 + 3 for f2
    assert frozenset(("f1", "w1", "w2")) in cands
    assert frozenset(("f1", "w1", "w2", "w3")) not in cands


def test_essential_candidates_single_pair():
    m = Market(("f1",), (1,), ("w1",), fr([[5]]))
    assert set(essential_candidates(m)) == {
        frozenset(("f1",)), frozenset(("w1",)), frozenset(("f1", "w1")),
    }


def test_inessential_classes(bench):
    g = build_game(bench)
    assert is_inessential(g, ("f1", "f2", "w1"))  # two firms
    assert not is_inessential(g, ("f1",))  # singletons are essential
    assert is_inessential(g, ("f2", "w1", "w2"))  # workers over capacity
    with pytest.raises(CorematchError):
        is_inessential(g, ())


def test_essential_implies_candidate():
    rng = Random(23)
    for _ in range(20):
        m = random_market(rng, max_workers=4)
        g = build_game(m)
        cands = {g.mask_of(c) for c in essential_candidates(m)}
        assert cands == set(candidate_masks(m.capacities, m.n_workers))
        for mask in range(1, g.grand_mask + 1):
            if not is_inessential(g, g.coalition_of(mask)):
                assert mask in cands


def _table_family(m):
    """The essential candidates but the grand coalition that the game table
    finds essential, with their table values, in candidate order."""
    g = build_game(m)
    return [
        (mask, g.values[mask])
        for mask in candidate_masks(m.capacities, m.n_workers)
        if mask != g.grand_mask and not is_inessential(g, g.coalition_of(mask))
    ]


def test_essential_family_is_the_table_family():
    rng = Random(37)
    for _ in range(120):
        m = zero_heavy_market(rng)
        assert list(essential_family(m).items()) == _table_family(m)


@given(markets())
@settings(max_examples=60, deadline=None)
def test_essential_family_on_hypothesis_markets(m):
    assert list(essential_family(m).items()) == _table_family(m)


def test_essential_family_limit():
    workers = tuple(f"w{j}" for j in range(1, 12))
    # 12 singletons plus f1 with 1..5 of its 11 positive workers: 1,035
    m = Market(("f1",), (5,), workers, ((F(1),) * 11,))
    with pytest.raises(
        LimitExceededError,
        match=f"1035 essential coalitions exceeds the limit {ESSENTIAL_LIMIT}",
    ):
        essential_family(m)
    # a zero entry drops every coalition holding its worker: 12 + 637
    m = Market(("f1",), (5,), workers, ((F(0),) + (F(1),) * 10,))
    assert len(essential_family(m)) == 649


def test_marginal_vector_telescopes(tiny):
    g = build_game(tiny)
    rng = Random(5)
    players = list(g.players)
    for _ in range(10):
        rng.shuffle(players)
        vec = marginal_vector(g, tuple(players))
        assert sum(vec, F(0)) == g.value(g.players)


def test_marginal_last_player_gets_dual_singleton(tiny):
    g = build_game(tiny)
    for order in permutations(g.players):
        if order[-1] == "f1":
            vec = marginal_vector(g, order)
            assert vec[g.player_index("f1")] == 4  # = v*(f1)


def test_marginal_zero_game():
    m = Market(("f1",), (1,), ("w1",), fr([[0]]))
    g = build_game(m)
    assert marginal_vector(g, ("w1", "f1")) == (F(0), F(0))


def test_lemaral_first_player_gets_dual(tiny):
    g = build_game(tiny)
    for order in permutations(g.players):
        vec = lemaral_vector(g, order)
        first = order[0]
        assert vec[g.player_index(first)] == dual_value(g, (first,))


def test_lemaral_worked_examples(tiny):
    g = build_game(tiny)
    vec = lemaral_vector(g, ("f2", "f1", "w1", "w2"))
    assert vec[g.player_index("f2")] == 0
    assert vec[g.player_index("f1")] == 4  # min{v*(f1), v*(f1,f2) - 0}
    vec = lemaral_vector(g, ("f2", "w1", "f1", "w2"))
    assert vec[g.player_index("w1")] == 4  # min{4, 4 - 0}


def test_no_lemaral_starting_at_f1_is_in_core(tiny):
    g = build_game(tiny)
    core_max_f1 = F(2)
    for order in permutations(g.players):
        if order[0] != "f1":
            continue
        vec = lemaral_vector(g, order)
        assert vec[g.player_index("f1")] == 4
        assert vec[g.player_index("f1")] > core_max_f1
        alloc = Allocation(tuple(vec[:2]), tuple(vec[2:]))
        assert not is_core_allocation(tiny, alloc)


def test_extreme_core_point_is_no_lemaral(tiny):
    g = build_game(tiny)
    target = (F(2), F(0), F(3), F(2))
    assert is_core_allocation(tiny, Allocation(target[:2], target[2:]))
    for order in permutations(g.players):
        assert lemaral_vector(g, order) != target


def test_anticore_identity_small_markets():
    rng = Random(29)
    for _ in range(15):
        m = random_market(rng, max_workers=3)
        g = build_game(m)
        grand = g.value(g.players)
        n = g.n_players
        for _ in range(10):
            z = [F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(n)]
            # anticore of the dual: z(N) = v*(N) and z(S) <= v*(S) for all S
            in_anticore = sum(z, F(0)) == grand and all(
                sum((z[i] for i in range(n) if mask >> i & 1), F(0))
                <= g.dual_mask(mask)
                for mask in range(1, g.grand_mask + 1)
            )
            assert in_anticore == brute_force_core_membership(g, z)


def test_build_game_agrees_with_coalition_value():
    from corematch import coalition_value

    rng = Random(31)
    for _ in range(15):
        m = random_market(rng, max_workers=4)
        g = build_game(m)
        for mask in range(g.grand_mask + 1):
            coalition = g.coalition_of(mask)
            firms = [p for p in coalition if p in m.firm_ids]
            workers = [p for p in coalition if p in m.worker_ids]
            assert g.value_mask(mask) == coalition_value(m, firms, workers)

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings

from corematch import (
    BuyerMarket,
    LimitExceededError,
    NotInCoreError,
    balance,
    buyer_core_constraints,
    ce_constraints,
    ce_equals_core,
    ce_prices,
    ce_vertices,
    extended_tight_digraph,
    optimal_assignment,
    seller_payoffs,
)
import helpers
from corematch import core, kaneko
from conftest import fr
from helpers import (
    BUYER_SHAPES,
    brute_force_vertices,
    buyer_markets,
    fraction_core_rows,
    random_balanced_market,
    random_buyer_market,
    random_market,
    vertices_of_system,
)


def test_optimal_assignment(buyers):
    mu = optimal_assignment(buyers)
    assert mu.pairs == (("s1", "b1"), ("s1", "b2"), ("s2", "b3"))


def test_buyer_core_system(buyers):
    mu = optimal_assignment(buyers)
    system = buyer_core_constraints(buyers, mu)
    rows = {(c.tail, c.head, c.rhs) for c in system.constraints}
    assert rows == {
        (0, 1, F(0)), (0, 2, F(0)), (0, 3, F(0)),
        (1, 0, F(-8)), (2, 0, F(-6)), (3, 0, F(-4)),
        (1, 3, F(-5)), (2, 3, F(-3)),
        (3, 1, F(3)), (3, 2, F(2)),
    }
    assert system.contains((F(3), F(2), F(0)))
    assert system.contains((F(8), F(6), F(4)))


def test_seller_payoffs(buyers):
    mu = optimal_assignment(buyers)
    alloc = seller_payoffs(buyers, mu, (F(3), F(2), F(0)))
    assert alloc.firm_payoffs == (F(9), F(4))


def test_ce_adds_same_seller_equality(buyers):
    mu = optimal_assignment(buyers)
    system = ce_constraints(buyers, mu)
    extra = {(c.tail, c.head, c.rhs) for c in system.constraints} - {
        (c.tail, c.head, c.rhs)
        for c in buyer_core_constraints(buyers, mu).constraints
    }
    # both directions between the two buyers of s1: x1 - x2 = 2
    assert extra == {(1, 2, F(-2)), (2, 1, F(2))}
    assert not system.contains((F(3), F(2), F(0)))  # prices 5 != 4
    assert system.contains((F(8), F(6), F(4)))
    assert ce_prices(buyers, (F(8), F(6), F(4))) == (F(0), F(0))


def test_ce_vertices_golden(buyers):
    got = {(v.buyer_payoffs, v.prices) for v in ce_vertices(buyers)}
    assert got == {
        ((F(4), F(2), F(0)), (F(4), F(4))),
        ((F(5), F(3), F(0)), (F(3), F(4))),
        ((F(8), F(6), F(3)), (F(0), F(1))),
        ((F(8), F(6), F(4)), (F(0), F(0))),
    }


def test_ce_vertices_single_pair():
    b = BuyerMarket(("b1",), ("s1",), (1,), fr([[5]]))
    got = {v.buyer_payoffs for v in ce_vertices(b)}
    assert got == {(F(0),), (F(5),)}


def test_ce_vertices_scan_up_to_eight_buyers():
    # one seller with a unit per buyer: the price ranges over [0, 1]
    b = BuyerMarket(tuple(f"b{i}" for i in range(1, 8)), ("s1",), (7,),
                    fr([[i] for i in range(1, 8)]))
    got = [(v.buyer_payoffs, v.prices) for v in ce_vertices(b)]
    assert got == [
        (tuple(F(i) for i in range(7)), (F(1),)),
        (tuple(F(i) for i in range(1, 8)), (F(0),)),
    ]


def test_ce_vertices_fold_pinned_buyers():
    # one buyer against 8 units: the 7 dummy buyers are pinned at 0, so the
    # scan runs over the one real buyer, not over 8
    b = BuyerMarket(("b1",), ("s1", "s2", "s3"), (3, 3, 2), fr([[2, 1, 0]]))
    assert b.balanced().market.n_workers == 8
    got = [(v.buyer_payoffs, v.prices) for v in ce_vertices(b)]
    assert got == [((F(2),), (F(0), F(0), F(0)))]


def test_ce_constraint_view_matches_fraction_rows():
    for shape in BUYER_SHAPES:
        rng = Random(BUYER_SHAPES.index(shape) + 223)
        for _ in range(15):
            system = ce_constraints(random_buyer_market(rng, shape))
            rows = tuple((c.tail, c.head, c.rhs) for c in system.constraints)
            assert rows == fraction_core_rows(system.bm, system.matching, ce=True)


def test_ce_vertices_limit_names_buyers():
    b = BuyerMarket(tuple(f"b{i}" for i in range(1, 10)), ("s1",), (9,),
                    fr([[i] for i in range(1, 10)]))
    with pytest.raises(LimitExceededError, match="9 buyers exceeds .* limit 8"):
        ce_vertices(b)


def test_extended_tight_digraph_at_minimum(buyers):
    mu = optimal_assignment(buyers)
    d = extended_tight_digraph(buyers, mu, (F(4), F(2), F(0)))
    assert set(d.arc_pairs()) == {(0, 3), (1, 2), (2, 1), (3, 2)}
    assert d.sources() == (0,)


def test_extended_tight_digraph_at_maximum(buyers):
    mu = optimal_assignment(buyers)
    d = extended_tight_digraph(buyers, mu, (F(8), F(6), F(4)))
    assert d.sinks() == (0,)
    # every buyer reaches the ground node along directed arcs
    reversed_arcs = {(h, t) for t, h in d.arc_pairs()}
    reach = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for t, h in reversed_arcs:
            if t == u and h not in reach:
                reach.add(h)
                frontier.append(h)
    assert reach == {0, 1, 2, 3}


def test_all_ce_vertices_have_connected_base_graph(buyers):
    mu = optimal_assignment(buyers)
    for v in ce_vertices(buyers):
        d = extended_tight_digraph(buyers, mu, v.buyer_payoffs)
        assert d.base_graph_connected()


def test_digraph_rejects_non_ce_vectors(buyers):
    mu = optimal_assignment(buyers)
    with pytest.raises(NotInCoreError):
        extended_tight_digraph(buyers, mu, (F(3), F(2), F(0)))


def test_ce_equals_core_condition(buyers):
    assert not ce_equals_core(buyers)
    single_seller = BuyerMarket(("b1", "b2"), ("s1",), (2,), fr([[4], [7]]))
    assert ce_equals_core(single_seller)


def test_additive_matrix_makes_ce_equal_core():
    # a[i][j] = b_i + s_j satisfies the swap condition with equality
    b_vals = (F(3), F(2), F(1))
    s_vals = (F(2), F(5))
    matrix = tuple(tuple(bi + sj for sj in s_vals) for bi in b_vals)
    b = BuyerMarket(("b1", "b2", "b3"), ("s1", "s2"), (2, 1), matrix)
    assert ce_equals_core(b)
    core_vertices = vertices_of_system(buyer_core_constraints(b))
    ce_verts = {
        v.buyer_payoffs for v in ce_vertices(b)
    }
    assert ce_verts == core_vertices


def test_ce_subset_of_core_on_random_markets():
    rng = Random(113)
    for _ in range(20):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        # reuse the job-market generator transposed: buyers = its workers
        b = BuyerMarket(
            m.worker_ids,
            m.firm_ids,
            m.capacities,
            tuple(
                tuple(m.matrix[j][i] for j in range(m.n_firms))
                for i in range(m.n_workers)
            ),
        )
        core_sys = buyer_core_constraints(b)
        for v in ce_vertices(b):
            full = core_sys.bm.extend_worker_vector(v.buyer_payoffs)
            assert core_sys.contains(full)
        # the swap condition is vacuous with a single seller, where the core
        # can still exceed the CE set; the implication needs two sellers
        if len(b.seller_ids) >= 2 and ce_equals_core(b):
            assert {v.buyer_payoffs for v in ce_vertices(b)} == {
                core_sys.bm.strip_worker_vector(x)
                for x in vertices_of_system(core_sys)
            }


def test_same_seller_blocks_share_one_price(buyers):
    mu = optimal_assignment(buyers)
    system = ce_constraints(buyers, mu)
    for v in ce_vertices(buyers):
        x = v.buyer_payoffs
        for j, seller in enumerate(buyers.seller_ids):
            block = [
                i for i, b in enumerate(buyers.buyer_ids)
                if mu.firm_of(b) == seller
            ]
            prices = {buyers.matrix[i][j] - x[i] for i in block}
            assert len(prices) == 1


def test_buyer_core_matches_transposed_job_market(buyers, bench):
    # same numbers: the buyer-seller market is the transposed benchmark
    bm = balance(bench)
    job_vertices = brute_force_vertices(bm)
    buyer_vertices = vertices_of_system(buyer_core_constraints(buyers))
    assert job_vertices == buyer_vertices


def test_ce_vertices_solve_the_matching_once(monkeypatch):
    calls = []
    real = kaneko.optimal_matching

    def counted(m):
        calls.append(m)
        return real(m)

    for module in (core, kaneko):
        monkeypatch.setattr(module, "optimal_matching", counted)
    rng = Random(127)
    checked = 0
    while checked < 15:
        m = random_market(rng, max_workers=4)
        if max(m.total_capacity, m.n_workers) > 5:  # keep the scan small
            continue
        checked += 1
        b = BuyerMarket(
            m.worker_ids,
            m.firm_ids,
            m.capacities,
            tuple(
                tuple(m.matrix[j][i] for j in range(m.n_firms))
                for i in range(m.n_workers)
            ),
        )
        calls.clear()
        vertices = ce_vertices(b)
        assert len(calls) == 1
        for v in vertices:
            assert v.prices == ce_prices(b, v.buyer_payoffs)


def ce_oracle(b: BuyerMarket) -> list:
    """The CE vertices by brute-force vertex enumeration, original buyers."""
    system = ce_constraints(b)
    return sorted(
        system.bm.strip_worker_vector(x) for x in vertices_of_system(system)
    )


@pytest.mark.parametrize("shape", BUYER_SHAPES)
def test_ce_vertices_match_the_vertex_oracle(shape):
    rng = Random(BUYER_SHAPES.index(shape) + 139)
    for _ in range(40):
        b = random_buyer_market(rng, shape)
        bm = b.balanced()
        assert (bm.market.n_workers > len(b.buyer_ids)) == (shape == "spare units")
        assert (bm.dummy_firm_id is not None) == (shape == "short of units")
        assert [v.buyer_payoffs for v in ce_vertices(b)] == ce_oracle(b)


@settings(max_examples=60, deadline=None)
@given(buyer_markets())
def test_ce_vertices_match_the_vertex_oracle_hypothesis(b):
    assert [v.buyer_payoffs for v in ce_vertices(b)] == ce_oracle(b)


def test_ce_vertices_do_not_run_the_vertex_oracle(buyers, monkeypatch):
    def refuse(n, rows):
        raise AssertionError("the vertex oracle ran")

    monkeypatch.setattr(helpers, "vertex_solutions", refuse)
    with pytest.raises(AssertionError, match="oracle ran"):
        vertices_of_system(ce_constraints(buyers))
    got = [v.buyer_payoffs for v in ce_vertices(buyers)]
    assert got == [
        (F(4), F(2), F(0)), (F(5), F(3), F(0)), (F(8), F(6), F(3)), (F(8), F(6), F(4)),
    ]

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corematch import (
    LimitExceededError,
    Market,
    all_optimal_matchings,
    balance,
    coalition_value,
    optimal_matching,
    restrict,
)
from corematch.matching import Matching
from corematch.rationals import common_denominator
from conftest import fr
from helpers import (
    brute_force_optimal_pair_sets,
    brute_force_optimum,
    enumerate_all_matchings,
    matching_value,
    random_balanced_market,
    random_fraction,
    random_market,
    value_with_column_duplicated,
)


def test_bench_optimal_matching(bench):
    res = optimal_matching(bench)
    assert res.value == 18
    assert res.matching.pairs == (("f1", "w1"), ("f1", "w2"), ("f2", "w3"))
    assert res.certified


def test_ones_value_and_count(ones):
    res = optimal_matching(ones)
    assert res.value == 3
    assert len(res.matching.pairs) == 3
    # every worker employed, firms within capacity
    assert res.matching.unmatched_workers(ones) == ()


def test_zero_matrix():
    m = Market(("f1",), (2,), ("w1", "w2"), fr([[0, 0]]))
    res = optimal_matching(m)
    assert res.value == 0
    assert len(res.matching.pairs) == 2  # fills capacity deterministically


def test_all_optimal_unique_on_bench(bench):
    assert len(all_optimal_matchings(bench)) == 1


def test_all_optimal_on_ones_matches_exhaustive(ones):
    got = {frozenset((ones.firm_index(f), ones.worker_index(w)) for f, w in mu.pairs)
           for mu in all_optimal_matchings(ones)}
    assert got == brute_force_optimal_pair_sets(ones)
    assert len(got) == 6  # three 2+1 splits and three 1+2 splits


def test_all_optimal_single_pair():
    m = Market(("f1",), (1,), ("w1",), fr([[5]]))
    (mu,) = all_optimal_matchings(m)
    assert mu.pairs == (("f1", "w1"),)


def test_all_optimal_limit():
    m = Market(("f1",), (1,), tuple(f"w{k}" for k in range(11)),
               (tuple(F(1) for _ in range(11)),))
    with pytest.raises(LimitExceededError):
        all_optimal_matchings(m)


def test_coalition_values(bench, tiny):
    assert coalition_value(bench, ["f1"], ["w1", "w3"]) == 11
    assert coalition_value(tiny, ["f1"], ["w1", "w2"]) == 7
    # one-sided coalitions are worthless
    assert coalition_value(bench, [], ["w1", "w2"]) == 0
    assert coalition_value(bench, ["f1", "f2"], []) == 0


def test_flow_agrees_with_exhaustive_enumeration():
    rng = Random(11)
    for _ in range(60):
        m = random_market(rng)
        assert optimal_matching(m).value == brute_force_optimum(m)


def test_all_optimal_agrees_with_exhaustive():
    rng = Random(13)
    for _ in range(40):
        m = random_market(rng, max_workers=4)
        got = {
            frozenset((m.firm_index(f), m.worker_index(w)) for f, w in mu.pairs)
            for mu in all_optimal_matchings(m)
        }
        assert got == brute_force_optimal_pair_sets(m)


def test_optimal_matching_saturates_balanced_markets():
    rng = Random(17)
    for _ in range(40):
        m = random_balanced_market(rng)
        res = optimal_matching(m)
        counts = {f: 0 for f in m.firm_ids}
        for f, _ in res.matching.pairs:
            counts[f] += 1
        assert counts == dict(zip(m.firm_ids, m.capacities))


def test_superadditivity_on_random_markets():
    rng = Random(19)
    for _ in range(25):
        m = random_market(rng, max_workers=4)
        firms = list(m.firm_ids)
        workers = list(m.worker_ids)
        for _ in range(10):
            fs = [f for f in firms if rng.random() < 0.5]
            ws = [w for w in workers if rng.random() < 0.5]
            f1 = [f for f in fs if rng.random() < 0.5]
            w1 = [w for w in ws if rng.random() < 0.5]
            f2 = [f for f in fs if f not in f1]
            w2 = [w for w in ws if w not in w1]
            assert coalition_value(m, fs, ws) >= coalition_value(
                m, f1, w1
            ) + coalition_value(m, f2, w2)


def test_lexicographic_tie_break_is_deterministic():
    m = Market(("f1", "f2"), (1, 1), ("w1", "w2"), fr([[1, 1], [1, 1]]))
    res = optimal_matching(m)
    assert res.matching.pairs == (("f1", "w1"), ("f2", "w2"))


def test_duplicated_column_value(bench):
    # cloning w1 with the same-firm exclusion: best is f1 {w1, w2} + f2 {clone}
    assert value_with_column_duplicated(bench, "w1") == 21
    assert value_with_column_duplicated(bench, "w2") == 20
    assert value_with_column_duplicated(bench, "w3") == 18


def test_optimal_matching_certified_on_random_markets():
    rng = Random(71)
    for _ in range(30):
        assert optimal_matching(random_market(rng)).certified


def test_balanced_bench_unchanged(bench):
    assert balance(bench).market == bench


# Oracle markets: balanced, padded with dummy workers by ``balance``, short on
# seats, and tie-heavy with every surplus in {0, 1}. Sizes stay within the
# enumeration limit after padding.
ORACLE_KINDS = ("balanced", "padded", "short", "ties")


def _oracle_market(caps, matrix, pad=False) -> Market:
    m = Market(
        tuple(f"f{i}" for i in range(1, len(caps) + 1)),
        tuple(caps),
        tuple(f"w{j}" for j in range(1, len(matrix[0]) + 1)),
        tuple(tuple(row) for row in matrix),
    )
    return balance(m).market if pad else m


def random_oracle_market(rng: Random, kind: str) -> Market:
    n = rng.randint(2, 6)
    n_firms = rng.randint(1, min(3, n - 1) if kind == "short" else 3)
    if kind == "balanced":
        n_firms = min(n_firms, n)
        caps = [1] * n_firms
        for _ in range(n - n_firms):
            caps[rng.randrange(n_firms)] += 1
    elif kind == "padded":
        n = rng.randint(1, 5)
        caps = [rng.randint(1, 2) for _ in range(n_firms)]
        caps[0] += max(0, n + 1 - sum(caps))
    elif kind == "short":
        caps = [1] * n_firms
        for _ in range(rng.randint(0, n - 1 - n_firms)):
            caps[rng.randrange(n_firms)] += 1
    else:
        caps = [rng.randint(1, 3) for _ in range(n_firms)]
    if kind == "ties":
        matrix = [[F(rng.randint(0, 1)) for _ in range(n)] for _ in caps]
    else:
        matrix = [[random_fraction(rng) for _ in range(n)] for _ in caps]
    return _oracle_market(caps, matrix, pad=kind == "padded")


@st.composite
def oracle_markets(draw):
    n = draw(st.integers(1, 5))
    caps = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    if draw(st.booleans()):
        value = st.integers(0, 1).map(F)
    else:
        value = st.builds(F, st.integers(0, 8), st.sampled_from((1, 2, 3)))
    row = st.lists(value, min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=len(caps), max_size=len(caps)))
    return _oracle_market(caps, matrix, pad=draw(st.booleans()))


def lex_smallest_optimum(m: Market) -> tuple:
    """Enumeration oracle: the lexicographically smallest sorted index-pair
    tuple among the maximum-volume matchings of maximal value."""
    volume = min(m.total_capacity, m.n_workers)
    full = [p for p in enumerate_all_matchings(m) if len(p) == volume]
    best = max(matching_value(m, p) for p in full)
    return min(tuple(sorted(p)) for p in full if matching_value(m, p) == best)


def check_against_oracles(m: Market, rng: Random) -> None:
    res = optimal_matching(m)
    pairs = lex_smallest_optimum(m)
    assert res.matching == Matching(
        tuple((m.firm_ids[i], m.worker_ids[j]) for i, j in pairs)
    )
    assert res.value == matching_value(m, pairs)
    assert res.certified
    for _ in range(4):
        firms = [f for f in m.firm_ids if rng.random() < 0.6]
        workers = [w for w in m.worker_ids if rng.random() < 0.6]
        expected = (
            brute_force_optimum(restrict(m, firms, workers))
            if firms and workers
            else 0
        )
        assert coalition_value(m, firms, workers) == expected


def test_optimal_matching_against_enumeration():
    rng = Random(79)
    for _ in range(40):
        for kind in ORACLE_KINDS:
            check_against_oracles(random_oracle_market(rng, kind), rng)


@settings(max_examples=80, deadline=None)
@given(m=oracle_markets(), seed=st.integers(0, 2**16))
def test_optimal_matching_against_enumeration_hypothesis(m, seed):
    check_against_oracles(m, Random(seed))


def test_value_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = Random(83)
    for _ in range(30):
        for kind in ORACLE_KINDS:
            m = random_oracle_market(rng, kind)
            scale = common_denominator(a for row in m.matrix for a in row)
            # one node per seat, integer weights
            g = nx.Graph()
            for i, cap in enumerate(m.capacities):
                for seat in range(cap):
                    for j in range(m.n_workers):
                        g.add_edge(("f", i, seat), ("w", j),
                                   weight=int(m.matrix[i][j] * scale))
            mate = nx.max_weight_matching(g, maxcardinality=True)
            total = sum(g.edges[u, v]["weight"] for u, v in mate)
            assert optimal_matching(m).value == F(total, scale)

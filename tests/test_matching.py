from fractions import Fraction as F
from random import Random

import pytest

from corematch import (
    LimitExceededError,
    Market,
    all_optimal_matchings,
    balance,
    coalition_value,
    optimal_matching,
)
from corematch.matching import COALITION_CACHE_SIZE, _coalition_value_masks
from conftest import fr
from helpers import (
    brute_force_optimal_pair_sets,
    brute_force_optimum,
    random_balanced_market,
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


def test_coalition_cache_is_bounded():
    rng = Random(73)
    seen = set()
    while len(seen) < 300:
        m = random_market(rng)
        if m in seen:
            continue
        seen.add(m)
        coalition_value(m, m.firm_ids, m.worker_ids)
    assert _coalition_value_masks.cache_info().currsize <= COALITION_CACHE_SIZE
    coalition_value(m, m.firm_ids, m.worker_ids)
    hits = _coalition_value_masks.cache_info().hits
    coalition_value(m, m.firm_ids, m.worker_ids)
    assert _coalition_value_masks.cache_info().hits == hits + 1


def test_balanced_bench_unchanged(bench):
    assert balance(bench).market == bench

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings

from corematch import (
    NotInCoreError,
    ExtendedOrder,
    balance,
    is_extreme,
    is_maximum,
    is_minimum,
    market_core_system,
    max_competitive_salaries,
    min_competitive_salaries,
    optimal_matching,
    salary_bounds,
    tight_digraph_of_system,
    to_dot,
)
from corematch.tight_digraph import TightDigraph
from helpers import (
    brute_force_vertices,
    digraph_is_maximum,
    digraph_is_minimum,
    markets,
    maxmin_vector,
    random_balanced_market,
    random_market,
)


def _setup(m):
    return balance(m), market_core_system(m)


def test_bench_arc_sets(bench):
    _, system = _setup(bench)
    cases = {
        (F(3), F(2), F(0)): {(0, 3), (3, 1), (3, 2)},
        (F(8), F(6), F(4)): {(1, 0), (2, 0), (3, 0), (3, 2)},
        (F(3), F(3), F(0)): {(0, 3), (2, 3), (3, 1)},
        (F(7), F(6), F(4)): {(2, 0), (3, 0), (3, 1), (3, 2)},
    }
    for y, arcs in cases.items():
        assert set(tight_digraph_of_system(system, y).arc_pairs()) == arcs, y


def test_rejects_vectors_outside_the_core(bench):
    _, system = _setup(bench)
    with pytest.raises(NotInCoreError):
        tight_digraph_of_system(system, (F(0), F(6), F(3)))


def test_extremality(bench):
    bm, system = _setup(bench)
    assert is_extreme(system, (F(3), F(3), F(0)))
    assert not is_extreme(system, (F(4), F(3), F(1)))
    for vertex in brute_force_vertices(bm):
        assert is_extreme(system, vertex)


def test_minimum_and_maximum_flags(bench):
    _, system = _setup(bench)
    assert is_minimum(system, (F(3), F(2), F(0)))
    assert not is_minimum(system, (F(3), F(3), F(0)))  # worker 2 is a source
    assert not is_minimum(system, (F(8), F(6), F(4)))
    assert is_maximum(system, (F(8), F(6), F(4)))
    assert not is_maximum(system, (F(7), F(6), F(4)))  # worker 1 is a sink
    assert not is_maximum(system, (F(3), F(2), F(0)))


def test_dot_output(bench):
    _, system = _setup(bench)
    dot = to_dot(tight_digraph_of_system(system, (F(3), F(2), F(0))))
    assert dot.startswith("digraph tight {\n")
    assert '  0 [label="0"];' in dot
    for arc in ("0 -> 3;", "3 -> 1;", "3 -> 2;"):
        assert f"  {arc}" in dot
    assert dot.endswith("}\n")
    dot_max = to_dot(tight_digraph_of_system(system, (F(8), F(6), F(4))))
    for arc in ("1 -> 0;", "2 -> 0;", "3 -> 0;", "3 -> 2;"):
        assert f"  {arc}" in dot_max


def test_dot_without_arcs():
    dot = to_dot(TightDigraph(2, ()))
    assert dot == 'digraph tight {\n  0 [label="0"];\n  1 [label="1"];\n  2 [label="2"];\n}\n'


def test_extreme_iff_vertex_on_random_markets():
    rng = Random(59)
    for _ in range(20):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, system = _setup(m)
        vertices = brute_force_vertices(bm)
        for vertex in vertices:
            assert is_extreme(system, vertex)
        # non-vertex feasible points: midpoints of distinct vertices
        verts = sorted(vertices)
        for k in range(len(verts) - 1):
            mid = tuple((a + b) / 2 for a, b in zip(verts[k], verts[k + 1]))
            if system.contains(mid) and mid not in vertices:
                assert not is_extreme(system, mid)


def test_min_max_match_salary_bounds_on_random_markets():
    rng = Random(61)
    for _ in range(20):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        bm, system = _setup(m)
        lo = min_competitive_salaries(m)
        hi = max_competitive_salaries(m)
        for vertex in brute_force_vertices(bm):
            assert is_minimum(system, vertex) == (vertex == lo)
            assert is_maximum(system, vertex) == (vertex == hi)


def _check_flags_against_reachability(m, rng):
    system = market_core_system(m)
    bm = balance(m)
    mu = optimal_matching(bm.market).matching
    # the bounds, in-core max-min vectors of random extended orders (each a
    # vertex) and the midpoints between them
    lo, hi = salary_bounds(system)
    points = {lo, hi}
    workers = list(bm.market.worker_ids)
    for _ in range(12):
        rng.shuffle(workers)
        flags = tuple(rng.random() < 0.5 for _ in workers)
        y = maxmin_vector(bm, mu, ExtendedOrder(tuple(workers), flags))
        if system.contains(y):
            points.add(y)
    points = sorted(points)
    points += [tuple((p + q) / 2 for p, q in zip(a, b)) for a, b in zip(points, points[1:])]
    for y in points:
        assert is_minimum(system, y) == digraph_is_minimum(system, y), y
        assert is_maximum(system, y) == digraph_is_maximum(system, y), y
    for flag in (is_minimum, is_maximum):
        with pytest.raises(NotInCoreError):
            flag(system, (hi[0] + 1,) + hi[1:])


def test_min_max_flags_equal_the_reachability_oracle():
    rng = Random(223)
    # balanced, padded with dummy workers, padded with a dummy firm
    shapes = {-1: 0, 0: 0, 1: 0}
    while min(shapes.values()) < 8:
        m = random_market(rng, max_workers=5)
        if max(m.total_capacity, m.n_workers) > 6:
            continue
        gap = m.total_capacity - m.n_workers
        shapes[(gap > 0) - (gap < 0)] += 1
        _check_flags_against_reachability(m, rng)


@settings(max_examples=40, deadline=None)
@given(markets().filter(lambda m: max(m.total_capacity, m.n_workers) <= 6))
def test_min_max_flags_equal_the_reachability_oracle_generated(m):
    _check_flags_against_reachability(m, Random(229))


def test_unique_matching_gives_acyclic_digraphs():
    from corematch import all_optimal_matchings

    rng = Random(67)
    tested = 0
    for _ in range(30):
        m = random_balanced_market(rng, n_workers=rng.randint(2, 4))
        if len(all_optimal_matchings(m)) != 1:
            continue
        bm, system = _setup(m)
        lo = min_competitive_salaries(m)
        hi = max_competitive_salaries(m)
        for vertex in brute_force_vertices(bm):
            d = tight_digraph_of_system(system, vertex)
            assert _acyclic(d)
            source0 = 0 in d.sources()
            sink0 = 0 in d.sinks()
            # an extreme vector keeps node 0 connected, so never both
            assert not (source0 and sink0)
            if vertex == lo:
                assert source0 and not sink0
            if vertex == hi:
                assert sink0 and not source0
            tested += 1
    assert tested > 10


def test_benchmark_vertices_have_source_xor_sink(bench):
    bm, system = _setup(bench)
    for vertex in brute_force_vertices(bm):
        d = tight_digraph_of_system(system, vertex)
        assert (0 in d.sources()) != (0 in d.sinks())


def _acyclic(d: TightDigraph) -> bool:
    adj = {v: [] for v in range(d.n_workers + 1)}
    for t, h in d.arc_pairs():
        adj[t].append(h)
    state = {v: 0 for v in adj}

    def visit(u):
        state[u] = 1
        for v in adj[u]:
            if state[v] == 1 or (state[v] == 0 and not visit(v)):
                return False
        state[u] = 2
        return True

    return all(state[v] or visit(v) for v in adj)

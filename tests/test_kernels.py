"""The pure enumeration kernels on integer difference-constraint rows."""

from itertools import permutations
from random import Random

import pytest

import corematch
from corematch import _kernels
from helpers import vertex_solutions


def random_rows(rng: Random, n: int, spread: int = 8):
    """Both box rows for every worker plus random difference rows, repeats
    allowed."""
    rows = []
    for j in range(1, n + 1):
        low = rng.randint(-4, 4)
        rows.append((0, j, low))
        rows.append((j, 0, -low - rng.randint(0, 12)))
    for _ in range(rng.randint(0, n * n)):
        t, h = rng.sample(range(1, n + 1), 2)
        rows.append((t, h, rng.randint(-spread, spread)))
    rng.shuffle(rows)
    return rows


def in_system_vectors(n, rows):
    _, witnesses = _kernels.scan_orders(list(permutations(range(n))), n, rows, False)
    return set(witnesses)


def test_scan_orders_equals_vertex_solutions_on_random_systems():
    rng = Random(131)
    for _ in range(60):
        n = rng.randint(2, 4)
        rows = random_rows(rng, n)
        assert in_system_vectors(n, rows) == vertex_solutions(n, rows)


def test_scan_orders_rows_and_witnesses_agree():
    rng = Random(137)
    n = 3
    rows = random_rows(rng, n)
    perms = list(permutations(range(n)))
    table, witnesses = _kernels.scan_orders(perms, n, rows, True)
    assert len(table) == len(perms) << n
    assert [(pi, bits) for pi, bits, _, _ in table] == [
        (pi, bits) for pi in range(len(perms)) for bits in range(1 << n)
    ]
    for pi, bits, vec, ok in table:
        satisfied = all(
            (vec[h - 1] if h else 0) - (vec[t - 1] if t else 0) >= c
            for t, h, c in rows
        )
        assert ok == satisfied
        assert ((pi, bits) in witnesses.get(vec, [])) == ok


def test_kernels_take_values_above_64_bits():
    big = 1 << 70
    # worker 2 sits at most 5 below worker 1, each within its own box
    rows = [(0, 1, 0), (1, 0, -big), (0, 2, 0), (2, 0, -2 * big), (1, 2, -5)]
    expected = {(0, 0), (5, 0), (0, 2 * big), (big, big - 5), (big, 2 * big)}
    assert vertex_solutions(2, rows) == expected
    perms = list(permutations(range(2)))
    table, witnesses = _kernels.scan_orders(perms, 2, rows, True)
    assert set(witnesses) == expected
    assert table[:4] == [
        (0, 0, (0, 0), True),
        (0, 1, (0, 2 * big), True),
        (0, 2, (big, big - 5), True),
        (0, 3, (big, 2 * big), True),
    ]


def test_scan_orders_needs_both_box_rows():
    with pytest.raises(ValueError, match="box rows"):
        _kernels.scan_orders([(0, 1)], 2, [(0, 1, 0), (1, 0, -3), (0, 2, 0)], False)


def test_implementation_report():
    assert corematch.kernel_implementation() == "pure"
    assert _kernels.implementation() == "pure"

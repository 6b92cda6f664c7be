"""Seeded market generators and the command sets each workload runs.

Every market is drawn from ``random.Random(f"{workload}:{seed}:{index}")``,
so a (workload, seed) pair names one fixed, endless list of markets and the
same seed always gives the same list. Surpluses are ``randint(0, 60)``
divided by a denominator drawn from {1, 2, 3}, written as exact JSON strings.
Structure (firm count, capacities, balanced or padded) cycles with the
market index, so every run holds the same mix of shapes and only the values
change with the seed.
"""

from __future__ import annotations

import random
from itertools import product

WORKLOADS = ("salaries", "extremes", "ce", "coop")

MAX_SURPLUS = 60
DENOMINATORS = (1, 2, 3)


def _value(rng: random.Random) -> str:
    num = rng.randint(0, MAX_SURPLUS)
    den = rng.choice(DENOMINATORS)
    return str(num) if den == 1 else f"{num}/{den}"


def _capacities(total: int, parts: int, most: int, turn: int) -> list[int]:
    """The ``turn``-th (cyclically) of the capacity vectors with ``parts``
    entries in 1..most summing to ``total``, in lexicographic order. Cycling
    through them, rather than drawing them, gives every run the same mix of
    capacity shapes, which move a market's cost more than its values do."""
    shapes = [
        caps for caps in product(range(1, most + 1), repeat=parts) if sum(caps) == total
    ]
    return list(shapes[turn % len(shapes)])


def _job_market(rng, caps, n_workers):
    return {
        "mode": "job-market",
        "firms": [{"id": f"f{i + 1}", "capacity": c} for i, c in enumerate(caps)],
        "workers": [f"w{j + 1}" for j in range(n_workers)],
        "surplus": [[_value(rng) for _ in range(n_workers)] for _ in caps],
    }


def _buyer_market(rng, caps, n_buyers):
    return {
        "mode": "buyer-seller",
        "buyers": [f"b{j + 1}" for j in range(n_buyers)],
        "sellers": [{"id": f"s{i + 1}", "capacity": c} for i, c in enumerate(caps)],
        "valuations": [[_value(rng) for _ in caps] for _ in range(n_buyers)],
    }


def market(workload: str, seed: int, index: int) -> dict:
    """Market number ``index`` of the workload's list for ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "salaries":
        # one market in four has spare capacity (12 seats for 10 workers),
        # so balance() pads it with two dummy workers
        seats = 12 if index % 4 == 3 else 10
        return _job_market(rng, _capacities(seats, 4, 4, index), 10)
    if workload == "extremes":
        firms = 2 if index % 2 == 0 else 3
        return _job_market(rng, _capacities(6, firms, 4, index // 2), 6)
    if workload == "ce":
        sellers = 2 if index % 2 == 0 else 3
        return _buyer_market(rng, _capacities(5, sellers, 3, index // 2), 5)
    if workload == "coop":
        return _job_market(rng, _capacities(5, 3, 3, index), 5)
    raise ValueError(f"unknown workload {workload!r}")


def markets(workload: str, seed: int, start: int = 0):
    """The endless list from ``start`` on, skipping any repeat of an earlier
    market so that every market a run answers is new."""
    seen = set()
    index = start
    while True:
        m = market(workload, seed, index)
        key = repr(m)
        if key not in seen:
            seen.add(key)
            yield index, m
        index += 1


def commands(workload: str, path: str) -> list[list[str]]:
    """The argv lists run on one market before any output is known; the
    follow-up command (``digraph`` at the minimum, ``kernel check`` at the
    nucleolus) is built from printed output by :func:`follow_up`."""
    if workload == "salaries":
        return [
            ["match", path],
            ["salaries", path, "--min"],
            ["salaries", path, "--max"],
        ]
    if workload == "extremes":
        return [["extremes", path, "--json"]]
    if workload == "ce":
        return [["kaneko", "extremes", path]]
    if workload == "coop":
        return [["nucleolus", path], ["shapley", path], ["tau", path]]
    raise ValueError(f"unknown workload {workload!r}")


def labelled_values(line: str) -> list[str]:
    """'salaries: w1=3, w2=5/2' -> ['3', '5/2']."""
    _, _, body = line.partition(": ")
    return [item.partition("=")[2] for item in body.split(", ")]


def follow_up(workload: str, path: str, outputs: list[str]) -> list[str] | None:
    """The command that takes a printed result as its argument, if any."""
    if workload == "salaries":
        lowest = labelled_values(outputs[1].splitlines()[0])
        return ["digraph", path, ",".join(lowest)]
    if workload == "coop":
        firm_line, salary_line = outputs[0].splitlines()[:2]
        alloc = ",".join(labelled_values(firm_line)) + ";" + ",".join(
            labelled_values(salary_line)
        )
        return ["kernel", "check", path, alloc]
    return None

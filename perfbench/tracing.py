"""Spans around the public functions of each corematch layer.

Every listed function is wrapped in every ``corematch`` module namespace that
holds it (``corematch.cli.min_competitive_salaries`` as well as
``corematch.core.min_competitive_salaries``), so calls from one layer into
another are caught whichever name they go through. A span records its name,
start, end, parent span and market; spans stay in memory and are written out
when the run ends. A layer's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs; the metric name drops a leading underscore, so
# corematch._kernels.scan_orders reports as kernels.scan_orders
TARGETS = (
    ("cli", "main"),
    ("cli", "parse_market"),
    ("market", "balance"),
    ("matching", "optimal_matching"),
    ("matching", "coalition_value"),
    ("matching", "value_with_column_duplicated"),
    ("core", "core_constraints"),
    ("core", "firm_payoffs"),
    ("core", "min_competitive_salaries"),
    ("core", "max_competitive_salaries"),
    ("tight_digraph", "tight_digraph_of_system"),
    ("maxmin", "enumerate_extremes"),
    ("_kernels", "scan_orders"),
    ("_kernels", "vertex_solutions"),
    ("kaneko", "ce_constraints"),
    ("kaneko", "ce_prices"),
    ("kaneko", "ce_vertices"),
    ("game", "build_game"),
    ("solutions", "nucleolus"),
    ("solutions", "shapley"),
    ("solutions", "tau_value"),
    ("solutions", "is_in_kernel"),
    ("exact_lp", "solve_lp"),
    ("exact_lp", "solve_affine"),
)


def metric_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# counts read off a call's arguments or result: (arguments, result) -> dict
COUNTERS = {
    "core.core_constraints": lambda a, k, r: {"rows": len(r.constraints)},
    "kernels.scan_orders": lambda a, k, r: {
        "orders": len(_arg(a, k, 0, "perms")) << _arg(a, k, 1, "n"),
        "in_core": sum(len(codes) for codes in r[1].values()),
    },
    "kernels.vertex_solutions": lambda a, k, r: {"vertices": len(r)},
    "exact_lp.solve_lp": lambda a, k, r: {
        "rows": len(_arg(a, k, 1, "eq_rows")) + len(_arg(a, k, 2, "ub_rows"))
    },
}

LAYER_NAMES = tuple(metric_name(m, f) for m, f in TARGETS)


class Tracer:
    """Collects spans in memory; ``market`` tags the spans of one market."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.market = -1
        self.missing: list[str] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # [id, parent id, name, market, start, end, counts]
            record = [len(spans), stack[-1] if stack else -1, name, self.market, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if count is not None:
                record[6] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every listed function in every loaded corematch module."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "corematch" or key.startswith("corematch."))
        ]
        for module, function in TARGETS:
            home = sys.modules.get(f"corematch.{module}")
            original = getattr(home, function, None)
            if original is None:
                self.missing.append(metric_name(module, function))
                continue
            traced = self._wrap(metric_name(module, function), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans_path, markets: int) -> dict[str, float]:
    """Per-market calls, self seconds and counts for every listed layer,
    derived from a spans file."""
    calls = dict.fromkeys(LAYER_NAMES, 0)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    counts: dict[str, float] = {}
    names: dict[int, str] = {}
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            sid, parent, name, _market, start, end, counted = json.loads(line)
            names[sid] = name
            took = end - start
            calls[name] += 1
            self_s[name] += took
            if parent >= 0:
                self_s[names[parent]] -= took
            for key, value in (counted or {}).items():
                metric = f"{name}.{key}"
                counts[metric] = counts.get(metric, 0) + value
    per = max(markets, 1)
    out: dict[str, float] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = calls[name] / per
        out[f"{name}.self_s"] = self_s[name] / per
    for metric in COUNTED_METRICS:
        out[metric] = counts.get(metric, 0) / per
    orders = counts.get("kernels.scan_orders.orders", 0)
    out["kernels.scan_orders.in_core_share"] = (
        counts.get("kernels.scan_orders.in_core", 0) / orders if orders else 0.0
    )
    return out


COUNTED_METRICS = (
    "core.core_constraints.rows",
    "kernels.scan_orders.orders",
    "kernels.scan_orders.in_core",
    "kernels.vertex_solutions.vertices",
    "exact_lp.solve_lp.rows",
)

# unit of every per-layer metric a traced run reports
UNITS = {
    **{f"{name}.calls": "1/market" for name in LAYER_NAMES},
    **{f"{name}.self_s": "s/market" for name in LAYER_NAMES},
    **dict.fromkeys(COUNTED_METRICS, "1/market"),
    "kernels.scan_orders.in_core_share": "ratio",
    "matching.coalition_cache.size": "count",
    "matching.coalition_cache.hits": "1/market",
    "matching.coalition_cache.misses": "1/market",
    "trace.markets": "count",
    "trace.markets_per_s": "1/s",
    "kernels.compiled": "count",
}

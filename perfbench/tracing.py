"""Per-layer spans for the traced run, recorded from outside the program.

``install`` wraps every public function of each layer module of corecover
and rebinds the name in every corecover module that holds it, so a call made
through an import such as ``from .feasibility import is_feasible`` in
``stability`` is traced too. Nothing is installed in untraced runs.

Spans are aggregated as they close instead of being stored one by one: a
report sweep makes hundreds of thousands of calls. A span's self time is its
duration minus the durations of its child spans; a layer's self time is the
sum over its spans. Spans use wall time (``time.perf_counter``), which is far
cheaper to read per call than the process CPU clock.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "corecover"
LAYERS = ("linalg", "arrangement", "feasibility", "stability", "quotient", "formats", "cli")

# Inclusive time of the outermost span among each group's functions.
# is_smooth_s counts is_regular and is_simple also when called directly, as
# the preflight checks do.
GROUPS = {
    "arrangement.is_smooth_s": (
        "arrangement.is_smooth",
        "arrangement.is_regular",
        "arrangement.is_simple",
    ),
    "quotient.extended_core_s": ("quotient.extended_core",),
    "quotient.verify_covering_s": ("quotient.verify_covering",),
    "quotient.verify_density_s": ("quotient.verify_density",),
    "quotient.chart_complement_s": ("quotient.chart_complement",),
}

# Existing lru_caches whose hit ratio is reported: metric -> (layer, name).
CACHES = {
    "stability.cone_cache_hit_ratio": ("stability", "_cone_contains"),
    "quotient.extended_core_cache_hit_ratio": ("quotient", "_extended_core_cached"),
}

COUNTED_CALLS = (
    "feasibility.is_feasible",
    "stability.hk_semistable_numeric",
    "stability.chart_semistable",
    "stability.pattern_realizable",
)


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile by linear interpolation; 0 for no values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def cache_counts() -> dict:
    """(hits, misses) of each reported cache, or None if the cache is gone."""
    out = {}
    for metric, (layer, name) in CACHES.items():
        info = getattr(getattr(sys.modules.get(f"{PACKAGE}.{layer}"), name, None), "cache_info", None)
        out[metric] = None if info is None else tuple(info()[:2])
    return out


class Tracer:
    def __init__(self):
        self.layer_calls = Counter()
        self.layer_self_s = defaultdict(float)
        self.fn_calls = Counter()
        self.group_s = defaultdict(float)
        self._group_depth = Counter()
        self._layer_depth = Counter()
        self._children = []  # child time of every open span, innermost last
        self.feasible_us = []
        self.infeasible = 0
        self.rows_in = 0
        self.vars_in = 0
        self.quotient_lps = 0
        self.semistable = 0
        self._observers = {
            "feasibility.is_feasible": self._observe_is_feasible,
            "stability.hk_semistable_numeric": self._observe_semistable,
        }

    def _observe_is_feasible(self, args, cert, elapsed):
        poly = args[0]
        self.feasible_us.append(elapsed * 1e6)
        self.infeasible += not cert.feasible
        self.rows_in += len(poly.constraints)
        self.vars_in += poly.dim
        if self._layer_depth["quotient"]:
            self.quotient_lps += 1

    def _observe_semistable(self, args, verdict, elapsed):
        self.semistable += verdict.semistable

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        group = next((g for g, members in GROUPS.items() if key in members), None)
        observe = self._observers.get(key)
        children = self._children
        layer_depth = self._layer_depth
        group_depth = self._group_depth

        @functools.wraps(fn)
        def span(*args, **kwargs):
            mine = [0.0]
            children.append(mine)
            layer_depth[layer] += 1
            if group:
                group_depth[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children.pop()
                if children:
                    children[-1][0] += elapsed
                layer_depth[layer] -= 1
                self.layer_calls[layer] += 1
                self.layer_self_s[layer] += elapsed - mine[0]
                self.fn_calls[key] += 1
                if group:
                    group_depth[group] -= 1
                    if not group_depth[group]:
                        self.group_s[group] += elapsed
            if observe:
                observe(args, result, elapsed)
            return result

        return span

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind each name in
        every loaded corecover module that refers to it."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    wrapped[id(obj)] = (obj, self.wrap(layer, name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def metrics(self, instances: int, caches_before: dict, caches_after: dict) -> dict:
        feasible_calls = self.fn_calls["feasibility.is_feasible"]
        out = {
            "trace.instances": instances,
            "feasibility.is_feasible.us_p50": percentile(self.feasible_us, 50),
            "feasibility.is_feasible.us_p99": percentile(self.feasible_us, 99),
            "feasibility.infeasible_ratio": _ratio(self.infeasible, feasible_calls),
            "feasibility.rows_in_mean": _ratio(self.rows_in, feasible_calls),
            "feasibility.vars_mean": _ratio(self.vars_in, feasible_calls),
            "stability.semistable_ratio": _ratio(
                self.semistable, self.fn_calls["stability.hk_semistable_numeric"]
            ),
            "quotient.lps_per_instance": _ratio(self.quotient_lps, instances),
        }
        for key in COUNTED_CALLS:
            out[f"{key}.calls"] = self.fn_calls[key]
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.self_s"] = self.layer_self_s[layer]
        for group in GROUPS:
            out[group] = self.group_s[group]
        for metric, before in caches_before.items():
            after = caches_after[metric]
            if before is None or after is None:
                out[metric] = None
            else:
                hits, misses = after[0] - before[0], after[1] - before[1]
                out[metric] = _ratio(hits, hits + misses)
        return out

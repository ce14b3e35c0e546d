"""Call-site tracer: wraps public apemkit functions from outside the package.

apemkit modules import each other's functions by name
(``from .netcore import forward_logits_batch``,
``from .apem import gap as compute_gap``), so a wrapper installed only on
the defining module would miss every call made through an importing
namespace. ``Tracer.install`` therefore replaces the function object under
every name that holds it in every loaded ``apemkit`` module, and
``Tracer.restore`` puts the originals back.

Spans are kept in memory as ``Span`` records (name, start, end, parent id,
root id, attributes) and written out by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    root: int  # index of the top-level span this one runs under
    attrs: dict = field(default_factory=dict)


def _rows(args, kwargs, result):
    images = kwargs.get("images", args[1] if len(args) > 1 else None)
    return {"rows": len(images)}


def _search(args, kwargs, result):
    k, capped = result
    return {"k": int(k), "capped": bool(capped)}


def _map_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _reverted(args, kwargs, result):
    return {"reverted": bool(result.reverted)}


def _method_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    return f"explain.compute_map.{method}"


# (module, function, attribute hook, span-name hook). The span name is
# "<module>.<function>" unless a name hook refines it.
TARGETS = [
    ("netcore", "forward_logits_batch", _rows, None),
    ("netcore", "forward", None, None),
    ("netcore", "input_gradient", None, None),
    ("netcore", "guided_input_gradient", None, None),
    ("netcore", "feature_map_gradient", None, None),
    ("netcore", "train", None, None),
    ("explain", "compute_map", None, _method_name),
    ("explain", "simplify", None, None),
    ("apem", "gap", None, None),
    ("apem", "find_epsilon", _search, None),
    ("filtering", "filter_map", _reverted, None),
    ("stats", "read_rows", None, None),
    ("stats", "summarize", None, None),
    ("stats", "spearman", None, None),
    ("data", "load_idx_dataset", None, None),
    ("modelio", "save_model", None, None),
    ("modelio", "load_model", None, None),
    ("mapio", "save_map", _map_bytes, None),
    ("cli", "evaluate_one", None, None),
]


PACKAGE = "apemkit"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attr_hook, name_hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            root = self.spans[parent].root if parent is not None else index
            span_name = name_hook(args, kwargs) if name_hook else name
            span = Span(span_name, 0.0, 0.0, parent, root)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attr_hook:
                span.attrs = attr_hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target under every name bound to it in the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every target module before patching anything: a module
        # first imported mid-install would bind wrappers by name and keep
        # them after restore. import_module, not attribute access, because
        # the package re-exports a function named like its module (apem).
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name, *_ in TARGETS}
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, fn_name, attr_hook, name_hook in TARGETS:
            original = getattr(modules[module_name], fn_name)
            wrapper = self._wrap(original, f"{module_name}.{fn_name}", attr_hook, name_hook)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)

    def restore(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.root, s.attrs] for s in self.spans], f
            )


# ---------------------------------------------------------------------------
# Per-layer metrics derived from spans
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run sequentially inside it (single thread), so
    their intervals do not overlap and their durations add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))  # nearest rank
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Named (value, unit) per-layer metrics from one traced pass."""
    from apemkit.explain import METHOD_NAMES

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    self_s = self_times(spans)

    def calls(name):
        return len(by_name.get(name, []))

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, []))

    m: dict[str, tuple[float, str]] = {}

    fl = "netcore.forward_logits_batch"
    rows = sum(spans[i].attrs["rows"] for i in by_name.get(fl, []))
    m[f"{fl}.calls"] = (calls(fl), "count")
    m[f"{fl}.rows"] = (rows, "count")
    m[f"{fl}.time_s"] = (total(fl), "s")
    m[f"{fl}.rows_per_s"] = (_ratio(rows, total(fl)), "1/s")
    for fn in ("forward", "input_gradient", "guided_input_gradient", "feature_map_gradient"):
        m[f"netcore.{fn}.calls"] = (calls(f"netcore.{fn}"), "count")
        m[f"netcore.{fn}.time_s"] = (total(f"netcore.{fn}"), "s")
    for name in ("netcore.train", "modelio.save_model", "modelio.load_model",
                 "data.load_idx_dataset"):
        m[f"{name}.time_s"] = (total(name), "s")

    for method in METHOD_NAMES:
        name = f"explain.compute_map.{method}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.time_s"] = (total(name), "s")
    m["explain.simplify.time_s"] = (total("explain.simplify"), "s")

    m["apem.gap.calls"] = (calls("apem.gap"), "count")
    m["apem.gap.time_s"] = (total("apem.gap"), "s")
    fe = "apem.find_epsilon"
    searches = by_name.get(fe, [])
    search_rows = {i: 0 for i in searches}
    for i in by_name.get(fl, []):
        if spans[i].parent in search_rows:
            search_rows[spans[i].parent] += spans[i].attrs["rows"]
    all_rows = sum(search_rows.values())
    capped = [i for i in searches if spans[i].attrs["capped"]]
    m[f"{fe}.calls"] = (len(searches), "count")
    m[f"{fe}.time_s"] = (total(fe), "s")
    m[f"{fe}.self_s"] = (sum(self_s[i] for i in searches), "s")
    m[f"{fe}.rows_per_search"] = (_ratio(all_rows, len(searches)), "count")
    m[f"{fe}.capped_ratio"] = (_ratio(len(capped), len(searches)), "ratio")
    m[f"{fe}.capped_rows_share"] = (
        _ratio(sum(search_rows[i] for i in capped), all_rows), "ratio")
    m[f"{fe}.useful_ratio"] = (
        _ratio(sum(spans[i].attrs["k"] for i in searches), all_rows), "ratio")

    fm = "filtering.filter_map"
    maps = by_name.get(fm, [])
    map_set = set(maps)
    gaps_in_filter = sum(1 for i in by_name.get("apem.gap", []) if spans[i].parent in map_set)
    m[f"{fm}.calls"] = (len(maps), "count")
    m[f"{fm}.time_s"] = (total(fm), "s")
    m["filtering.gaps_per_map"] = (_ratio(gaps_in_filter, len(maps)), "count")
    m["filtering.reverted_ratio"] = (
        _ratio(sum(1 for i in maps if spans[i].attrs.get("reverted")), len(maps)), "ratio")

    for fn in ("read_rows", "summarize", "spearman"):
        m[f"stats.{fn}.calls"] = (calls(f"stats.{fn}"), "count")
        m[f"stats.{fn}.time_s"] = (total(f"stats.{fn}"), "s")

    sm = "mapio.save_map"
    m[f"{sm}.calls"] = (calls(sm), "count")
    m[f"{sm}.bytes"] = (sum(spans[i].attrs["bytes"] for i in by_name.get(sm, [])), "bytes")
    m[f"{sm}.time_s"] = (total(sm), "s")

    ev = "cli.evaluate_one"
    durations_ms = [(spans[i].end - spans[i].start) * 1e3 for i in by_name.get(ev, [])]
    m[f"{ev}.calls"] = (len(durations_ms), "count")
    m[f"{ev}.time_s"] = (total(ev), "s")
    m[f"{ev}.p50_ms"] = (_percentile(durations_ms, 50), "ms")
    m[f"{ev}.p90_ms"] = (_percentile(durations_ms, 90), "ms")
    return m

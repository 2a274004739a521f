"""Outside-in spans around bksgeom's public functions.

No program file is edited.  ``Tracer.install`` replaces each function in
``WRAPPED`` by a timing wrapper in every ``bksgeom`` module namespace that
holds it, so calls made through ``from .magic import complement_config``
or ``_kernels.valuation_scan(...)`` alike pass through the wrapper.  A
name that no longer exists is recorded as absent instead of failing.

Spans nest on one stack (the benchmark is single-threaded); the self time
of a span is its duration minus the durations of the spans it encloses.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, function) pairs, by layer.  The list is the public entry
# points whose per-call cost is large enough to time without the wrapper
# dominating it.
WRAPPED = (
    ("pauli", "product_of_set"),
    ("geometry", "span"),
    ("geometry", "intersect"),
    ("geometry", "enumerate_points"),
    ("classify", "classify_set"),
    ("magic", "validate_context"),
    ("magic", "exhaustive_nchv_check"),
    ("magic", "parity_witness"),
    ("magic", "intersection_lines"),
    ("magic", "shared_point"),
    ("magic", "complement_config"),
    ("_kernels", "valuation_scan"),
    ("_kernels", "cap_subsets"),
    ("search", "maximal_isotropic_through"),
    ("search", "canonical_config"),
    ("search", "find_magic_rectangles"),
    ("cli", "parse_config_text"),
    ("cli", "build_report"),
    ("cli", "render_report"),
)


def metric_name(module: str, function: str) -> str:
    """Metric prefix; metric names must start with a letter."""
    return f"{module.lstrip('_')}.{function}"


def _scan_candidates(args, result) -> int:
    """Assignments the ascending scan examined: v + 1, or all 2^width."""
    return result + 1 if result >= 0 else 1 << args[2]


_EXTRA = {
    ("_kernels", "valuation_scan"): ("candidates", _scan_candidates),
    ("search", "find_magic_rectangles"): ("results", lambda args, result: len(result)),
}


class Tracer:
    """Span statistics keyed by metric prefix: calls, self_ns and extras."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._caches: list[tuple[str, object, int]] = []

    def _record(self, name: str, self_ns: int, **extra: int) -> None:
        entry = self.stats.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        for key, value in extra.items():
            entry[key] = entry.get(key, 0) + value

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def add_child_time(self, name: str, elapsed_ns: int, child_ns: int) -> None:
        """Record a span timed elsewhere, with child_ns of it already attributed."""
        self._record(name, elapsed_ns - child_ns)
        if self._stack:
            self._stack[-1] += elapsed_ns

    def _wrap(self, name: str, fn, extra):
        stack = self._stack
        record = self._record
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if extra is None or not done:
                    record(name, own)
                else:
                    record(name, own, **{extra[0]: extra[1](args, result)})

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "bksgeom"]
        for module_name, function in WRAPPED:
            name = metric_name(module_name, function)
            try:
                module = importlib.import_module(f"bksgeom.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, function, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, _EXTRA.get((module_name, function)))
            for mod in modules + [module]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            cache_info = getattr(original, "cache_info", None)
            if cache_info is not None:
                self._caches.append((name, cache_info, cache_info().hits))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        for name, cache_info, hits_before in self._caches:
            entry = self.stats.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["cache_hits"] = entry.get("cache_hits", 0) + cache_info().hits - hits_before
        self._caches.clear()

    def merge(self, stats: dict[str, dict[str, int]], absent) -> None:
        """Add statistics recorded by another process."""
        for name, entry in stats.items():
            mine = self.stats.setdefault(name, {"calls": 0, "self_ns": 0})
            for key, value in entry.items():
                mine[key] = mine.get(key, 0) + value
        for name in absent:
            if name not in self.absent:
                self.absent.append(name)

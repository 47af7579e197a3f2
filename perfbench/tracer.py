"""Spans and counters around starbench's layer boundaries, from outside.

``install`` wraps the public functions the CLI verbs call (and the lazy
``RingScan`` caches they read) in spans and counters recorded by a
``Recorder``. Nothing in ``src/`` changes: the wrappers replace names in the
modules' namespaces for the life of one benchmark child process, and each
wrapper only times and counts the call it forwards, so the traced run
computes exactly what the untraced run does.

Every ``.s`` metric is self time: the span's duration minus the part of it
that child spans cover. A lazy scan cache forced inside a classifier is
charged to the cache, not to the classifier.

``LAYER_METRICS`` names every per-layer metric with the end-to-end metric
and workload it should move; the benchmark's tests check that it matches
``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps
from typing import Any, Callable, Dict, List, Optional

SCAN_CACHES = ("rann", "lann", "row_sets", "col_sets", "poset", "rp_all", "lp_all", "cover_all")

CLASSIFIERS = (
    "proper",
    "semi-proper",
    "reduced",
    "abelian",
    "unity",
    "rickart-star",
    "weakly-rickart-star",
    "baer-star",
    "quasi-baer-star",
    "pq-baer-star",
    "weakly-pq-baer-star",
    "rp-not-cover",
)

_CM, _UC, _VA = "classify-medium", "unitify-corpus", "validate-axioms"

# metric -> (unit, end-to-end metrics it should move, on these workloads)
LAYER_METRICS: Dict[str, tuple] = {
    "rings.build_ring.s": ("s", ("wall_s",), (_CM, _UC)),
    "rings.build_ring.calls": ("count", ("wall_s",), (_CM, _UC)),
    "rings.call_based_rings": ("count", ("wall_s", "peak_rss_mb"), (_CM, _UC)),
    "rings.table_bytes": ("bytes", ("peak_rss_mb",), (_CM, _UC)),
    "rings.validate_star_ring.s": ("s", ("wall_s",), (_VA,)),
    "projections.projection_count": ("count", ("wall_s",), (_CM, _UC)),
    "annihilators.family.max_size": ("count", ("wall_s", "peak_rss_mb"), (_CM,)),
    "annihilators.family.cap_frac": ("ratio", ("wall_s",), (_CM,)),
    "algebra.build_scalar_algebra.s": ("s", ("wall_s",), (_UC,)),
    "algebra.action_entries": ("count", ("wall_s",), (_UC,)),
    "unitify.describe_unitification.s": ("s", ("wall_s",), (_UC,)),
    "unitify.verify_unitification.s": ("s", ("wall_s",), (_UC,)),
    "unitify.pair_ring_elements": ("count", ("wall_s",), (_UC,)),
    "unitify.kernel_elements": ("count", ("wall_s",), (_UC,)),
    "unitify.quotient_elements": ("count", ("wall_s",), (_UC,)),
    "cli.verbs": ("count", ("ops_ok_frac",), (_CM, _UC, _VA)),
    "cli.stdout_bytes": ("bytes", ("ops_ok_frac",), (_CM, _UC, _VA)),
    "cli.exit_nonzero": ("count", ("ops_ok_frac",), (_CM, _UC, _VA)),
    "trace.overhead_s": ("s", ("wall_s",), (_CM, _UC, _VA)),
}
LAYER_METRICS.update(
    ("projections.scan.%s.s" % name, ("s", ("wall_s",), (_CM, _UC))) for name in SCAN_CACHES
)
LAYER_METRICS.update(
    ("classifiers.%s.s" % name, ("s", ("wall_s",), (_CM, _UC))) for name in CLASSIFIERS
)


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        # (name, start, end, parent position or -1)
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(int)
        self.maxima: Dict[str, float] = defaultdict(int)
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        pos = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, parent))
        self._open.append(pos)
        try:
            yield
        finally:
            self._open.pop()
            name_, start, _, parent_ = self.spans[pos]
            self.spans[pos] = (name_, start, time.perf_counter(), parent_)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def high_water(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return dict(out)


def _timed(rec: Recorder, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


def _counted(fn: Callable, after: Callable) -> Callable:
    @wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result)
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap starbench's layer boundaries so they report to ``rec``.

    Only for a process that runs the benchmark: the wrappers stay in place
    until the interpreter exits.
    """
    from starbench import classifiers, cli, projections, rings, unitify
    from starbench.config import DEFAULT_LIMITS

    def on_ring(ring: Any) -> None:
        if ring.has_tables():
            rec.count("rings.table_bytes", 8 * ring.order * ring.order)
        else:
            rec.count("rings.call_based_rings")

    # Every ring, including pair rings and quotients, passes StarRing.__init__.
    star_init = rings.StarRing.__init__

    @wraps(star_init)
    def traced_init(self, *args, **kwargs):
        star_init(self, *args, **kwargs)
        on_ring(self)

    rings.StarRing.__init__ = traced_init

    def on_built(ring: Any) -> None:
        rec.count("rings.build_ring.calls")

    cli.build_ring = _timed(rec, "rings.build_ring", cli.build_ring, on_built)
    cli.validate_star_ring = _timed(
        rec, "rings.validate_star_ring", cli.validate_star_ring
    )

    def on_algebra(alg: Any) -> None:
        rec.count("algebra.action_entries", alg.action.size)

    cli.build_scalar_algebra = _timed(
        rec, "algebra.build_scalar_algebra", cli.build_scalar_algebra, on_algebra
    )
    cli.describe_unitification = _timed(
        rec, "unitify.describe_unitification", cli.describe_unitification
    )
    cli.verify_unitification = _timed(
        rec, "unitify.verify_unitification", cli.verify_unitification
    )

    def on_quotient(quot: Any) -> None:
        rec.count("unitify.pair_ring_elements", quot.r1.order)
        rec.count("unitify.kernel_elements", quot.kernel.size)
        rec.count("unitify.quotient_elements", quot.ring.order)

    unitify.build_quotient = _counted(unitify.build_quotient, on_quotient)

    cap = DEFAULT_LIMITS.family_cap

    def on_family(family: list) -> None:
        rec.high_water("annihilators.family.max_size", len(family))
        rec.high_water("annihilators.family.cap_frac", len(family) / cap)

    classifiers.annihilator_family = _counted(classifiers.annihilator_family, on_family)

    # Classifiers are reached through PROPERTY_CLASSIFIERS (check) and through
    # the names unitify imported (the verify gates and quotient classifiers).
    table = classifiers.PROPERTY_CLASSIFIERS
    wrapped = {fn: _timed(rec, "classifiers.%s" % name, fn) for name, fn in table.items()}
    table.update((name, wrapped[fn]) for name, fn in list(table.items()))
    for attr, value in list(vars(unitify).items()):
        if callable(value) and value in wrapped:
            setattr(unitify, attr, wrapped[value])

    def on_poset(poset: Any) -> None:
        rec.count("projections.projection_count", len(poset))

    scan_cls = projections.RingScan
    for name in SCAN_CACHES:
        compute = scan_cls.__dict__[name].func
        after = on_poset if name == "poset" else None
        prop = cached_property(_timed(rec, "projections.scan.%s" % name, compute, after))
        prop.__set_name__(scan_cls, name)
        setattr(scan_cls, name, prop)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric except trace.overhead_s and the cli counters."""
    times = rec.self_times()
    values = {**rec.counters, **rec.maxima}
    out: Dict[str, float] = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        if name.startswith("cli.") or name == "trace.overhead_s":
            continue
        out[name] = times.get(name[: -len(".s")], 0.0) if unit == "s" else values.get(name, 0)
    return out

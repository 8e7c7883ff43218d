"""Spans and counters for the traced benchmark run.

A traced run swaps timing wrappers into the module attributes through which
one crystalpop layer calls the next, records one span per boundary call and
aggregate counters for hot calls, and puts every original attribute back
afterwards. Spans stay in memory until the run ends. The benchmark's own
calls into a layer go through the same ``Tracer.call``.

Both tracers time the benchmark's top-level operations with ``op``, which
runs each between two runs of the calibration reference (calibrate.py).
"""

from __future__ import annotations

import importlib
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, NamedTuple, Optional

from calibrate import Calibrated
from metrics import PER_LAYER

_clock = time.perf_counter


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class NullTracer:
    """Tracing off: spans are no-ops and calls go straight through."""

    enabled = False

    def __init__(self):
        self.clock = Calibrated()

    def span(self, name):
        return nullcontext()

    def call(self, name, fn, *args, after=None, rss=False, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name, fn, *args, **kwargs):
        """A top-level operation: timed and calibrated, and traced if on."""
        return self.clock.measure(self.call, name, fn, *args, **kwargs)


class Tracer(NullTracer):
    enabled = True

    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def call(self, name, fn, *args, after=None, rss=False, **kwargs):
        """Run fn inside a span; after(counters, args, result) then records
        counts outside the span. rss adds the growth of peak RSS."""
        before = _maxrss_mb() if rss else 0.0
        with self.span(name):
            result = fn(*args, **kwargs)
        if rss:
            self.counters[name + "_rss_delta_mb"] += _maxrss_mb() - before
        if after is not None:
            after(self.counters, args, result)
        return result


# -- counters recorded from boundary results ---------------------------------

def note_generate(counters, args, graph):
    counters["crystal.generate_calls"] += 1
    counters["crystal.vertices"] += graph.num_vertices
    counters["crystal.edges"] += sum(w is not None for row in graph.succ for w in row)


def note_index(counters, args, index):
    counters["poset.index_bytes"] += sum(
        (bits.bit_length() + 7) // 8 for bits in index.up + index.down
    )


def note_is_lattice(counters, args, result):
    counters["poset.is_lattice_calls"] += 1
    if result.is_lattice:
        size = args[0].num_vertices
        counters["poset.lattice_pairs"] += size * (size - 1) // 2


def note_sweep(counters, args, report):
    counters["classifier.lattices"] += sum(row.brute_force is True for row in report.rows)


def note_export(counters, args, text):
    counters["crystal.export_bytes"] += len(text.encode())


def note_family(counters, args, family):
    counters["key.family_members"] += len(family.members)


def note_checked(name):
    def note(counters, args, report):
        counters[name] += report.checked
    return note


def note_orbit(counters, args, report):
    counters[f"pop.orbit_len.{report.length}"] += 1


class Boundary(NamedTuple):
    """A module attribute one layer calls another through. With span set,
    each call is a span; otherwise it only bumps count (and time, if set)."""

    module: str
    attr: str
    span: Optional[str] = None
    after: Optional[Callable] = None
    rss: bool = False
    count: Optional[str] = None
    time: Optional[str] = None


BOUNDARIES = (
    Boundary("crystalpop.cli", "classification_sweep", "classifier.sweep", note_sweep),
    Boundary("crystalpop.cli", "generate_crystal", "crystal.generate", note_generate),
    Boundary("crystalpop.cli", "is_poppable", "pop.poppable"),
    Boundary("crystalpop.cli", "pop_agreement_on_quotient", "pop.quotient_agreement"),
    Boundary("crystalpop.cli", "build_demazure_family", "key.family", note_family),
    Boundary("crystalpop.cli", "verify_key_properties", "key.properties",
             note_checked("key.properties_checks")),
    Boundary("crystalpop.cli", "verify_pop_key_inequality", "key.pop_key",
             note_checked("key.pop_key_checks")),
    Boundary("crystalpop.cli", "verify_section3_lemmas", "perm.lemma",
             note_checked("perm.lemma_checks")),
    Boundary("crystalpop.classifier", "_sweep_one", "classifier.shape"),
    Boundary("crystalpop.classifier", "generate_crystal", "crystal.generate", note_generate),
    Boundary("crystalpop.classifier", "is_lattice", "poset.is_lattice", note_is_lattice),
    Boundary("crystalpop.poset", "ReachabilityIndex", "poset.index", note_index, rss=True),
    Boundary("crystalpop.key", "bruhat_leq", count="perm.bruhat_calls", time="perm.order_s"),
    Boundary("crystalpop.key", "weak_leq", count="perm.weak_calls", time="perm.order_s"),
    Boundary("crystalpop.pop", "orbit", count="pop.orbit_calls", after=note_orbit),
)


def _wrapper(tracer: Tracer, b: Boundary, fn):
    if b.span is not None:
        def traced(*args, **kwargs):
            return tracer.call(b.span, fn, *args, after=b.after, rss=b.rss, **kwargs)
        return traced
    counters = tracer.counters

    def counted(*args, **kwargs):
        start = _clock()
        result = fn(*args, **kwargs)
        if b.time is not None:
            counters[b.time] += _clock() - start
        counters[b.count] += 1
        if b.after is not None:
            b.after(counters, args, result)
        return result
    return counted


@contextmanager
def installed(tracer: Tracer, boundaries=BOUNDARIES):
    """Swap the boundary wrappers in, and always put the originals back."""
    saved = []
    try:
        for b in boundaries:
            module = importlib.import_module(b.module)
            original = getattr(module, b.attr)
            saved.append((module, b.attr, original))
            setattr(module, b.attr, _wrapper(tracer, b, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# -- analysis ----------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_self_time(spans, layer: str, selfs=None) -> float:
    selfs = self_times(spans) if selfs is None else selfs
    return sum(selfs[s.id] for s in spans if s.name.split(".", 1)[0] == layer)


def total(spans, name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Every per-layer metric except the trace.* and host.* ones, which
    need the untraced iterations; a layer the workload does not reach
    reads 0."""
    selfs = self_times(spans)
    shape_ms = sorted((s.end - s.start) * 1000 for s in spans if s.name == "classifier.shape")
    out = {
        "crystal.generate_s": total(spans, "crystal.generate"),
        "crystal.export_s": total(spans, "crystal.export"),
        "poset.index_s": total(spans, "poset.index"),
        "poset.index_rss_delta_mb": counters["poset.index_rss_delta_mb"],
        "poset.is_lattice_s": total(spans, "poset.is_lattice"),
        "poset.find_bowtie_s": total(spans, "poset.find_bowtie"),
        "poset.verify_bowtie_s": total(spans, "poset.verify_bowtie"),
        "poset.join_meet_s": total(spans, "poset.join_meet"),
        "pop.max_orbit_s": total(spans, "pop.max_orbit"),
        "pop.poppable_s": total(spans, "pop.poppable"),
        "pop.quotient_agreement_s": total(spans, "pop.quotient_agreement"),
        "key.family_s": total(spans, "key.family"),
        "key.properties_s": total(spans, "key.properties"),
        "key.pop_key_s": total(spans, "key.pop_key"),
        "perm.lemma_s": total(spans, "perm.lemma"),
        "perm.order_s": counters["perm.order_s"],
        "classifier.sweep_s": total(spans, "classifier.sweep"),
        "classifier.shapes": len(shape_ms),
        "classifier.self_s": layer_self_time(spans, "classifier", selfs),
        "classifier.shape_p50_ms": statistics.median(shape_ms) if shape_ms else 0.0,
        "classifier.shape_p90_ms": (statistics.quantiles(shape_ms, n=10)[8]
                                    if len(shape_ms) >= 2 else 0.0),
        "cli.self_s": layer_self_time(spans, "cli", selfs),
    }
    gen_s = out["crystal.generate_s"]
    out["crystal.vertices_per_s"] = counters["crystal.vertices"] / gen_s if gen_s else 0.0
    queries = counters["poset.join_meet_queries"]
    out["poset.join_found_ratio"] = counters["poset.joins_found"] / queries if queries else 0.0
    for m in PER_LAYER:
        if m.name not in out and not m.name.startswith(("trace.", "host.")):
            out[m.name] = counters[m.name]
    return out


def coverage(spans) -> dict[str, float]:
    """How much of the run the top-level spans account for, split into the
    layers' spans and the benchmark's own checking."""
    top = [s for s in spans if s.parent is None]
    checking = sum(s.end - s.start for s in top if s.name == "bench.check")
    layers = sum(s.end - s.start for s in top if s.name != "bench.check")
    return {"layers_s": layers, "check_s": checking}

"""Spans and counters recorded around lexiforge's public functions.

The program is not edited: ``install`` replaces module-level functions
(and every alias other lexiforge modules imported) with wrappers, and
makes the embedder and provider factories return counting proxies.
Function-level calls open a span (name, start, end, parent, run id);
kernel-level calls, which run hundreds of thousands of times, only add
to counters on the enclosing span. Spans stay in memory and are written
out once, when the run ends. A target that no longer exists is listed
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field

SPAN, COUNT = "span", "count"

# (module, attribute, kind, key). For spans, ``key`` is the per-layer
# time metric the span's duration adds to; for counters it prefixes the
# ``.calls`` and ``.s`` counters.
TARGETS = (
    ("lexiforge.ingestion", "parse_dictionary", SPAN, "ingestion.parse_s"),
    ("lexiforge.ingestion", "parse_failures", SPAN, "ingestion.parse_s"),
    ("lexiforge.ingestion", "parse_lemma_list", SPAN, "ingestion.parse_s"),
    ("lexiforge.ingestion", "write_dictionary", SPAN, "ingestion.write_s"),
    ("lexiforge.ingestion", "write_failures", SPAN, "ingestion.write_s"),
    ("lexiforge.model", "vocabulary_join", SPAN, "model.join_s"),
    ("lexiforge.alignment", "align_dictionaries", SPAN, "alignment.align_s"),
    ("lexiforge.alignment", "all_pairs_scores", SPAN, "alignment.all_pairs_s"),
    ("lexiforge.alignment", "rank_histogram", SPAN, "metrics.s"),
    ("lexiforge.alignment", "write_alignments", SPAN, "report.write_s"),
    ("lexiforge.error_analysis", "classify_errors", SPAN, "error_analysis.classify_s"),
    ("lexiforge.error_analysis", "hallucination_candidates", SPAN, "error_analysis.candidates_s"),
    ("lexiforge.error_analysis", "NeighborIndex.__init__", SPAN, "error_analysis.index_build_s"),
    ("lexiforge.error_analysis", "NeighborIndex.neighbors", SPAN, "error_analysis.neighbor_scan_s"),
    ("lexiforge.error_analysis", "detect_overcorrection", SPAN, "error_analysis.overcorrection_s"),
    ("lexiforge.error_analysis", "write_findings", SPAN, "report.write_s"),
    ("lexiforge.error_analysis", "detect_fabricated_polysemy", COUNT, "error_analysis.fabricated"),
    ("lexiforge.error_analysis", "detect_circularity", COUNT, "error_analysis.circularity"),
    ("lexiforge.metrics", "polysemy_confusion", SPAN, "metrics.s"),
    ("lexiforge.metrics", "class_metrics", SPAN, "metrics.s"),
    ("lexiforge.metrics", "cosine_stats", SPAN, "metrics.s"),
    ("lexiforge.metrics", "length_stats", SPAN, "metrics.s"),
    ("lexiforge.metrics", "circularity_rate", SPAN, "metrics.s"),
    ("lexiforge.report", "evaluate_dictionaries", SPAN, "report.evaluate_s"),
    ("lexiforge.report", "write_report", SPAN, "report.write_s"),
    ("lexiforge.generation", "run_generation", SPAN, "generation.run_s"),
    ("lexiforge.generation", "build_prompt", COUNT, "generation.prompt"),
    ("lexiforge.generation", "parse_model_response", COUNT, "generation.parse"),
    ("lexiforge._kernels", "trigram_counts", COUNT, "kernels.trigram"),
    ("lexiforge._kernels", "levenshtein", COUNT, "kernels.levenshtein"),
)
# Spans whose result's length is worth a counter.
RESULT_COUNTS = {
    "error_analysis.hallucination_candidates": "error_analysis.candidates",
    "error_analysis.NeighborIndex.neighbors": "error_analysis.neighbors_found",
}
SCAN = "error_analysis.NeighborIndex.neighbors"
PROXY_TARGETS = (
    ("lexiforge.config", "build_embedder"),
    ("lexiforge.config", "build_provider"),
)


@dataclass
class Span:
    id: int
    name: str
    key: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.distinct_texts: set[str] = set()
        self.call_seconds: list[float] = []
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root = self._new("run", "trace.wall_s", None)

    def _new(self, name: str, key: str, parent: int | None) -> Span:
        with self._lock:
            self._next += 1
            return Span(self._next, name, key, parent, time.perf_counter())

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span:
        stack = getattr(self._local, "stack", None)
        # threads the program starts have no open span: their spans and
        # counters belong to the run
        return stack[-1] if stack else self.root

    def open(self, name: str, key: str) -> Span:
        span = self._new(name, key, self.current().id)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def add(self, **counters: float) -> None:
        span = self.current()
        if span is self.root:
            with self._lock:
                _bump(span.counters, counters)
        else:
            _bump(span.counters, counters)

    def finish(self) -> None:
        self.root.end = time.perf_counter()
        self.spans.append(self.root)

    # --- wrapping -------------------------------------------------------

    def _span_wrapper(self, fn, name: str, key: str):
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self.open(name, key)
            try:
                result = fn(*args, **kwargs)
                if counted:
                    span.counters[counted] = len(result)
                return result
            finally:
                self.close(span)

        return wrapped

    def _count_wrapper(self, fn, key: str):
        calls, seconds = key + ".calls", key + ".s"
        clock, current, root = time.perf_counter, self.current, self.root

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                span = current()
                if span is root:
                    self.add(**{calls: 1, seconds: elapsed})
                else:
                    counters = span.counters
                    counters[calls] = counters.get(calls, 0) + 1
                    counters[seconds] = counters.get(seconds, 0.0) + elapsed

        return wrapped

    def _proxy_factory(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return ProviderProxy(self, inner) if hasattr(inner, "complete") else EmbedderProxy(self, inner)

        return wrapped

    def _patch(self, module_name: str, path: str, make) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(f"{module_name}.{path}")
            return
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{path}")
            return
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if outer:
            return
        for name, module in list(sys.modules.items()):
            if name.startswith("lexiforge") and module is not None:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapped)

    def install(self) -> "Tracer":
        for module_name, path, kind, key in TARGETS:
            name = f"{module_name.split('.')[-1]}.{path}"
            if kind == SPAN:
                self._patch(module_name, path, lambda fn, name=name, key=key: self._span_wrapper(fn, name, key))
            else:
                self._patch(module_name, path, lambda fn, key=key: self._count_wrapper(fn, key))
        for module_name, path in PROXY_TARGETS:
            self._patch(module_name, path, self._proxy_factory)
        return self

    # --- results ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it covered by child spans."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result[span.id] = (span.end - span.start) - covered
        return result

    def summary(self) -> dict:
        """Per-layer totals: time per metric key, self time per span name, counters."""
        by_id = {span.id: span for span in self.spans}
        selfs = self.self_times()
        times: dict[str, float] = {}
        self_by_name: dict[str, float] = {}
        counters: dict[str, float] = {}
        scanned, scan_kernel_s = 0, 0.0
        for span in self.spans:
            _bump(counters, span.counters)
            self_by_name[span.name] = self_by_name.get(span.name, 0.0) + selfs[span.id]
            if span.name == SCAN:
                scanned += span.counters.get("kernels.levenshtein.calls", 0)
                scan_kernel_s += span.counters.get("kernels.levenshtein.s", 0.0)
            # a span inside another span of the same metric is already counted
            ancestor = by_id.get(span.parent)
            while ancestor is not None and ancestor.key != span.key:
                ancestor = by_id.get(ancestor.parent)
            if ancestor is None:
                times[span.key] = times.get(span.key, 0.0) + (span.end - span.start)
        counters["error_analysis.neighbors_scanned"] = scanned
        counters["error_analysis.scan_levenshtein_s"] = scan_kernel_s
        counters["embedding.distinct_texts"] = len(self.distinct_texts)
        calls = sorted(self.call_seconds)
        return {
            "run_id": self.run_id,
            "times": times,
            "self_times": self_by_name,
            "counters": counters,
            "provider_calls": calls,
            "absent": self.absent,
        }

    def write_spans(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = {
                    "run": self.run_id,
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start - self.root.start,
                    "end": span.end - self.root.start,
                    "self_s": selfs[span.id],
                    "counters": span.counters,
                }
                fh.write(json.dumps(record) + "\n")


def _bump(target: dict, counters: dict) -> None:
    for name, value in counters.items():
        target[name] = target.get(name, 0) + value


class EmbedderProxy:
    """Counts single and batch embed calls, texts and time inside them."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def embed(self, text):
        started = time.perf_counter()
        try:
            return self._inner.embed(text)
        finally:
            self._tracer.add(**{"embedding.single_calls": 1, "embedding.texts": 1,
                                "embedding.busy_s": time.perf_counter() - started})
            self._tracer.distinct_texts.add(text)

    def embed_batch(self, texts):
        started = time.perf_counter()
        try:
            return self._inner.embed_batch(texts)
        finally:
            self._tracer.add(**{"embedding.batch_calls": 1, "embedding.texts": len(texts),
                                "embedding.busy_s": time.perf_counter() - started})
            self._tracer.distinct_texts.update(texts)


class ProviderProxy:
    """One span per provider call, plus token and truncation counters."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def complete(self, request):
        tracer = self._tracer
        span = tracer.open("providers.complete", "providers.busy_s")
        try:
            response = self._inner.complete(request)
        except Exception:
            span.counters["providers.errors"] = 1
            raise
        finally:
            tracer.close(span)
            with tracer._lock:
                tracer.call_seconds.append(span.end - span.start)
        span.counters["providers.prompt_tokens"] = response.prompt_tokens
        span.counters["providers.completion_tokens"] = response.completion_tokens
        span.counters["generation.truncated_replies"] = int(response.finish_reason == "length")
        return response

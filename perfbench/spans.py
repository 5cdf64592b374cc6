"""In-memory span recording and the arithmetic that turns spans into metrics.

A span is one call into a layer: (id, parent, name, start, end, thread,
extra).  The layer is the part of ``name`` before the first dot.  Spans are
kept in a list while the workload runs and written out once it is over.

Parents follow the calling thread's stack.  A span opened on a thread whose
stack is empty (a worker of the replica pool) takes as parent the innermost
span open on the thread that created the tracer, which is the harness run
blocked waiting for that worker.  Sibling spans from two workers therefore
overlap in time, and a span's self time is its duration minus the length of
the union of its children's intervals, clipped to the span.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    extra: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; see the module docstring for parents."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, extra=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``extra(args, kwargs, result)`` may return a dict of counts that the
        span carries, so counts are taken where the work happens.
        """
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            anchor = self._anchor_stack
            parent = anchor[-1] if anchor else None
        span_id = next(self._ids)
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            # a call that raised leaves result None and carries no counts
            counts = extra(args, kwargs, result) if extra and result is not None else None
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), counts)
            )

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return traced


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def ratio(num: float, den: float) -> float:
    """num / den, with 0 for an empty base (no reports, no wall time)."""
    return num / den if den else 0.0


def percentile_ms(durations, q: int) -> float:
    """The q-th percentile (q in 1..99) of durations in seconds, as ms."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1e3


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, named as in the README."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    by_layer: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + selfs[s.id]

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def total(name, key):
        return sum((s.extra or {}).get(key, 0) for s in by_name.get(name, ()))

    norms = by_name.get("disorder.norm", [])
    norm_ms = [s.duration for s in norms]
    steps = total("dynamics.simulate", "particle_steps")
    return {
        "disorder.norm.calls": calls("disorder.norm"),
        "disorder.norm.self_s": self_s("disorder.norm"),
        "disorder.norm.iterations": total("disorder.norm", "iterations"),
        "disorder.norm.restart_frac": ratio(
            total("disorder.norm", "restarted"), len(norms)
        ),
        "disorder.norm.p50_ms": percentile_ms(norm_ms, 50),
        "disorder.norm.p90_ms": percentile_ms(norm_ms, 90),
        "disorder.sample_matrix.calls": calls("disorder.sample_matrix"),
        "disorder.sample_matrix.self_s": self_s("disorder.sample_matrix"),
        "streams.raw.calls": calls("streams.raw"),
        "streams.words": total("streams.raw", "words"),
        "streams.self_s": by_layer.get("streams", 0.0),
        "dynamics.simulate.calls": calls("dynamics.simulate"),
        "dynamics.simulate.self_s": self_s("dynamics.simulate"),
        "dynamics.particle_steps": steps,
        "dynamics.ns_per_particle_step": ratio(self_s("dynamics.simulate"), steps) * 1e9,
        "dynamics.safeguard_activations": total("dynamics.simulate", "activations"),
        "observables.self_s": by_layer.get("observables", 0.0),
        "lindeberg.certificate.self_s": self_s("lindeberg.certificate"),
        "lindeberg.mc.self_s": self_s("lindeberg.mc"),
        "lindeberg.mc.samples": total("lindeberg.mc", "samples"),
        "harness.self_s": by_layer.get("harness", 0.0),
        "harness.persist_s": self_s("harness.persist"),
        "harness.replay.calls": calls("harness.replay"),
        "harness.replay.self_s": self_s("harness.replay"),
        "config.load_s": self_s("config.load"),
        "model.self_s": by_layer.get("model", 0.0),
    }


def write_spans(spans, path) -> None:
    """One CSV line per span, ordered by start time."""
    selfs = self_times(spans)
    with open(path, "w") as fh:
        fh.write("id,parent,name,start,end,self,thread\n")
        for s in sorted(spans, key=lambda s: s.start):
            parent = "" if s.parent is None else s.parent
            fh.write(
                f"{s.id},{parent},{s.name},{s.start!r},{s.end!r},"
                f"{selfs[s.id]!r},{s.thread}\n"
            )

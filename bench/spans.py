"""In-memory span recorder for the benchmark's traced runs.

Spans are taken from the benchmark's side of the package boundary: a
public function is replaced, at the module attribute through which its
callers look it up, by a wrapper that records when the call started and
ended.  Private helpers are not wrapped, so their time shows up as the
self time of the public function that called them.

Pool workers are threads, so each thread keeps its own stack of open
spans; a span opened on a thread with an empty stack (a pool worker)
takes the outermost open span of the run as its parent.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    """One call into a layer; times are ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        if parent is None:
            self._root = span_id
        stack.append(span_id)
        record = Span(span_id, name, time.perf_counter(), 0.0, parent, self.op)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if self._root == span_id:
                self._root = None
            self.spans.append(record)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append(Span(next(self._ids), name, start, end, None, self.op))

    def wrap(self, module, attr: str, name: str,
             annotate: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` by a recording wrapper until :meth:`unwrap`.

        ``annotate(args, kwargs, result)`` may return counts to attach to
        the span, such as bytes read or the size of a fitted model.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(args, kwargs, result))
                return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def to_json(self) -> list:
        return [asdict(span) for span in self.spans]


def spans_from_json(rows: list) -> list:
    return [Span(**row) for row in rows]


def _union_length(intervals: list) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children of one parent may overlap (pool workers), so their
    intervals are merged before being subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = span.seconds - _union_length(clipped)
    return out


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _build_m_counts(args, kwargs, result) -> dict:
    p, n = args[0].p, args[0].n
    k0 = int(args[1])
    # k0 + 1 lag products of 2 p^2 n flops each (lag 0 included), then k0
    # pooled products S_k S_k' of 2 p^3 flops each.
    gflop = ((k0 + 1) * 2 * p * p * n + k0 * 2 * p**3) / 1e9
    return {"gflop": gflop, "lags_used": k0, "lags_computed": k0 + 1}


def _estimate_counts(args, kwargs, result) -> dict:
    return {"eigvec_used": int(result.r_hat), "eigvec_computed": int(args[0].p)}


def _two_step_counts(args, kwargs, result) -> dict:
    # The first pass runs inside the nested estimate span, which counts
    # its own columns; this span owns the second eigensolve only.
    return {"eigvec_used": int(result.r2_hat), "eigvec_computed": int(args[0].p)}


def _study_reps(args, kwargs, result) -> dict:
    reps = kwargs["reps"] if "reps" in kwargs else args[1]
    return {"reps": int(reps)}


def _table1_reps(args, kwargs, result) -> dict:
    reps = kwargs["reps"] if "reps" in kwargs else args[3]
    return {"reps": int(reps) * len(result)}


def instrument(tracer: Tracer) -> None:
    """Wrap hdfactor's public functions where their callers look them up."""
    from hdfactor import cli, estimation, simulation

    tracer.wrap(cli, "load_csv", "panel.load_csv", _file_bytes)
    tracer.wrap(cli, "estimate", "estimation.estimate", _estimate_counts)
    tracer.wrap(cli, "two_step_estimate", "estimation.two_step_estimate", _two_step_counts)
    tracer.wrap(cli, "model_to_dict", "serialize.model_to_dict")
    tracer.wrap(cli, "dump_json", "serialize.dump_json", _file_bytes)
    tracer.wrap(cli, "write_csv", "serialize.write_csv", _file_bytes)
    tracer.wrap(estimation, "estimate", "estimation.estimate", _estimate_counts)
    tracer.wrap(estimation, "build_m", "estimation.build_m", _build_m_counts)
    tracer.wrap(estimation, "sym_eigen", "estimation.sym_eigen")
    tracer.wrap(estimation, "ratio_estimate", "estimation.ratio_estimate")
    tracer.wrap(simulation, "generate", "simulation.generate")
    tracer.wrap(simulation, "m_eigenvalues", "estimation.m_eigenvalues")
    tracer.wrap(simulation, "ratio_estimate", "estimation.ratio_estimate")
    tracer.wrap(simulation, "two_step_study", "simulation.two_step_study", _study_reps)
    tracer.wrap(simulation, "run_table1", "simulation.run_table1", _table1_reps)

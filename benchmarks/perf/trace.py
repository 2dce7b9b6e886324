"""Span tracing from benchmark code: wrap public functions, keep spans per process.

A :class:`Tracer` replaces functions and methods of the program with
wrappers that record one span per call: name, start, end, pid, the span
id and the id of the enclosing span on the same thread (a thread-local
stack).  Nothing in the program changes; the wrappers are installed
before any fork, so forked serve replicas and data-parallel workers
inherit them.  Each process keeps its spans in memory and writes them to
its own ``spans-<pid>.jsonl``: the process that made the tracer calls
:meth:`Tracer.flush`, and forked ``multiprocessing`` workers, which
leave through ``os._exit``, flush from a finalizer as they exit.
:func:`load_spans` merges the files and :func:`aggregate` turns spans
into per-name counts, self times and inclusive times.

Spans of one request in different processes are not linked: that needs
identifiers carried by the program itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "load_spans", "aggregate"]


class Tracer:
    """Records spans of wrapped calls for the current process and its forks."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        # Runs in every multiprocessing child before its target starts,
        # after the finalizers inherited from this process were cleared.
        mp_util.register_after_fork(self, Tracer._register_exit_flush)

    def _reset(self) -> None:
        self._pid = os.getpid()
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _register_exit_flush(self) -> None:
        mp_util.Finalize(self, self.flush, exitpriority=100)

    @property
    def path(self) -> Path:
        return self.directory / f"spans-{self._pid}.jsonl"

    def wrap(self, name: str, function: Callable, *,
             size: Callable[[tuple], int] | None = None,
             extra: Callable[[Any], dict] | None = None) -> Callable:
        """A wrapper of ``function`` recording one span named ``name`` per call.

        ``size(args)`` records how many items the call handled;
        ``extra(result)`` records fields read from its return value.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._spans.append((
                    span_id, parent, name, start, end,
                    size(args) if size is not None else None,
                    extra(result) if extra is not None and result is not None
                    else None))

        return traced

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        spans, self._spans = self._spans, []
        if not spans:
            return
        with open(self.path, "a") as handle:
            for span_id, parent, name, start, end, size, extra in spans:
                record = {"pid": self._pid, "id": span_id, "parent": parent,
                          "name": name, "start": start, "end": end}
                if size is not None:
                    record["n"] = size
                if extra is not None:
                    record["extra"] = extra
                handle.write(json.dumps(record) + "\n")


def load_spans(directory: str | Path) -> list[dict]:
    """Every span written under ``directory``, from all processes."""
    spans: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def aggregate(spans: list[dict], start: float = float("-inf"),
              end: float = float("inf")) -> dict[str, dict]:
    """Per-name totals over the spans that began inside ``[start, end]``.

    For each name: ``calls``; ``self`` seconds (duration minus the
    durations of its direct child spans); ``total`` seconds summed over
    outermost spans only, so a recursive or overriding call is not
    counted twice; ``n``, the summed ``size`` of the calls; and
    ``extras``, the recorded result fields.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    child_seconds: dict[tuple[int, int], float] = {}
    for span in spans:
        if span["parent"]:
            key = (span["pid"], span["parent"])
            child_seconds[key] = (child_seconds.get(key, 0.0)
                                  + span["end"] - span["start"])
    summary: dict[str, dict] = {}
    for span in spans:
        if not start <= span["start"] <= end:
            continue
        entry = summary.setdefault(span["name"], {
            "calls": 0, "self": 0.0, "total": 0.0, "n": 0, "extras": []})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["self"] += duration - child_seconds.get(
            (span["pid"], span["id"]), 0.0)
        entry["n"] += span.get("n", 0)
        if "extra" in span:
            entry["extras"].append(span["extra"])
        if not _has_ancestor_named(span, by_key):
            entry["total"] += duration
    return summary


def _has_ancestor_named(span: dict, by_key: dict) -> bool:
    parent = by_key.get((span["pid"], span["parent"]))
    while parent is not None:
        if parent["name"] == span["name"]:
            return True
        parent = by_key.get((parent["pid"], parent["parent"]))
    return False

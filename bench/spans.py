"""In-memory spans recorded around calls into the package's public functions.

A span is (id, name, start_ns, end_ns, parent_id, request_id).  Spans are kept
in a list while the benchmark runs and written out once when it ends, so
recording one costs two clock reads and an append.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class NullTracer:
    """Calls straight through; what untraced runs use."""

    def call(self, name, fn, *args):
        return fn(*args)

    def request(self, request_id, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call, parented to the request being served."""

    def __init__(self):
        self.spans = []
        self._parent = None
        self._request = None

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        out = fn(*args)
        end = perf_counter_ns()
        self.spans.append(
            (len(self.spans), name, start, end, self._parent, self._request)
        )
        return out

    def request(self, request_id, fn, *args):
        """Serve one request under a root span; calls inside become its children."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserved so children can name their parent
        self._parent, self._request = span_id, request_id
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._parent = self._request = None
            self.spans[span_id] = (span_id, "request", start, end, None, request_id)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request_id in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    "request": request_id,
                }
                handle.write(json.dumps(record) + "\n")


def durations(spans, name=None, prefix=None, request_prefix=None):
    """Durations in seconds of the spans matching a name or name prefix."""
    out = []
    for _, span_name, start, end, _, request_id in spans:
        if name is not None and span_name != name:
            continue
        if prefix is not None and not span_name.startswith(prefix):
            continue
        if request_prefix is not None and not str(request_id).startswith(request_prefix):
            continue
        out.append((end - start) * 1e-9)
    return out


def self_time_by_request(spans, name):
    """Per request: the named span's duration minus its sibling public calls.

    A request's public calls are replayed next to the named span rather than
    inside it, so the difference is the time the named layer spends on its
    own work.
    """
    own, children = {}, {}
    for _, span_name, start, end, parent, request_id in spans:
        if parent is None:
            continue
        dur = (end - start) * 1e-9
        if span_name == name:
            own[request_id] = own.get(request_id, 0.0) + dur
        else:
            children[request_id] = children.get(request_id, 0.0) + dur
    return [own[r] - children.get(r, 0.0) for r in own]

"""In-memory spans and counts recorded at the benchmark's calls into the library.

A span is (name, start, end, parent, job). The benchmark opens one ``job``
span per job and one child span around each public library call it makes,
so a layer's busy time is the sum of its spans and the job span's self time
(its duration minus its children's) is benchmark glue: ``unattributed_s``.
Counts are kept at the same call boundaries.
"""

from __future__ import annotations

import json
import statistics
import time

JOB = "job"


class Tracer:
    """Records spans and counts; ``enabled=False`` makes every call direct."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self._job = None
        self._job_start = None
        #: Duration of the latest traced call (0 when tracing is off).
        self.last_duration = 0.0

    def begin_job(self, job_id):
        self._job = job_id
        self._job_start = time.perf_counter()

    def end_job(self):
        end = time.perf_counter()
        if self.enabled:
            self.spans.append((JOB, self._job_start, end, None, self._job))
        return end - self._job_start

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named after the library function."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.last_duration = end - start
            self.spans.append((name, start, end, JOB, self._job))

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def add_span(self, name, start, end):
        """Record a span measured elsewhere (for example a child process)."""
        if self.enabled:
            self.spans.append((name, start, end, JOB, self._job))

    # -- summaries ---------------------------------------------------------

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def span_summary(self, name):
        """``calls``, ``busy_s`` and ``p50_ms`` of one span name (zeros if unused)."""
        d = self.durations(name)
        return {
            "calls": len(d),
            "busy_s": sum(d),
            "p50_ms": statistics.median(d) * 1e3 if d else 0.0,
        }

    def self_times(self):
        """Self time per span name: duration minus that of its child spans."""
        child = {}
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child[job] = child.get(job, 0.0) + (end - start)
        out = {}
        for name, start, end, parent, job in self.spans:
            own = end - start - (child.get(job, 0.0) if parent is None else 0.0)
            out[name] = out.get(name, 0.0) + own
        return out

    def dump(self, path, meta):
        """Write every span, the counts and the self times as JSON."""
        keys = ("name", "start", "end", "parent", "job")
        data = {
            "meta": meta,
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "counts": self.counts,
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)

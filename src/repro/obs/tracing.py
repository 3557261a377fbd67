"""End-to-end request tracing: trace ids, span exporters, reports.

A trace id is allocated when a connection's :class:`SocketHandle` is
created (the accept boundary) and rides the handle through the
Communicator, shard placement, the Event Processor worker and the
write path.  Two consumers see it:

* the **flight recorder** (:mod:`repro.obs.flight`) stamps it on every
  lifecycle event, always;
* the **span layer** (:mod:`repro.obs.spans`) carries it on each
  request span and hands finished spans to an *exporter* — but only in
  O11=Yes builds, where the generator wires an exporter in.

The exporter is deliberately tiny: :class:`RingExporter` keeps the
last N span records in memory (tests, the ``/server-status?trace``
page).  A span record is a plain dict::

    {"trace_id": int, "parent_id": int, "name": str, "detail": str,
     "start": float, "end": float, "total": float,
     "stages": [{"stage": str, "seconds": float}, ...]}

:func:`render_trace_report` turns a batch of records into the text the
status page serves.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from typing import Iterable, List

__all__ = [
    "RingExporter",
    "format_trace_id",
    "next_trace_id",
    "render_trace_report",
]

#: process-wide trace-id allocator; ``next()`` on a count is atomic
#: under the GIL, so the accept path takes no lock
_trace_ids = itertools.count(1)

#: low 48 bits carry the per-process sequence; the top 16 carry the
#: PID, so ids from different worker processes of one O16 deployment
#: never collide even though every worker counts from 1
_SEQUENCE_MASK = (1 << 48) - 1


def next_trace_id() -> int:
    """Allocate the next trace id (monotonic within a process, never
    0 — 0 is the "no trace" sentinel in flight events and spans).

    The top 16 bits carry ``os.getpid() & 0xFFFF`` so that ids are
    globally unique across the worker processes of a multi-process
    (O16>1) deployment: each worker is a fresh interpreter whose
    sequence restarts at 1, and the PID component disambiguates them
    in aggregated traces and flight dumps.  The sequence occupies the
    low 48 bits, so the composed id still fits the flight recorder's
    uint64 slot and :func:`format_trace_id`'s 16 hex digits.
    """
    return ((os.getpid() & 0xFFFF) << 48) | (next(_trace_ids)
                                             & _SEQUENCE_MASK)


def format_trace_id(trace_id: int) -> str:
    """The canonical textual form: 16 hex digits, as in flight dumps."""
    return f"{trace_id:016x}"


class RingExporter:
    """Span exporter keeping the most recent ``capacity`` records.

    The in-memory backend: tests read :meth:`records` directly and the
    generated ``trace_report()`` renders them for
    ``/server-status?trace``.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("exporter capacity must be >= 1")
        self.capacity = capacity
        self._ring: "deque[dict]" = deque(maxlen=capacity)

    def export(self, record: dict) -> None:
        """Keep one finished-span record (deque append: GIL-atomic)."""
        self._ring.append(dict(record))

    def records(self) -> List[dict]:
        """The buffered records, oldest first (copies)."""
        return [dict(record) for record in list(self._ring)]

    def clear(self) -> None:
        """Drop the buffer (tests)."""
        self._ring.clear()


def render_trace_report(records: Iterable[dict],
                        sharded: bool = False) -> str:
    """The ``/server-status?trace`` text: one line per span record.

    Records are merged chronologically (by span start), so a sharded
    server's report interleaves all shards into one timeline::

        Traces: 2
        trace=0000000000000003 request 127.0.0.1:4242 total=0.000210 \
decode=0.000020 handle=0.000150 encode=0.000040
    """
    batch = sorted(records, key=lambda record: record.get("start", 0.0))
    lines = [f"Traces: {len(batch)}"]
    if sharded:
        lines[0] += " (all shards)"
    for record in batch:
        stages = " ".join(
            f"{stage['stage']}={stage['seconds']:.6f}"
            for stage in record.get("stages", ()))
        line = (f"trace={format_trace_id(record.get('trace_id', 0))} "
                f"{record.get('name', '?')} {record.get('detail', '')} "
                f"total={record.get('total', 0.0):.6f} {stages}")
        lines.append(" ".join(line.split()))
    return "\n".join(lines) + "\n"

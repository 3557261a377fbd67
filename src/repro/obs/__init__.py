"""Unified observability layer (option O11 and friends).

Composable, individually testable pieces:

* :mod:`repro.obs.registry` — thread-safe metrics registry (counters,
  gauges, bucketed histograms with p50/p90/p99 estimation, labeled
  families) with per-metric locking and null objects for the O11=No
  branch-free path;
* :mod:`repro.obs.spans` — request-lifecycle spans bracketing the
  decode/handle/encode steps of the five-step cycle (Fig 1), recorded
  into per-stage latency histograms and optionally mirrored into an
  O10=Debug build's flight recorder;
* :mod:`repro.obs.sampler` — periodic gauge sampling of pull-style state
  (queue depth, pool size, open connections, overload trip state, cache
  hit rate);
* :mod:`repro.obs.exposition` — Prometheus text format (with trace
  exemplars) and the Apache ``mod_status``-style ``/server-status``
  report (HTML + ``?auto`` + ``?trace``), with one merge for the
  sections of reactor shards (O14) and worker processes (O16);
* :mod:`repro.obs.tracing` — end-to-end trace ids allocated at accept,
  the in-memory span exporter and the trace report;
* :mod:`repro.obs.flight` — the flight recorder: a bounded ring of
  binary-packed events.  One always-on ring holds lifecycle events and
  is dumped on worker death, quarantine or ``SIGUSR2``; an O10=Debug
  build records its internal events into a ring of its own.

This package deliberately does not import :mod:`repro.runtime` — the
runtime imports *it* (the Profiler is a façade over the registry), and
the generated frameworks' ``Observability`` component wires the rest.
"""

from repro.obs.exposition import (
    merge_status_fields,
    render_prometheus,
    render_status_auto,
    render_status_html,
    status_fields,
)
from repro.obs.flight import (
    FlightEvent,
    FlightRecorder,
    dump_all,
    install_signal_dump,
    parse_dump,
    reconstruct_path,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_METRIC,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullMetric,
    NullRegistry,
)
from repro.obs.sampler import PeriodicSampler
from repro.obs.tracing import (
    RingExporter,
    format_trace_id,
    next_trace_id,
    render_trace_report,
)
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPANS,
    NullSpan,
    NullSpanRecorder,
    Span,
    SpanRecorder,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_SPANS",
    "NullMetric",
    "NullRegistry",
    "NullSpan",
    "NullSpanRecorder",
    "PeriodicSampler",
    "RingExporter",
    "Span",
    "SpanRecorder",
    "dump_all",
    "format_trace_id",
    "install_signal_dump",
    "merge_status_fields",
    "next_trace_id",
    "parse_dump",
    "reconstruct_path",
    "render_prometheus",
    "render_status_auto",
    "render_status_html",
    "render_trace_report",
    "status_fields",
]

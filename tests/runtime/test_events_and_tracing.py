"""Tests for the event model, profiler, tracer and log."""

import io

import pytest

from harness import FakeHandle, feed
from repro.runtime import (
    AsynchronousCompletionToken,
    Communicator,
    CompletionEvent,
    Event,
    EventKind,
    FileReadEvent,
    FlightRecorder,
    NULL_LOG,
    NULL_PROFILER,
    Profiler,
    ReadableEvent,
    ServerHooks,
    ServerLog,
    TimerEvent,
    UserEvent,
)


# -- events -------------------------------------------------------------------


def test_event_kinds():
    assert ReadableEvent().kind == EventKind.READABLE
    assert TimerEvent().kind == EventKind.TIMER
    assert UserEvent().kind == EventKind.USER


def test_event_ids_unique_and_increasing():
    a, b = Event(), Event()
    assert b.event_id > a.event_id


def test_event_priority_default_zero():
    assert Event().priority == 0
    assert Event(priority=7).priority == 7


def test_completion_event_ok_and_error():
    act = AsynchronousCompletionToken()
    good = CompletionEvent(token=act, payload=b"data")
    bad = CompletionEvent(token=act, error=OSError("disk"))
    assert good.ok and not bad.ok


def test_completion_event_invokes_token_callback():
    got = []
    act = AsynchronousCompletionToken(context="ctx",
                                      on_complete=lambda ev: got.append(ev.payload))
    ev = FileReadEvent(token=act, payload=b"bytes")
    ev.complete()
    assert got == [b"bytes"]
    assert ev.token.context == "ctx"


def test_completion_event_without_callback_is_noop():
    CompletionEvent(token=AsynchronousCompletionToken()).complete()


# -- profiler -------------------------------------------------------------------


def test_profiler_counters():
    p = Profiler()
    p.connection_accepted()
    p.connection_accepted()
    p.connection_closed()
    p.bytes_read(100)
    p.bytes_sent(250)
    p.request_handled()
    p.error()
    p.event_dispatched(3)
    snap = p.snapshot()
    assert snap.connections_accepted == 2
    assert snap.open_connections == 1
    assert snap.bytes_read == 100
    assert snap.bytes_sent == 250
    assert snap.requests_handled == 1
    assert snap.errors == 1
    assert snap.events_dispatched == 3
    assert snap.uptime >= 0.0


def test_profiler_cache_hit_rate():
    from repro.cache import Cache, LRUPolicy

    c = Cache(100, LRUPolicy())
    c.put("a", 10)
    c.get("a")
    c.get("b")
    p = Profiler()
    p.attach_cache(c.stats)
    assert p.snapshot().cache_hit_rate == pytest.approx(0.5)


def test_null_profiler_is_inert():
    NULL_PROFILER.connection_accepted()
    NULL_PROFILER.bytes_read(1000)
    snap = NULL_PROFILER.snapshot()
    assert snap.connections_accepted == 0
    assert not NULL_PROFILER.enabled


def test_profiler_is_a_registry_facade():
    """The Profiler's counters live in its metrics registry, under the
    exposition names the status page and Prometheus renderer use."""
    p = Profiler()
    p.request_handled()
    p.bytes_sent(512)
    assert p.registry.value("server_requests_total") == 1
    assert p.registry.value("server_bytes_sent_total") == 512


def test_profiler_accepts_external_registry():
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    p = Profiler(registry=reg)
    p.connection_accepted()
    assert reg.value("server_connections_accepted_total") == 1


def test_null_profiler_registry_is_null():
    assert NULL_PROFILER.registry.collect() == []


# -- tracer ---------------------------------------------------------------------
# An O10=Debug build's tracer is a FlightRecorder of its own; production
# builds pass none, and the Communicator formats no trace detail.


def test_tracer_records():
    tracer = FlightRecorder(capacity=10, name="tracer")
    conn = Communicator(FakeHandle(), ServerHooks(), tracer=tracer)
    feed(conn, b"hi\n")
    conn.close()
    assert [e.category for e in tracer.events()] == [
        "decode", "send", "close"]
    assert tracer.events("send")[0].detail == "fake -3B"


def test_tracer_ring_bounded():
    t = FlightRecorder(capacity=5, name="tracer")
    for i in range(20):
        t.record("x", str(i))
    recs = t.events()
    assert len(recs) == 5
    assert recs[0].detail == "15"


def test_tracer_dump():
    t = FlightRecorder(name="tracer")
    t.record("a", "1")
    t.record("b", "2")
    out = io.StringIO()
    assert t.dump(out) == 2
    assert out.getvalue().count("\n") == 2


def test_tracer_capacity_validation():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0, name="tracer")


def test_null_tracer_is_inert():
    conn = Communicator(FakeHandle(), ServerHooks())
    assert conn.tracer is None
    feed(conn, b"x\n")
    conn.close()
    assert bytes(conn.handle.sent) == b"x\n"


class FlushCountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def test_tracer_dump_flushes_destination():
    t = FlightRecorder(name="tracer")
    t.record("a", "1")
    out = FlushCountingSink()
    t.dump(out)
    assert out.flushes >= 1


# -- log --------------------------------------------------------------------------


def test_log_levels_filtered():
    log = ServerLog(level="warning")
    log.debug("hidden")
    log.info("hidden")
    log.warning("shown")
    log.error("shown too")
    assert len(log.lines) == 2


def test_log_to_sink():
    sink = io.StringIO()
    log = ServerLog(sink=sink, level="debug")
    log.info("hello")
    assert "INFO" in sink.getvalue() and "hello" in sink.getvalue()


def test_log_bad_level():
    with pytest.raises(ValueError):
        ServerLog(level="catastrophic")


def test_null_log_is_inert():
    NULL_LOG.error("nothing happens")
    assert NULL_LOG.lines == []

"""Tests for the Decorator-pattern event sources."""

import os
import socket
import threading
import time

import pytest

from harness import FakeClock
from repro.runtime import (
    EventKind,
    ListenHandle,
    NullEventSource,
    QueueEventSource,
    SocketEventSource,
    SocketHandle,
    TimerEventSource,
    UserEvent,
)


def poll_until(source, want, timeout=2.0):
    """Poll until at least one event of each wanted kind arrives."""
    found = {}
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not all(k in found for k in want):
        for ev in source.poll(0.05):
            found.setdefault(ev.kind, ev)
    return found


# -- SocketEventSource -----------------------------------------------------------


def test_accept_event_on_incoming_connection():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        found = poll_until(src, [EventKind.ACCEPT])
        assert EventKind.ACCEPT in found
        assert found[EventKind.ACCEPT].handle is listen
    finally:
        client.close()
        listen.close()
        src.close()


def test_readable_event_on_data():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        poll_until(src, [EventKind.ACCEPT])
        server_side = listen.try_accept()
        assert server_side is not None
        src.register(server_side)
        client.sendall(b"ping")
        found = poll_until(src, [EventKind.READABLE])
        assert found[EventKind.READABLE].handle is server_side
        assert server_side.try_recv() == b"ping"
    finally:
        client.close()
        listen.close()
        src.close()


def test_writable_only_when_buffered_output():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        poll_until(src, [EventKind.ACCEPT])
        server_side = listen.try_accept()
        src.register(server_side)
        # No output buffered: no writable events.
        events = src.poll(0.05)
        assert not any(e.kind == EventKind.WRITABLE for e in events)
        server_side.out_buffer.extend(b"reply")
        src.update_interest(server_side)
        found = poll_until(src, [EventKind.WRITABLE])
        assert EventKind.WRITABLE in found
    finally:
        client.close()
        listen.close()
        src.close()


def test_pause_suppresses_readable_and_resume_restores():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
    try:
        poll_until(src, [EventKind.ACCEPT])
        server_side = listen.try_accept()
        src.register(server_side)
        client.sendall(b"data")
        poll_until(src, [EventKind.READABLE])
        src.pause(server_side)
        assert not any(e.kind == EventKind.READABLE for e in src.poll(0.05))
        src.resume(server_side)
        found = poll_until(src, [EventKind.READABLE])
        assert EventKind.READABLE in found
    finally:
        client.close()
        listen.close()
        src.close()


def test_wakeup_interrupts_blocking_poll():
    src = SocketEventSource()
    durations = []
    entered = threading.Event()

    def poller():
        start = time.monotonic()
        entered.set()
        src.poll(2.0)
        durations.append(time.monotonic() - start)

    t = threading.Thread(target=poller)
    t.start()
    # Even if wakeup lands before poll starts, the self-pipe byte makes
    # the poll return immediately — no sleep-and-hope needed.
    entered.wait(1.0)
    src.wakeup()
    t.join(timeout=3.0)
    src.close()
    assert durations and durations[0] < 1.0


def test_deregister_stops_events():
    src = SocketEventSource()
    listen = ListenHandle()
    src.register(listen)
    src.deregister(listen)
    client = None
    try:
        client = socket.create_connection(("127.0.0.1", listen.port), timeout=2)
        events = src.poll(0.1)
        assert not any(e.kind == EventKind.ACCEPT for e in events)
    finally:
        if client:
            client.close()
        listen.close()
        src.close()


def test_register_rejects_non_socket_handle():
    src = SocketEventSource()
    with pytest.raises(TypeError):
        src.register(object())
    src.close()


# -- TimerEventSource ----------------------------------------------------------


def test_timer_fires_after_delay():
    src = TimerEventSource(NullEventSource())
    src.schedule(0.05, payload="tick")
    found = poll_until(src, [EventKind.TIMER])
    assert found[EventKind.TIMER].payload == "tick"


def test_timer_not_early():
    src = TimerEventSource(NullEventSource())
    src.schedule(0.5, payload="late")
    events = src.poll(0.01)
    assert not any(e.kind == EventKind.TIMER for e in events)


def test_timer_cancel():
    clock = FakeClock()
    src = TimerEventSource(NullEventSource(), clock=clock)
    token = src.schedule(0.05, payload="nope")
    src.cancel(token)
    clock.advance(0.2)  # well past the cancelled deadline
    events = src.poll(0.01)
    assert not any(e.kind == EventKind.TIMER for e in events)


def test_timer_negative_delay_rejected():
    src = TimerEventSource(NullEventSource())
    with pytest.raises(ValueError):
        src.schedule(-1.0)


def test_timer_ordering():
    src = TimerEventSource(NullEventSource())
    src.schedule(0.02, payload="first")
    src.schedule(0.05, payload="second")
    got = []
    deadline = time.monotonic() + 1.0
    while len(got) < 2 and time.monotonic() < deadline:
        got.extend(e.payload for e in src.poll(0.02)
                   if e.kind == EventKind.TIMER)
    assert got == ["first", "second"]


# -- QueueEventSource ------------------------------------------------------------


def test_queue_source_delivers_posted_events():
    src = QueueEventSource(NullEventSource())
    src.post(UserEvent(payload="app-event"))
    events = src.poll(0.01)
    assert [e.payload for e in events if e.kind == EventKind.USER] == ["app-event"]


def test_queue_source_pending_count():
    src = QueueEventSource(NullEventSource())
    src.post(UserEvent())
    src.post(UserEvent())
    assert src.pending() == 2
    src.poll(0.0)
    assert src.pending() == 0


def test_decorator_chain_merges_all_sources():
    chain = QueueEventSource(TimerEventSource(NullEventSource()))
    chain.inner.schedule(0.01, payload="timer")
    chain.post(UserEvent(payload="user"))
    kinds = set()
    deadline = time.monotonic() + 1.0
    while len(kinds) < 2 and time.monotonic() < deadline:
        kinds |= {e.kind for e in chain.poll(0.02)}
    assert EventKind.TIMER in kinds and EventKind.USER in kinds


def test_null_source_rejects_handles():
    with pytest.raises(TypeError):
        NullEventSource().register(object())


# -- fd reuse: a closed handle must not steal its fd's new owner -------------


class _RacedHandle(SocketHandle):
    """A closed handle as a racing thread saw it: that thread read
    ``closed`` (False) just before the close landed, then carried on
    into the event source with the stale object."""

    @property
    def closed(self):
        return False


@pytest.mark.parametrize("op", ["update_interest", "resume", "force_ready"])
def test_closed_handle_does_not_repoint_reused_fd(poller_backend, op):
    """Handle A is torn down and the kernel hands its fd number to a new
    connection B.  A thread still holding A then calls ``op(A)``; the
    poller must keep reporting B for that fd, or B's request is never
    read (the lost-request race under connection churn)."""
    src = SocketEventSource(poller=poller_backend)
    a_sock, a_peer = socket.socketpair()
    b_sock, b_peer = socket.socketpair()
    try:
        a = _RacedHandle(a_sock, name="a")
        src.register(a)
        fd = a.fileno()
        src.pause(a)                    # A's event was in a processor
        src.deregister(a)               # teardown...
        a.close()                       # ...frees the fd number
        os.dup2(b_sock.fileno(), fd)    # B's connection lands on it
        b_sock.close()
        b = SocketHandle(socket.socket(fileno=fd), name="b")
        src.register(b)

        getattr(src, op)(a)

        b_peer.sendall(b"request")
        seen = []
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and not any(
                e.kind == EventKind.READABLE for e in seen):
            seen.extend(src.poll(0.05))
        assert [e.handle for e in seen
                if e.kind == EventKind.READABLE][:1] == [b]
        assert all(e.handle is not a for e in seen + src.poll(0.05))
        assert b.try_recv() == b"request"
    finally:
        src.close()
        for s in (a_peer, b_peer, b_sock):
            s.close()
        if "b" in locals():
            b.close()

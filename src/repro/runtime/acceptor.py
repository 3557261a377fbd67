"""Acceptor-Connector (Schmidt): separates connection establishment from
data communication.

The Acceptor owns the listening socket, consumes
:class:`~repro.runtime.events.AcceptEvent`, asks the overload controller
for permission (O9), wraps each accepted socket in a *Communicator* via
the factory callback, and registers it with the Event Source.  The
Connector establishes outbound connections (used by COPS-FTP for active
data connections).
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Optional

from repro.runtime.event_source import SocketEventSource
from repro.runtime.events import AcceptEvent
from repro.runtime.handles import ListenHandle, SocketHandle
from repro.runtime.overload import OverloadController
from repro.runtime.profiling import NULL_PROFILER
from repro.runtime.resilience import is_transient_accept_error

__all__ = ["Acceptor", "Connector"]


class Acceptor:
    """Accept-side half of the Acceptor-Connector pattern.

    ``on_connection(handle)`` builds the Communicator for the new
    connection; the Acceptor then registers the handle with the Event
    Source.  It keeps accepting in a loop per AcceptEvent (a single
    readiness notification may cover several queued connections).
    """

    def __init__(
        self,
        listen: ListenHandle,
        source: SocketEventSource,
        on_connection: Callable[[SocketHandle], None],
        overload: Optional[OverloadController] = None,
        profiler=NULL_PROFILER,
        clock=time.monotonic,
        backoff: float = 0.05,
    ):
        self.listen = listen
        self.source = source
        self.on_connection = on_connection
        self.overload = overload
        self.profiler = profiler
        self.clock = clock
        self.backoff = backoff
        self.accepted = 0
        self.postponed = 0
        self.accept_errors = 0

    def open(self) -> None:
        """Register the listen handle so AcceptEvents start flowing."""
        self.source.register(self.listen)

    def handle(self, event: AcceptEvent) -> None:
        """Drain the kernel accept queue, subject to overload control."""
        while True:
            if self.overload is not None and not self.overload.accepting():
                # Postpone: leave remaining connections in the kernel
                # backlog; they will surface as another AcceptEvent —
                # level-triggered backends re-report them per poll,
                # edge-triggered ones need the explicit re-post.
                self.postponed += 1
                self.listen.flight.record("shed",
                                          "accept postponed: overloaded")
                self._repost()
                return
            try:
                handle = self.listen.try_accept()
            except OSError as exc:
                # accept() must never crash the dispatcher.  A connection
                # aborted in the backlog (or an interrupted call) is
                # consumed — retry at once.  Descriptor/buffer exhaustion
                # (EMFILE & co.) will not clear by retrying: back off
                # briefly and shed; the level-triggered source re-raises
                # the AcceptEvent while the backlog is non-empty.
                self.accept_errors += 1
                self.profiler.accept_error()
                if is_transient_accept_error(exc):
                    continue
                time.sleep(self.backoff)
                self._repost()
                return
            if handle is None:
                return
            handle.last_activity = self.clock()
            self.accepted += 1
            self.profiler.connection_accepted()
            if self.overload is not None:
                self.overload.connection_opened()
            self.on_connection(handle)
            self.source.register(handle)

    def _repost(self) -> None:
        """Re-post the listen handle when leaving backlog behind on an
        edge-triggered source (level-triggered ones re-report it free)."""
        if getattr(self.source, "edge_triggered", False):
            self.source.force_ready(self.listen)

    def close(self) -> None:
        """Deregister and close the listen handle (idempotent)."""
        if self.listen.closed:
            return
        self.source.deregister(self.listen)
        self.listen.close()


class Connector:
    """Connect-side half: synchronous establishment of outbound
    connections, returning a non-blocking :class:`SocketHandle`.

    The paper's generated servers use this from Event Processor threads
    (where blocking briefly is acceptable); a fully asynchronous connect
    would surface as a :class:`~repro.runtime.events.ConnectEvent`.
    """

    def __init__(self, timeout: float = 5.0, handle_cls: type = SocketHandle):
        self.timeout = timeout
        self.handle_cls = handle_cls
        self.connected = 0

    def connect(self, host: str, port: int) -> SocketHandle:
        """Establish one outbound connection; returns its non-blocking handle."""
        sock = socket.create_connection((host, port), timeout=self.timeout)
        self.connected += 1
        return self.handle_cls(sock)

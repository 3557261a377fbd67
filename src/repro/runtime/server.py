"""A hand-wired, runtime-configured server assembly: the static baseline.

This is the *static framework* alternative the paper argues against in
section III: one framework supporting every option through runtime
checks ("executing if or case statements to check which features are
enabled, as opposed to using conditional compilation flags").  It
covers exactly the twelve Table-1 options and exists as the baseline
of the generated-vs-static ablation bench
(``benchmarks/bench_ablation_generated_vs_static.py``).  Every plane
beyond Table 1 (O13-O18) exists only in generated frameworks.

The :class:`RuntimeConfig` fields are the twelve Table-1 option flags
plus the parameters those options read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.cache import FileCache
from repro.obs.flight import FlightRecorder
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanRecorder
from repro.runtime.acceptor import Acceptor
from repro.runtime.communicator import Communicator, ServerHooks
from repro.runtime.container import Container
from repro.runtime.dispatcher import EventDispatcher
from repro.runtime.event_source import (
    QueueEventSource,
    SocketEventSource,
    TimerEventSource,
)
from repro.runtime.events import EventKind
from repro.runtime.file_io import AsyncFileIO
from repro.runtime.handles import ListenHandle
from repro.runtime.idle import IdleConnectionReaper
from repro.runtime.overload import OverloadController, Watermark
from repro.runtime.processor import EventProcessor, ProcessorController
from repro.runtime.profiling import NULL_PROFILER, Profiler
from repro.runtime.scheduler import FifoEventQueue, QuotaPriorityQueue
from repro.runtime.tracing import NULL_LOG, ServerLog

__all__ = ["RuntimeConfig", "ReactorServer"]


@dataclass
class RuntimeConfig:
    """Runtime mirror of the twelve N-Server template options."""

    dispatcher_threads: int = 1                 # O1: 1 or 2N
    use_processor_pool: bool = True             # O2
    use_codec: bool = True                      # O3
    async_completions: bool = True              # O4
    dynamic_threads: bool = False               # O5
    cache_policy: Optional[str] = None          # O6 (None = no cache)
    cache_capacity: int = 16 * 1024 * 1024
    shutdown_long_idle: bool = False            # O7
    idle_limit: float = 30.0
    event_scheduling: bool = False              # O8
    scheduling_quotas: dict = field(default_factory=dict)
    overload_control: bool = False              # O9
    overload_high: int = 20
    overload_low: int = 5
    max_connections: Optional[int] = None
    debug_mode: bool = False                    # O10
    profiling: bool = False                     # O11
    logging: bool = False                       # O12
    processor_threads: int = 2
    file_io_threads: int = 2
    document_root: Optional[str] = None


class ReactorServer:
    """Assembles the N-Server runtime from a :class:`RuntimeConfig`.

    Usage::

        server = ReactorServer(hooks=MyHooks(), config=RuntimeConfig())
        server.start()            # binds, spawns threads, returns
        ... server.port ...
        server.stop()
    """

    def __init__(self, hooks: ServerHooks, config: RuntimeConfig,
                 host: str = "127.0.0.1", port: int = 0):
        self.hooks = hooks
        self.config = config
        self.host = host
        self._requested_port = port
        self._started = False
        self._lock = threading.Lock()

        # O11 / O10 / O12 feature objects (null objects or None when
        # disabled).
        self.tracer = (FlightRecorder(name="tracer")
                       if config.debug_mode else None)
        self.log = ServerLog() if config.logging else NULL_LOG
        self.registry = MetricsRegistry() if config.profiling else NULL_REGISTRY
        self.profiler = (Profiler(registry=self.registry)
                         if config.profiling else NULL_PROFILER)
        self.spans = (SpanRecorder(self.registry, tracer=self.tracer)
                      if config.profiling else NULL_SPANS)

        # O6: file cache.
        self.cache: Optional[FileCache] = None
        if config.cache_policy is not None:
            if config.document_root is not None:
                self.cache = FileCache.for_directory(
                    config.document_root, capacity=config.cache_capacity,
                    policy=config.cache_policy)
            else:
                self.cache = FileCache(capacity=config.cache_capacity,
                                       policy=config.cache_policy)
            if config.profiling:
                self.profiler.attach_cache(self.cache.stats)

        # Event source chain (Decorator): sockets -> timers -> app queue.
        self.socket_source = SocketEventSource()
        self.timer_source = TimerEventSource(self.socket_source)
        self.app_source = QueueEventSource(self.timer_source)
        self.source = self.app_source

        self.container = Container()

        # O8: event queue flavour for the reactive Event Processor.
        if config.event_scheduling:
            queue = QuotaPriorityQueue(config.scheduling_quotas or {})
        else:
            queue = FifoEventQueue()

        # O2/O5: the reactive Event Processor (or inline handling).
        self.processor: Optional[EventProcessor] = None
        self.controller: Optional[ProcessorController] = None
        if config.use_processor_pool:
            self.processor = EventProcessor(
                handler=self._process_event,
                threads=config.processor_threads,
                queue=queue,
                name="reactive",
            )
            if config.dynamic_threads:
                self.controller = ProcessorController(
                    self.processor,
                    min_threads=1,
                    max_threads=max(config.processor_threads * 4, 4),
                )

        # O9: overload controller watching the reactive queue.
        self.overload: Optional[OverloadController] = None
        if config.overload_control or config.max_connections is not None:
            self.overload = OverloadController(
                max_connections=config.max_connections)
            if config.overload_control and self.processor is not None:
                self.overload.watch(
                    "reactive",
                    probe=lambda: self.processor.queue_length,
                    mark=Watermark(high=config.overload_high,
                                   low=config.overload_low),
                )

        # O4: asynchronous completions (emulated non-blocking file I/O).
        self.file_io: Optional[AsyncFileIO] = None
        if config.async_completions:
            sink = (self.processor.submit if self.processor is not None
                    else self._process_event)
            self.file_io = AsyncFileIO(
                sink=sink,
                threads=config.file_io_threads,
                cache=self.cache,
                root=config.document_root,
            )

        # O7: idle-connection reaper.
        self.reaper: Optional[IdleConnectionReaper] = None
        if config.shutdown_long_idle:
            self.reaper = IdleConnectionReaper(
                idle_limit=config.idle_limit,
                on_idle=self._reap_connection,
            )

        self.listen: Optional[ListenHandle] = None
        self.acceptor: Optional[Acceptor] = None
        self.dispatcher = EventDispatcher(
            self.source,
            threads=config.dispatcher_threads,
            profiler=self.profiler if config.profiling else None,
        )

    # -- wiring ---------------------------------------------------------
    @property
    def port(self) -> int:
        if self.listen is None:
            raise RuntimeError("server not started")
        return self.listen.port

    def _make_communicator(self, handle) -> Communicator:
        conn = Communicator(
            handle,
            self.hooks,
            use_codec=self.config.use_codec,
            on_teardown=self._on_teardown,
            update_interest=self._update_interest,
            profiler=self.profiler,
            tracer=self.tracer,
            log=self.log,
            spans=self.spans,
        )
        conn.context["server"] = self
        self.container.add(conn)
        if self.reaper is not None:
            self.reaper.watch(handle)
        return conn

    def _update_interest(self, handle) -> None:
        self.socket_source.update_interest(handle)
        self.socket_source.wakeup()

    def _on_teardown(self, conn: Communicator) -> None:
        self.container.remove(conn)
        self.socket_source.deregister(conn.handle)
        if self.reaper is not None:
            self.reaper.unwatch(conn.handle)
        if self.overload is not None:
            self.overload.connection_closed()

    def _reap_connection(self, handle) -> None:
        conn = self.container.lookup(handle)
        if conn is not None:
            self.log.info(f"reaping idle connection {handle.name}")
            conn.close()

    # -- event processing -------------------------------------------------
    def _process_event(self, event) -> None:
        """Reactive Event Processor handler: socket readiness and
        asynchronous completions meet here."""
        if event.kind == EventKind.READABLE:
            try:
                self.container.route_readable(event)
            finally:
                if self.processor is not None:
                    self.socket_source.resume(event.handle)
        elif event.kind == EventKind.WRITABLE:
            self.container.route_writable(event)
        elif event.kind == EventKind.COMPLETION:
            event.complete()

    def _submit(self, event) -> None:
        if self.processor is not None:
            # One-shot read interest: no duplicate events while queued and
            # no two processor threads on the same connection.
            if event.kind == EventKind.READABLE:
                self.socket_source.pause(event.handle)
            if self.config.event_scheduling:
                conn = self.container.lookup(event.handle)
                if conn is not None:
                    event.priority = conn.priority
            self.processor.submit(event)
        else:
            self._process_event(event)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
        self.listen = ListenHandle(self.host, self._requested_port)
        self.acceptor = Acceptor(
            self.listen,
            self.socket_source,
            on_connection=self._make_communicator,
            overload=self.overload,
            profiler=self.profiler,
        )
        self.dispatcher.route(EventKind.ACCEPT, self.acceptor.handle)
        self.acceptor.open()
        self.dispatcher.route(EventKind.READABLE, self._submit)
        self.dispatcher.route(EventKind.WRITABLE, self._submit)
        self.dispatcher.route(EventKind.COMPLETION, self._submit)
        if self.processor is not None:
            self.processor.start()
        if self.controller is not None:
            self.controller.start()
        if self.file_io is not None:
            self.file_io.start()
        if self.reaper is not None:
            self.reaper.start()
        self.dispatcher.start()
        self.log.info(f"server listening on {self.host}:{self.port}")

    def stop(self) -> None:
        with self._lock:
            if not self._started:
                return
            self._started = False
        self.dispatcher.stop()
        if self.acceptor is not None:
            self.acceptor.close()
        self.container.close_all()
        if self.controller is not None:
            self.controller.stop()
        if self.processor is not None:
            self.processor.stop()
        if self.file_io is not None:
            self.file_io.stop()
        if self.reaper is not None:
            self.reaper.stop()
        self.source.close()
        self.log.info("server stopped")

    def __enter__(self) -> "ReactorServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

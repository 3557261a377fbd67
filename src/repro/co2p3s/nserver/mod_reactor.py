"""N-Server template: the ``reactor`` and ``server`` modules.

Table 2 rows covered:

========  =========================================================
Reactor   body depends on O1 O2 O4 O5 O6 O8 O9 O10 O11 O12 O13 O14
          O15 O17 O18 (NOT O3 — step handlers are installed by the
          handlers module's ``install_step_handlers``; NOT O7 — idle
          wiring lives in ServerComponent / ServerEventHandler /
          Container)
Server    body depends on O3, O13 (the ``drain`` facade method), O14
          (delegation to the Sharding component) and O16 (delegation
          to the Deployment component, plus the ``rolling_restart``
          facade)
========  =========================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec

__all__ = ["MODULE_REACTOR", "MODULE_SERVER"]


def _o(key):
    return lambda o: bool(o[key])


def _no(key):
    return lambda o: not o[key]


def _debug(o):
    return o["O10"] == "Debug"


def _async(o):
    return o["O4"] == "Asynchronous"


def _sync(o):
    return o["O4"] == "Synchronous"


def _sharded(o):
    return int(o["O14"]) > 1


def _multiproc(o):
    return int(o["O16"]) > 1


def _zerocopy(o):
    return o["O15"] == "zerocopy"


def _epoll(o):
    return o["O18"] == "epoll"


MODULE_REACTOR = ModuleSpec(
    name="reactor",
    doc="Central wiring of the generated framework: the extended Reactor "
        "with Event Source decorators, Event Processors and the feature "
        "subsystems selected by the template options.",
    imports=[
        Fragment("import time"),
        Fragment("import os",
                 guard=lambda o: o["O1"] == "2N" or (
                     o["O4"] == "Synchronous" and o["O6"] is None),
                 options=("O1", "O4", "O6")),
        Fragment("from repro import runtime as rt"),
        Fragment("from $package import handlers"),
        Fragment("from $package.communication import ("
                 "AcceptorEventHandler, ApplicationEventHandler, "
                 "ClientComponent, ConnectorEventHandler, "
                 "ContainerComponent, ServerComponent, ServerEventHandler)"),
        Fragment("from $package.processing import EventDispatcher, EventProcessor"),
        Fragment("from $package.processing import ProcessorController",
                 guard=lambda o: o["O2"] and o["O5"] == "Dynamic",
                 options=("O2", "O5")),
        Fragment("from $package.cache import Cache",
                 guard=lambda o: o["O6"] is not None, options=("O6",)),
        Fragment("from $package.buffers import Buffers",
                 guard=_zerocopy, options=("O15",)),
        Fragment("from $package.observability import Observability",
                 guard=_o("O11"), options=("O11",)),
        Fragment("from $package.resilience import Resilience",
                 guard=_o("O13"), options=("O13",)),
        Fragment("from $package.degradation import Degradation",
                 guard=_o("O17"), options=("O17",)),
        Fragment("from $package.poller import Poller",
                 guard=_epoll, options=("O18",)),
    ],
    classes=[
        ClassSpec(
            name="Reactor",
            doc="Specialised, extended Reactor: event demultiplexing and "
                "dispatching for a network server, with support for "
                "multiple event sources and multiple processors.",
            fragments=[
                # -- construction ------------------------------------------
                Fragment(
                    '''
                    def __init__(self, configuration, hooks$reactor_init_params):
                        self.configuration = configuration
                        self.hooks = hooks
                        $reactor_set_shard_id
                        self.clock = time.monotonic
                        $make_tracer
                        $make_log
                        $make_observability
                        $make_profiler
                        $make_poller_component
                        self.socket_source = rt.SocketEventSource($socket_source_args)
                        self.timer_source = rt.TimerEventSource(self.socket_source)
                        self.source = rt.QueueEventSource(self.timer_source)
                        self.container = ContainerComponent(self)
                        $make_cache
                        $make_buffers
                        $make_processor
                        $make_controller
                        $make_overload
                        $watch_overload
                        $make_degradation
                        $make_file_io
                        handlers.install_step_handlers(self)
                        self.acceptor_event_handler = AcceptorEventHandler(self)
                        self.server_event_handler = ServerEventHandler(self)
                        self.application_event_handler = ApplicationEventHandler(self)
                        self.connector_event_handler = ConnectorEventHandler(self)
                        self.client_component = ClientComponent(self)
                        self.server_component = ServerComponent(self, configuration$reactor_server_component_args)
                        self.dispatcher = EventDispatcher(self, threads=$dispatcher_threads_expr)
                        $enable_dispatch_profiling
                        $enable_cache_profiling
                        $wire_processor_error_trace
                        $wire_observability
                        $make_resilience
                    ''',
                    # $make_resilience comes last so EventQuarantine.attach
                    # chains (not clobbers) the Debug-mode error_hook.
                    # $make_degradation sits between the overload
                    # controller it upgrades and the file I/O it breaks.
                    options=("O1", "O2", "O4", "O5", "O6", "O8", "O9",
                             "O10", "O11", "O12", "O13", "O14", "O15",
                             "O17", "O18"),
                ),
                # -- connection plumbing -------------------------------------
                Fragment(
                    '''
                    def register_communicator(self, conn):
                        self.container.add(conn)
                        self.socket_source.register(conn.handle)
                        $deadline_watch

                    def sync_interest(self, handle):
                        self.socket_source.update_interest(handle)
                        self.socket_source.wakeup()
                    ''',
                    options=("O13",),
                ),
                Fragment(
                    '''
                    def teardown_communicator(self, conn):
                        self.container.remove(conn)
                        self.socket_source.deregister(conn.handle)
                        $deadline_unwatch
                        $teardown_overload
                        $teardown_log
                    ''',
                    options=("O9", "O12", "O13"),
                ),
                # -- event submission (O2=Yes: hand off to the pool) ----------
                Fragment(
                    '''
                    def submit_readable(self, event):
                        # One-shot read interest: no duplicate events while
                        # queued, no two workers on one connection.
                        self.socket_source.pause(event.handle)
                        $stamp_readable_priority
                        $submit_call

                    def submit_writable(self, event):
                        $stamp_writable_priority
                        $submit_call
                    ''',
                    guard=_o("O2"), options=("O2", "O8"),
                ),
                Fragment(
                    '''
                    def submit_completion(self, event):
                        $submit_call
                    ''',
                    guard=lambda o: o["O2"] and o["O4"] == "Asynchronous",
                    options=("O2", "O4", "O8"),
                ),
                Fragment(
                    '''
                    def _connection_priority(self, handle):
                        conn = self.container.lookup(handle)
                        return conn.priority if conn is not None else 0
                    ''',
                    guard=lambda o: o["O2"] and o["O8"],
                    options=("O2", "O8"),
                ),
                # -- event processing (pool handler / inline fallthrough) -----
                Fragment(
                    '''
                    def process_event(self, event):
                        kind = event.kind
                        if kind == rt.EventKind.READABLE:
                            try:
                                self.read_request_event_handler.handle(event)
                            finally:
                                self.socket_source.resume(event.handle)
                        elif kind == rt.EventKind.WRITABLE:
                            self.send_reply_event_handler.handle(event)
                        else:
                            self.process_other(event)
                    ''',
                    options=("O2",),
                ),
                Fragment(
                    '''
                    def process_other(self, event):
                        if event.kind == rt.EventKind.COMPLETION:
                            event.complete()
                    ''',
                    guard=_async, options=("O4",),
                ),
                Fragment(
                    '''
                    def process_other(self, event):
                        # Completion events are synchronous: nothing besides
                        # readiness events reaches the processing path.
                        pass
                    ''',
                    guard=_sync, options=("O4",),
                ),
                # -- file access services ---------------------------------------
                Fragment(
                    '''
                    def read_file_async(self, path, act, priority=0):
                        """Emulated non-blocking file read (Proactor/ACT)."""
                        self.file_io.read_file(path, act=act, priority=priority)
                    ''',
                    guard=_async, options=("O4",),
                ),
                Fragment(
                    '''
                    def read_file_sync(self, path):
                        """Blocking file read through the generated cache."""
                        return self.cache.get_file(path).payload
                    ''',
                    guard=lambda o: o["O4"] == "Synchronous" and o["O6"] is not None,
                    options=("O4", "O6"),
                ),
                Fragment(
                    '''
                    def read_file_sync(self, path):
                        """Blocking, uncached file read."""
                        root = self.configuration.document_root
                        if root is None:
                            raise FileNotFoundError(path)
                        full = os.path.abspath(os.path.join(root, path.lstrip("/")))
                        if not full.startswith(os.path.abspath(root)):
                            raise FileNotFoundError(path)
                        with open(full, "rb") as fh:
                            return fh.read()
                    ''',
                    guard=lambda o: o["O4"] == "Synchronous" and o["O6"] is None,
                    options=("O4", "O6"),
                ),
                # -- lifecycle ----------------------------------------------------
                Fragment(
                    '''
                    def start(self$reactor_start_params):
                        $open_server_component
                        $start_processor
                        $start_controller
                        $start_file_io
                        $start_resilience
                        $start_degradation
                        self.dispatcher.start()
                        $log_started

                    def stop(self):
                        $stop_degradation
                        self.dispatcher.stop()
                        self.server_component.close()
                        self.container.close_all()
                        $stop_resilience
                        $stop_controller
                        $stop_processor
                        $stop_file_io
                        self.source.close()
                        $final_obs_sample
                        $log_stopped
                    ''',
                    # Resilience stops before the processor so a dead
                    # worker is not respawned into a stopping pool; the
                    # adaptive control loop stops before anything else so
                    # it never retunes a dismantling server.
                    options=("O2", "O4", "O5", "O11", "O12", "O13", "O14",
                             "O17"),
                ),
                Fragment(
                    '''
                    def drain(self, timeout=None):
                        """Graceful shutdown: stop accepting, let accepted
                        work finish up to the deadline, then force-stop.
                        Returns True if the server went quiescent."""
                        if timeout is None:
                            timeout = self.configuration.drain_timeout
                        $log_drain
                        self.server_component.close()
                        deadline = self.clock() + timeout
                        drained = False
                        settle = None
                        while self.clock() < deadline:
                            if self.resilience.quiescent():
                                # Hold quiescent briefly: a reply fully
                                # flushed may still spawn a final event.
                                if settle is None:
                                    settle = self.clock()
                                elif self.clock() - settle >= 0.05:
                                    drained = True
                                    break
                            else:
                                settle = None
                            time.sleep(0.005)
                        self.stop()
                        return drained
                    ''',
                    guard=_o("O13"), options=("O13", "O12"),
                ),
            ],
        ),
    ],
)


MODULE_SERVER = ModuleSpec(
    name="server",
    doc="The generated Server facade: the class application code "
        "instantiates.",
    imports=[
        Fragment("from $package.communication import ServerConfiguration"),
        Fragment("from $package.reactor import Reactor",
                 guard=lambda o: not _sharded(o) and not _multiproc(o),
                 options=("O14", "O16")),
        Fragment("from $package.sharding import Sharding",
                 guard=lambda o: _sharded(o) and not _multiproc(o),
                 options=("O14", "O16")),
        Fragment("from $package.deployment import Deployment",
                 guard=_multiproc, options=("O16",)),
    ],
    classes=[
        ClassSpec(
            name="Server",
            doc="Facade over the generated framework.  Applications provide "
                "only the hook methods (decode / handle / encode, framing, "
                "and lifecycle callbacks) — the paper's programming model.",
            fragments=[
                Fragment(
                    '''
                    pipeline = $server_pipeline
                    ''',
                    options=("O3",),
                ),
                Fragment(
                    '''
                    def __init__(self, hooks, configuration=None,
                                 host="127.0.0.1", port=0):
                        if configuration is None:
                            configuration = ServerConfiguration(host=host, port=port)
                        self.configuration = configuration
                        self.hooks = hooks
                        $server_make_reactor
                        $server_bind_primary

                    @property
                    def port(self):
                        return $server_port_expr

                    def start(self):
                        $server_start_call

                    def stop(self):
                        $server_stop_call

                    def connect(self, client_configuration):
                        """Open an outbound connection through the framework."""
                        $server_connect_body

                    def __enter__(self):
                        self.start()
                        return self

                    def __exit__(self, *exc_info):
                        self.stop()
                    ''',
                    options=("O14", "O16"),
                ),
                Fragment(
                    '''
                    def drain(self, timeout=None):
                        """Gracefully drain in-flight work, then stop."""
                        $server_drain_call
                    ''',
                    guard=_o("O13"), options=("O13", "O14", "O16"),
                ),
                Fragment(
                    '''
                    def rolling_restart(self, drain_timeout=None):
                        """Replace every worker process with a fresh one,
                        zero downtime (option O16): each successor
                        accepts on the shared socket before its
                        predecessor drains."""
                        self.deployment.rolling_restart(drain_timeout)
                    ''',
                    guard=_multiproc, options=("O16",),
                ),
            ],
        ),
    ],
)

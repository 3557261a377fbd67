"""Event-driven server runtime: the library layer generated N-Server
frameworks import.

Synthesises the four patterns from section II of the paper: Reactor
(readiness selection + dispatch), Proactor and Asynchronous Completion
Tokens (emulated non-blocking file I/O), and Acceptor-Connector
(connection establishment).  Feature subsystems map to template options:
scheduler (O8), overload (O9), profiling (O11), logging (O12),
idle (O7).
"""

from repro.obs.flight import FlightRecorder
from repro.runtime.acceptor import Acceptor, Connector
from repro.runtime.buffers import (
    BufferPool,
    BufferPoolStats,
    OutBuffer,
    PooledBuffer,
    segment_bytes,
)
from repro.runtime.communicator import CLOSE, PENDING, Communicator, ServerHooks
from repro.runtime.container import Container
from repro.runtime.degradation import (
    AdaptiveController,
    BrownoutController,
    CircuitBreaker,
    CircuitOpenError,
    ClientRateLimiter,
    RetryBudget,
    ShedDecision,
    SheddingPolicy,
    SojournQueue,
    TokenBucket,
    hill_climb,
    reject_handle,
    rejection_response,
)
from repro.runtime.deployment import (
    STATS_SOCKET_ENV,
    ProcessSupervisor,
    adopted_listen_socket,
    cluster_status_fields,
    generated_worker,
    generated_worker_args,
    in_worker_process,
    worker_listen_handle,
)
from repro.runtime.dispatcher import EventDispatcher
from repro.runtime.event_source import (
    EventSource,
    EventSourceDecorator,
    NullEventSource,
    QueueEventSource,
    SocketEventSource,
    TimerEventSource,
)
from repro.runtime.events import (
    AcceptEvent,
    AsynchronousCompletionToken,
    CompletionEvent,
    ConnectEvent,
    Event,
    EventKind,
    FileOpenEvent,
    FileReadEvent,
    ReadableEvent,
    TimerEvent,
    UserEvent,
    WritableEvent,
)
from repro.runtime.file_io import AsyncFileIO
from repro.runtime.handles import FileHandle, Handle, ListenHandle, SocketHandle
from repro.runtime.idle import IdleConnectionReaper
from repro.runtime.overload import OverloadController, Watermark
from repro.runtime.poller import (
    EpollPoller,
    Poller,
    SelectPoller,
    available_pollers,
    make_poller,
    pinned_poller,
)
from repro.runtime.processor import EventProcessor, ProcessorController
from repro.runtime.profiling import NULL_PROFILER, NullProfiler, Profiler, ServerProfile
from repro.runtime.resilience import (
    DeadlineMonitor,
    DeadlinePolicy,
    EventQuarantine,
    WorkerSupervisor,
    is_transient_accept_error,
)
from repro.runtime.scheduler import FifoEventQueue, QuotaPriorityQueue
from repro.runtime.server import ReactorServer, RuntimeConfig
from repro.runtime.sharding import (
    ConnectionHashPolicy,
    LeastConnectionsPolicy,
    RoundRobinPolicy,
    ShardPolicy,
    make_shard_policy,
)
from repro.runtime.timerwheel import TimerWheel
from repro.runtime.tracing import NULL_LOG, NullLog, ServerLog

__all__ = [
    "Acceptor",
    "AcceptEvent",
    "AdaptiveController",
    "AsyncFileIO",
    "AsynchronousCompletionToken",
    "BrownoutController",
    "BufferPool",
    "BufferPoolStats",
    "CLOSE",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClientRateLimiter",
    "Communicator",
    "CompletionEvent",
    "ConnectEvent",
    "ConnectionHashPolicy",
    "Connector",
    "Container",
    "DeadlineMonitor",
    "DeadlinePolicy",
    "EpollPoller",
    "Event",
    "EventDispatcher",
    "EventKind",
    "EventProcessor",
    "EventQuarantine",
    "EventSource",
    "EventSourceDecorator",
    "FifoEventQueue",
    "FileHandle",
    "FileOpenEvent",
    "FileReadEvent",
    "FlightRecorder",
    "Handle",
    "IdleConnectionReaper",
    "LeastConnectionsPolicy",
    "ListenHandle",
    "NULL_LOG",
    "NULL_PROFILER",
    "NullEventSource",
    "NullLog",
    "NullProfiler",
    "OutBuffer",
    "OverloadController",
    "PENDING",
    "Poller",
    "PooledBuffer",
    "ProcessSupervisor",
    "ProcessorController",
    "Profiler",
    "QueueEventSource",
    "QuotaPriorityQueue",
    "ReactorServer",
    "ReadableEvent",
    "RetryBudget",
    "RoundRobinPolicy",
    "RuntimeConfig",
    "SelectPoller",
    "ServerHooks",
    "ServerLog",
    "ServerProfile",
    "ShardPolicy",
    "ShedDecision",
    "SheddingPolicy",
    "STATS_SOCKET_ENV",
    "SocketEventSource",
    "SocketHandle",
    "SojournQueue",
    "TimerEvent",
    "TimerEventSource",
    "TimerWheel",
    "TokenBucket",
    "UserEvent",
    "Watermark",
    "WorkerSupervisor",
    "WritableEvent",
    "adopted_listen_socket",
    "available_pollers",
    "cluster_status_fields",
    "generated_worker",
    "generated_worker_args",
    "hill_climb",
    "in_worker_process",
    "is_transient_accept_error",
    "make_poller",
    "make_shard_policy",
    "pinned_poller",
    "reject_handle",
    "rejection_response",
    "segment_bytes",
    "worker_listen_handle",
]

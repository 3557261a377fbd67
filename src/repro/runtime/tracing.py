"""Application logging (option O12).

:class:`ServerLog` is a minimal severity-tagged logger; the generated
handlers call it only when the template generated those call sites.
O10=Debug event tracing has no class of its own: a debug build records
into a :class:`~repro.obs.flight.FlightRecorder` (its ``tracer``).
"""

from __future__ import annotations

import threading
import time
from typing import IO, Optional

__all__ = ["ServerLog", "NullLog", "NULL_LOG"]


class ServerLog:
    """Tiny severity logger (option O12)."""

    enabled = True
    LEVELS = ("debug", "info", "warning", "error")

    def __init__(self, sink: Optional[IO[str]] = None, level: str = "info",
                 clock=time.monotonic):
        if level not in self.LEVELS:
            raise ValueError(f"unknown level {level!r}")
        self._sink = sink
        self._threshold = self.LEVELS.index(level)
        self._clock = clock
        self._lock = threading.Lock()
        self.lines: list = []

    def log(self, level: str, message: str) -> None:
        if self.LEVELS.index(level) < self._threshold:
            return
        line = f"{self._clock():.3f} {level.upper():8s} {message}"
        with self._lock:
            self.lines.append(line)
            if self._sink is not None:
                self._sink.write(line + "\n")

    def debug(self, message: str) -> None:
        self.log("debug", message)

    def info(self, message: str) -> None:
        self.log("info", message)

    def warning(self, message: str) -> None:
        self.log("warning", message)

    def error(self, message: str) -> None:
        self.log("error", message)


class NullLog(ServerLog):
    enabled = False

    def __init__(self):
        self.lines = []

    def log(self, level: str, message: str) -> None:
        pass


NULL_LOG = NullLog()

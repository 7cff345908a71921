"""Structured, trace-id-correlated logging for every layer of the stack.

One schema, everywhere.  Each line is a single JSON object::

    {"ts": 1722945600.123, "level": "info", "component": "server",
     "event": "request", "trace_id": "91c4a0723bd84b1f",
     "path": "/api/search", "status": 200, "elapsed_ms": 3.21}

``ts``/``level``/``component``/``event`` are always present; ``trace_id``
is present whenever the emitting code runs inside a request context (the
server binds the request's trace id before touching the engine, so engine
and cache log lines correlate with the ``X-Trace-Id`` response header and
the exported span stream for free).  Everything else is event-specific.

Logging is **off by default** — ``src/`` emits nothing until either

* the ``REPRO_LOG_LEVEL`` environment variable is set (``debug``/``info``/
  ``warning``/``error``), which auto-configures JSON output to stderr on
  first use, or
* :func:`configure_logging` is called explicitly (``xksearch serve
  --log-json`` does).

Built on the stdlib ``logging`` package under the ``"repro"`` namespace
(``propagate`` off, ``NullHandler`` by default), so applications embedding
the library can install their own handlers instead.
"""

from __future__ import annotations

import contextvars
import io
import json
import logging
import os
import sys
import threading
import time
from typing import Any, Optional

#: Environment variable controlling the log level (debug/info/warning/error).
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

_ROOT_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "warn": logging.WARNING,
    "error": logging.ERROR,
    "off": logging.CRITICAL + 10,
    "none": logging.CRITICAL + 10,
}

# The per-context (per request thread) trace id every log line picks up.
_trace_id: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace_id", default=None
)

_configure_lock = threading.Lock()
_configured = False


def set_current_trace_id(trace_id: Optional[str]):
    """Bind *trace_id* to the current context; returns a reset token."""
    return _trace_id.set(trace_id)


def reset_current_trace_id(token) -> None:
    """Undo a :func:`set_current_trace_id` (request teardown)."""
    _trace_id.reset(token)


def current_trace_id() -> Optional[str]:
    """The trace id bound to the current context, if any."""
    return _trace_id.get()


def parse_level(name: Optional[str]) -> Optional[int]:
    """``"info"`` → ``logging.INFO``; None/unknown → None."""
    if not name:
        return None
    return _LEVELS.get(str(name).strip().lower())


class JsonLogFormatter(logging.Formatter):
    """Renders a record produced by :class:`ComponentLogger` as one JSON line."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname.lower(),
            "component": getattr(record, "component", record.name),
            "event": getattr(record, "event", record.getMessage()),
        }
        trace_id = getattr(record, "trace_id", None)
        if trace_id is not None:
            payload["trace_id"] = trace_id
        payload.update(getattr(record, "fields", {}))
        return json.dumps(payload, default=str, separators=(",", ":"))


class TextLogFormatter(logging.Formatter):
    """Human-oriented ``ts level component event k=v …`` rendering."""

    def format(self, record: logging.LogRecord) -> str:
        parts = [
            time.strftime("%H:%M:%S", time.localtime(record.created)),
            record.levelname.lower(),
            getattr(record, "component", record.name),
            getattr(record, "event", record.getMessage()),
        ]
        trace_id = getattr(record, "trace_id", None)
        if trace_id is not None:
            parts.append(f"trace_id={trace_id}")
        for key, value in getattr(record, "fields", {}).items():
            parts.append(f"{key}={value}")
        return " ".join(parts)


def _root() -> logging.Logger:
    logger = logging.getLogger(_ROOT_NAME)
    if not logger.handlers:
        logger.addHandler(logging.NullHandler())
        logger.propagate = False
        logger.setLevel(logging.WARNING)
    return logger


def configure_logging(
    level: Optional[str] = None,
    json_mode: bool = True,
    stream: Optional[io.TextIOBase] = None,
    force: bool = True,
) -> logging.Logger:
    """Install a handler on the ``repro`` logger and set its level.

    ``level`` defaults to ``REPRO_LOG_LEVEL`` (then ``info``).  With
    ``force`` the previous handler is replaced; without it an
    already-configured logger is left alone (the auto-configure path).
    Returns the root ``repro`` logger.
    """
    global _configured
    with _configure_lock:
        logger = _root()
        if _configured and not force:
            return logger
        resolved = parse_level(level)
        if resolved is None:
            resolved = parse_level(os.environ.get(LOG_LEVEL_ENV))
        if resolved is None:
            resolved = logging.INFO
        handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
        handler.setFormatter(JsonLogFormatter() if json_mode else TextLogFormatter())
        for old in [h for h in logger.handlers if not isinstance(h, logging.NullHandler)]:
            logger.removeHandler(old)
        logger.addHandler(handler)
        logger.setLevel(resolved)
        _configured = True
        return logger


def logging_configured() -> bool:
    return _configured


def reset_logging() -> None:
    """Return to the unconfigured (silent) state — tests only."""
    global _configured
    with _configure_lock:
        logger = _root()
        for old in [h for h in logger.handlers if not isinstance(h, logging.NullHandler)]:
            logger.removeHandler(old)
        logger.setLevel(logging.WARNING)
        _configured = False


def _auto_configure() -> None:
    """First-use hook: honor ``REPRO_LOG_LEVEL`` without an explicit call."""
    if _configured:
        return
    if os.environ.get(LOG_LEVEL_ENV):
        configure_logging(force=False)


class ComponentLogger:
    """A named source of structured events (``get_logger("engine")``).

    ``logger.info("query", algorithm="il", band="10-99", exec_ms=1.2)``
    emits one schema-conforming line; the current context's trace id is
    attached automatically.  ``enabled_for`` lets hot paths skip building
    field dicts entirely.
    """

    __slots__ = ("component", "_logger")

    def __init__(self, component: str):
        self.component = component
        self._logger = logging.getLogger(f"{_ROOT_NAME}.{component}")

    def enabled_for(self, level: str) -> bool:
        _auto_configure()
        resolved = parse_level(level)
        return self._logger.isEnabledFor(resolved if resolved is not None else logging.INFO)

    def _emit(self, level: int, event: str, fields: dict) -> None:
        _auto_configure()
        if not self._logger.isEnabledFor(level):
            return
        self._logger.log(
            level,
            event,
            extra={
                "component": self.component,
                "event": event,
                "trace_id": current_trace_id(),
                "fields": fields,
            },
        )

    def debug(self, event: str, **fields: Any) -> None:
        self._emit(logging.DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._emit(logging.INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit(logging.WARNING, event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._emit(logging.ERROR, event, fields)


def get_logger(component: str) -> ComponentLogger:
    """The structured logger for one component (``server``, ``engine``, …)."""
    _root()  # ensure the namespace is initialized (NullHandler, no propagate)
    return ComponentLogger(component)

"""Structured logging: one JSON schema, level control, trace-id context.

Every line must carry ``ts``/``level``/``component``/``event``; the
``trace_id`` rides along whenever the context variable is bound (the
server binds it per request).  Unconfigured logging emits nothing.
"""

import io
import json
import logging as stdlib_logging

import pytest

from repro.obs.logging import (
    LOG_LEVEL_ENV,
    JsonLogFormatter,
    TextLogFormatter,
    configure_logging,
    current_trace_id,
    get_logger,
    logging_configured,
    parse_level,
    reset_current_trace_id,
    reset_logging,
    set_current_trace_id,
)


@pytest.fixture(autouse=True)
def clean_logging_state(monkeypatch):
    monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
    reset_logging()
    yield
    reset_logging()


def capture(level="info", json_mode=True):
    stream = io.StringIO()
    configure_logging(level=level, json_mode=json_mode, stream=stream)
    return stream


def lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestSchema:
    def test_one_json_object_per_line_with_required_keys(self):
        stream = capture()
        log = get_logger("engine")
        log.info("query_executed", algorithm="il", exec_ms=1.25)
        (record,) = lines(stream)
        assert record["level"] == "info"
        assert record["component"] == "engine"
        assert record["event"] == "query_executed"
        assert record["algorithm"] == "il"
        assert record["exec_ms"] == 1.25
        assert isinstance(record["ts"], float)

    def test_trace_id_attached_from_context(self):
        stream = capture()
        log = get_logger("server")
        token = set_current_trace_id("aaaabbbbccccdddd")
        try:
            log.info("request", path="/api/search")
        finally:
            reset_current_trace_id(token)
        log.info("request", path="/api/search")
        first, second = lines(stream)
        assert first["trace_id"] == "aaaabbbbccccdddd"
        assert "trace_id" not in second

    def test_context_reset_restores_previous_binding(self):
        outer = set_current_trace_id("0000000000000001")
        inner = set_current_trace_id("0000000000000002")
        assert current_trace_id() == "0000000000000002"
        reset_current_trace_id(inner)
        assert current_trace_id() == "0000000000000001"
        reset_current_trace_id(outer)
        assert current_trace_id() is None

    def test_non_serializable_fields_are_stringified(self):
        stream = capture()
        get_logger("test").info("event", value=object())
        (record,) = lines(stream)
        assert isinstance(record["value"], str)

    def test_text_mode_renders_key_values(self):
        stream = io.StringIO()
        configure_logging(level="info", json_mode=False, stream=stream)
        get_logger("cache").info("invalidated", generation=3)
        line = stream.getvalue().strip()
        assert "cache" in line and "invalidated" in line and "generation=3" in line


class TestLevels:
    def test_parse_level(self):
        assert parse_level("info") == stdlib_logging.INFO
        assert parse_level("WARNING") == stdlib_logging.WARNING
        assert parse_level("nope") is None
        assert parse_level(None) is None

    def test_below_threshold_is_suppressed(self):
        stream = capture(level="warning")
        log = get_logger("engine")
        log.debug("noisy")
        log.info("still_noisy")
        log.warning("kept")
        records = lines(stream)
        assert [r["event"] for r in records] == ["kept"]
        assert records[0]["level"] == "warning"

    def test_enabled_for_gates_hot_paths(self):
        capture(level="warning")
        log = get_logger("engine")
        assert not log.enabled_for("debug")
        assert log.enabled_for("error")


class TestConfiguration:
    def test_unconfigured_logging_is_silent(self, capsys):
        get_logger("engine").info("event")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert not logging_configured()

    def test_env_variable_auto_configures(self, monkeypatch, capsys):
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        get_logger("engine").debug("auto_configured")
        assert logging_configured()
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["event"] == "auto_configured"

    def test_env_level_respected_by_explicit_configure(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "error")
        stream = io.StringIO()
        configure_logging(stream=stream)  # no explicit level -> env wins
        log = get_logger("engine")
        log.warning("dropped")
        log.error("kept")
        assert [r["event"] for r in lines(stream)] == ["kept"]

    def test_reconfigure_replaces_handler(self):
        first = capture()
        second = capture()
        get_logger("engine").info("event")
        assert first.getvalue() == ""
        assert lines(second)


class TestFormatters:
    def _record(self, **extra):
        record = stdlib_logging.LogRecord(
            "repro.test", stdlib_logging.INFO, __file__, 1, "msg", (), None
        )
        for key, value in extra.items():
            setattr(record, key, value)
        return record

    def test_json_formatter_compact_separators(self):
        line = JsonLogFormatter().format(
            self._record(component="c", event="e", trace_id=None, fields={"k": 1})
        )
        assert ", " not in line and ": " not in line
        assert json.loads(line)["k"] == 1

    def test_text_formatter_includes_trace_id_when_bound(self):
        line = TextLogFormatter().format(
            self._record(
                component="c", event="e", trace_id="aaaabbbbccccdddd", fields={}
            )
        )
        assert "trace_id=aaaabbbbccccdddd" in line

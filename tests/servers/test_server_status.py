"""Integration tests: the /server-status surface over a real socket.

An O11=Yes COPS-HTTP build answers with live metrics (Apache
``mod_status`` shapes in ``?auto`` mode, HTML otherwise); the default
O11=No build — whose generated framework contains no observability code
at all — answers 404 from the very same hook code.
"""

import pytest

from harness import http_get
from repro.co2p3s.nserver import COPS_HTTP_OBSERVABILITY_OPTIONS
from repro.servers import build_cops_http


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    root = tmp_path_factory.mktemp("site")
    (root / "index.html").write_bytes(b"<html>front page</html>")
    return root


@pytest.fixture(scope="module")
def server(site, tmp_path_factory):
    server, fw, report = build_cops_http(
        str(site), options=COPS_HTTP_OBSERVABILITY_OPTIONS,
        dest=str(tmp_path_factory.mktemp("fw_o11")), package="o11_fw")
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def plain_server(site, tmp_path_factory):
    server, fw, report = build_cops_http(
        str(site), dest=str(tmp_path_factory.mktemp("fw_plain")),
        package="plain_fw")
    server.start()
    yield server
    server.stop()


def fields_of(body: bytes) -> dict:
    out = {}
    for line in body.decode().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def test_status_auto_reports_live_counters(server):
    # Generate some traffic first so the counters are non-zero.
    for _ in range(3):
        resp = http_get(server.port,
                        b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
        assert b"200 OK" in resp
    resp = http_get(server.port,
                    b"GET /server-status?auto HTTP/1.1\r\nHost: x\r\n\r\n")
    head, _, body = resp.partition(b"\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 200 OK")
    assert b"Content-Type: text/plain" in head
    fields = fields_of(body)
    assert float(fields["Uptime"]) > 0
    assert int(fields["Total Accesses"]) >= 3
    assert int(fields["Total Connections"]) >= 3
    assert int(fields["server_bytes_sent_total"]) > 0
    # Sampled gauges: queue depth, pool size, cache hit rate.
    assert "server_queue_depth" in fields
    assert "server_pool_threads" in fields
    assert 0.0 <= float(fields["server_cache_hit_rate"]) <= 1.0
    # Per-stage latency quantiles from the request spans.
    for stage in ("decode", "handle", "encode"):
        key = 'server_request_stage_seconds{stage="%s"}' % stage
        assert int(fields[f"{key}-count"]) >= 3
        assert float(fields[f"{key}-p50"]) <= float(fields[f"{key}-p99"])
    assert int(fields["server_request_seconds-count"]) >= 3


def test_status_html_mode(server):
    resp = http_get(server.port,
                    b"GET /server-status HTTP/1.1\r\nHost: x\r\n\r\n")
    head, _, body = resp.partition(b"\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 200 OK")
    assert b"Content-Type: text/html" in head
    assert body.startswith(b"<!DOCTYPE html>")
    assert b"Total Accesses" in body


def test_status_head_request(server):
    resp = http_get(server.port,
                    b"HEAD /server-status?auto HTTP/1.1\r\nHost: x\r\n\r\n")
    head, _, body = resp.partition(b"\r\n\r\n")
    assert b"200 OK" in head
    assert body == b""


def test_status_counters_advance_between_scrapes(server):
    first = fields_of(http_get(
        server.port,
        b"GET /server-status?auto HTTP/1.1\r\nHost: x\r\n\r\n"
    ).partition(b"\r\n\r\n")[2])
    http_get(server.port, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    second = fields_of(http_get(
        server.port,
        b"GET /server-status?auto HTTP/1.1\r\nHost: x\r\n\r\n"
    ).partition(b"\r\n\r\n")[2])
    assert int(second["Total Accesses"]) > int(first["Total Accesses"])


def test_status_observability_object_backs_the_page(server):
    obs = server.reactor.observability
    assert obs.registry.value("server_requests_total") > 0
    assert "server_requests_total" in obs.prometheus()


def test_status_trace_lists_recent_request_spans(server):
    for _ in range(2):
        assert b"200 OK" in http_get(
            server.port, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    resp = http_get(server.port,
                    b"GET /server-status?trace HTTP/1.1\r\nHost: x\r\n\r\n")
    head, _, body = resp.partition(b"\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 200 OK")
    assert b"Content-Type: text/plain" in head
    text = body.decode()
    lines = text.splitlines()
    assert lines[0].startswith("Traces: ")
    assert int(lines[0].split(": ")[1]) >= 2
    # Every span line names its trace and carries the stage timings.
    span_lines = [line for line in lines[1:] if line]
    assert span_lines
    for line in span_lines:
        assert line.startswith("trace=")
        assert "total=" in line
    assert any("decode=" in line and "handle=" in line
               and "encode=" in line for line in span_lines)


def test_status_trace_ids_match_the_exporter(server):
    http_get(server.port, b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    resp = http_get(server.port,
                    b"GET /server-status?trace HTTP/1.1\r\nHost: x\r\n\r\n")
    body = resp.partition(b"\r\n\r\n")[2].decode()
    page_ids = {line.split()[0].removeprefix("trace=")
                for line in body.splitlines() if line.startswith("trace=")}
    exporter = server.reactor.observability.exporter
    exported = {f"{record['trace_id']:016x}"
                for record in exporter.records()}
    # The page renders the exporter's ring (modulo spans finishing
    # between the two reads): everything shown was really exported.
    assert page_ids <= exported
    assert page_ids


def test_plain_build_answers_404(plain_server):
    assert not hasattr(plain_server.reactor, "observability")
    resp = http_get(plain_server.port,
                    b"GET /server-status?auto HTTP/1.1\r\nHost: x\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 404")
    resp = http_get(plain_server.port,
                    b"GET /server-status?trace HTTP/1.1\r\nHost: x\r\n\r\n")
    assert resp.startswith(b"HTTP/1.1 404")
    # The regular document tree is untouched by the status route.
    resp = http_get(plain_server.port,
                    b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n")
    assert b"front page" in resp

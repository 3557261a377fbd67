"""Exposition tests: Prometheus golden output and the mod_status page."""

from repro.obs import (
    MetricsRegistry,
    merge_status_fields,
    render_prometheus,
    render_status_auto,
    render_status_html,
    status_fields,
)


def make_registry():
    reg = MetricsRegistry()
    reg.counter("server_requests_total", "Requests handled").inc(10)
    reg.counter("server_connections_accepted_total",
                "Connections accepted").inc(4)
    reg.gauge("server_open_connections", "Open connections").set(2)
    reg.counter("server_bytes_sent_total", "Bytes sent").inc(2048)
    hist = reg.histogram("rt_seconds", "Latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    return reg


# -- Prometheus text format ---------------------------------------------------


def test_prometheus_golden():
    assert render_prometheus(make_registry()) == (
        "# HELP server_requests_total Requests handled\n"
        "# TYPE server_requests_total counter\n"
        "server_requests_total 10\n"
        "# HELP server_connections_accepted_total Connections accepted\n"
        "# TYPE server_connections_accepted_total counter\n"
        "server_connections_accepted_total 4\n"
        "# HELP server_open_connections Open connections\n"
        "# TYPE server_open_connections gauge\n"
        "server_open_connections 2\n"
        "# HELP server_bytes_sent_total Bytes sent\n"
        "# TYPE server_bytes_sent_total counter\n"
        "server_bytes_sent_total 2048\n"
        "# HELP rt_seconds Latency\n"
        "# TYPE rt_seconds histogram\n"
        'rt_seconds_bucket{le="0.1"} 1\n'
        'rt_seconds_bucket{le="1"} 2\n'
        'rt_seconds_bucket{le="+Inf"} 2\n'
        "rt_seconds_sum 0.55\n"
        "rt_seconds_count 2\n"
    )


def test_prometheus_labeled_histogram():
    reg = MetricsRegistry()
    fam = reg.histogram("stage_seconds", "Stage latency",
                        labels=("stage",), buckets=(0.1,))
    fam.labels(stage="decode").observe(0.05)
    text = render_prometheus(reg)
    assert 'stage_seconds_bucket{stage="decode",le="0.1"} 1' in text
    assert 'stage_seconds_bucket{stage="decode",le="+Inf"} 1' in text
    assert 'stage_seconds_count{stage="decode"} 1' in text


def test_prometheus_empty_registry():
    assert render_prometheus(MetricsRegistry()) == "\n"


# -- mod_status fields --------------------------------------------------------


def test_status_fields_apache_block_first():
    fields = status_fields(make_registry(), uptime=10.0)
    keys = [k for k, _ in fields]
    assert keys[:5] == ["Uptime", "Total Accesses", "Total Connections",
                        "BusyWorkers", "Total kBytes"]
    by_key = dict(fields)
    assert by_key["Uptime"] == "10.000"
    assert by_key["Total Accesses"] == "10"
    assert by_key["Total Connections"] == "4"
    assert by_key["BusyWorkers"] == "2"
    assert by_key["Total kBytes"] == "2"          # 2048 bytes
    assert by_key["ReqPerSec"] == "1.000"
    assert by_key["BytesPerSec"] == "204.8"


def test_status_fields_raw_metrics_and_quantiles():
    by_key = dict(status_fields(make_registry(), uptime=10.0))
    assert by_key["server_requests_total"] == "10"
    assert by_key["rt_seconds-count"] == "2"
    for q in ("p50", "p90", "p99"):
        assert 0.05 <= float(by_key[f"rt_seconds-{q}"]) <= 0.5


def test_status_fields_without_uptime():
    keys = [k for k, _ in status_fields(make_registry())]
    assert "Uptime" not in keys
    assert "ReqPerSec" not in keys
    assert "Total Accesses" in keys


def test_render_status_auto_format():
    text = render_status_auto([("Uptime", "10.0"), ("Total Accesses", "10")])
    assert text == "Uptime: 10.0\nTotal Accesses: 10\n"


def test_render_status_html():
    html = render_status_html([("Total Accesses", "10"), ("a<b", "x&y")])
    assert html.startswith("<!DOCTYPE html>")
    assert "<tr><td>Total Accesses</td><td>10</td></tr>" in html
    assert "a&lt;b" in html and "x&amp;y" in html      # escaped
    assert "N-Server Status" in html


# -- merging shard / worker sections ------------------------------------------


#: two hand-built sections shaped like status_fields() output
SECTION_A = [
    ("Uptime", "5.000"),
    ("Total Accesses", "10"),
    ("ReqPerSec", "2.000"),
    ("server_requests_total", "10"),
    ("server_bytes_sent_total", "2048"),
    ("server_cache_hit_rate", "0.5"),
    ("server_request_stage_seconds{stage=\"read\"}", "3"),
    ("server_queue_depth", "NaN"),
    ("server_mode", "busy"),
    ("rt_seconds-count", "4"),
    ("rt_seconds-p50", "0.100000"),
    ("rt_seconds{stage=\"read\"}-p99", "0.200000"),
]
SECTION_B = [
    ("Uptime", "6.000"),
    ("Total Accesses", "30"),
    ("server_requests_total", "30"),
    ("server_bytes_sent_total", "1024"),
    ("server_cache_hit_rate", "1.0"),
    ("server_request_stage_seconds{stage=\"read\"}", "5"),
    ("server_queue_depth", "7"),
    ("rt_seconds-count", "6"),
    ("rt_seconds-p50", "0.300000"),
]


def test_merge_sums_scalars_and_averages_rates():
    fields = dict(merge_status_fields(
        [(0, SECTION_A), (1, SECTION_B)], "shard", uptime=10.0))
    assert fields["server_requests_total"] == "40"
    assert fields["server_request_stage_seconds{stage=\"read\"}"] == "8"
    assert fields["server_cache_hit_rate"] == "0.75"
    # the Apache block is recomputed over the sums, not summed
    assert fields["Uptime"] == "10.000"
    assert fields["Total Accesses"] == "40"
    assert fields["Total kBytes"] == "3"
    assert fields["ReqPerSec"] == "4.000"
    assert fields["Shards"] == "2"


def test_merge_keeps_histogram_and_derived_fields_per_section():
    fields = dict(merge_status_fields(
        [(0, SECTION_A), (1, SECTION_B)], "shard"))
    for key in ("rt_seconds-count", "rt_seconds-p50",
                "rt_seconds{stage=\"read\"}-p99"):
        assert key not in fields
    assert fields['rt_seconds{shard="0"}-count'] == "4"
    assert fields['rt_seconds{shard="1"}-count'] == "6"
    assert fields['rt_seconds{shard="1"}-p50'] == "0.300000"
    assert fields['rt_seconds{stage="read",shard="0"}-p99'] == "0.200000"
    # no uptime given: no Uptime or rate line in the aggregate, and a
    # section's own Apache-derived copies never reappear re-labelled
    assert "Uptime" not in fields and "ReqPerSec" not in fields
    assert not [key for key in fields
                if key.startswith(("Uptime{", "Total Accesses{",
                                   "ReqPerSec{"))]


def test_merge_relabels_inside_existing_braces():
    fields = dict(merge_status_fields(
        [(0, SECTION_A), (1, SECTION_B)], "shard"))
    assert fields['server_requests_total{shard="1"}'] == "30"
    assert fields['server_request_stage_seconds{stage="read",shard="0"}'] \
        == "3"
    # a worker's sections carry shard labels already: worker composes
    sharded = merge_status_fields([(0, SECTION_A), (1, SECTION_B)], "shard")
    cluster = dict(merge_status_fields([(4242, sharded)], "worker"))
    assert cluster['server_requests_total{shard="1",worker="4242"}'] \
        == "30"
    assert cluster['Shards{worker="4242"}'] == "2"
    assert cluster["Workers"] == "1"


def test_merge_skips_non_numeric_and_nan_values():
    fields = dict(merge_status_fields(
        [(0, SECTION_A), (1, SECTION_B)], "worker"))
    assert "server_mode" not in fields
    assert fields['server_mode{worker="0"}'] == "busy"
    # NaN in one section does not poison the sum of the others
    assert fields["server_queue_depth"] == "7"
    assert fields['server_queue_depth{worker="0"}'] == "NaN"


def test_merge_emits_every_key_once():
    sections = [(0, SECTION_A), (1, SECTION_B), (2, SECTION_A)]
    for label in ("shard", "worker"):
        keys = [key for key, _value in merge_status_fields(
            sections, label, uptime=1.0)]
        assert len(keys) == len(set(keys)), label

"""End-to-end daemon tests over real HTTP (loopback, ephemeral ports)."""

import http.client
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.analysis import analyze, prepare
from repro.serve import AnalysisServer, ServeClient
from repro.serve.engine import load_kernel
from repro.serve.protocol import (
    BadRequest,
    JobNotFound,
    ParseFailure,
    QueueFull,
    RequestTimeout,
    SERVE_SCHEMA,
    UnknownKernel,
    parse_cache_spec,
    report_doc,
)


@pytest.fixture()
def server():
    with AnalysisServer(port=0, dispatchers=2).start() as srv:
        yield srv


@pytest.fixture()
def client(server):
    return ServeClient(server.url, timeout=30.0)


def post_raw(url, path, body: bytes):
    """POST arbitrary bytes; returns (status, parsed JSON body)."""
    req = urllib.request.Request(
        url + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_analyze_bit_identical_to_offline(client):
    resp = client.analyze(
        {"kernel": "hydro", "size": 16, "cache": "4:32:2", "method": "find"}
    )
    assert resp["status"] == "ok" and resp["schema"] == SERVE_SCHEMA
    offline = analyze(
        prepare(load_kernel("hydro", 16)),
        parse_cache_spec("4:32:2"),
        method="find",
    )
    assert resp["report"] == report_doc(offline)


def test_v1_document_with_backend_field_answers_identically(client):
    """Older v1 clients may still send ``backend``; like any unknown
    field it is ignored, and the report is byte-identical."""
    doc = {"kernel": "hydro", "size": 16, "cache": "4:32:2", "method": "find"}
    plain = json.dumps(client.analyze(doc)["report"], sort_keys=True)
    for backend in ("scalar", "numpy"):
        resp = client.analyze({**doc, "backend": backend})
        assert resp["status"] == "ok" and resp["schema"] == SERVE_SCHEMA
        assert json.dumps(resp["report"], sort_keys=True) == plain


def test_repeat_request_hits_shared_memo(client):
    doc = {"kernel": "mmt", "size": 12, "cache": "2:32:1", "method": "find"}
    cold = client.analyze(doc)
    warm = client.analyze(doc)
    assert warm["report"] == cold["report"]
    assert cold["server"]["memo"]["misses"] > 0
    assert warm["server"]["memo"]["misses"] == 0
    assert warm["server"]["memo"]["hits"] > 0


def test_batch_and_job_polling(client):
    resp = client.batch(
        [
            {"kernel": "hydro", "size": 12, "cache": "4:32:2"},
            {"kernel": "mgrid", "size": 8, "cache": "4:32:2", "method": "find"},
            {"kernel": "nope", "cache": "4:32:2"},
        ]
    )
    jobs = resp["jobs"]
    assert len(jobs) == 3
    for entry in jobs[:2]:
        final = client.wait(entry["id"], timeout=30.0)
        assert final["status"] == "done"
        assert final["result"]["report"]["totals"]["accesses"] > 0
    # The bad kernel is admitted (validation passes) but fails at solve
    # time with the typed error, visible through polling.
    failed = client.wait(jobs[2]["id"], timeout=30.0)
    assert failed["status"] == "error"
    assert failed["error"]["code"] == "unknown_kernel"


def test_healthz_reports_version_and_schemas(client):
    doc = client.healthz()
    assert doc["status"] == "ok"
    assert len(doc["fingerprint"]) == 16
    assert doc["schemas"]["serve"] == SERVE_SCHEMA
    assert doc["uptime_seconds"] >= 0.0


def test_metrics_counts_requests_and_memo(client):
    client.analyze({"kernel": "hydro", "size": 12, "cache": "4:32:2"})
    client.analyze({"kernel": "hydro", "size": 12, "cache": "4:32:2"})
    metrics = client.metrics()
    assert metrics["requests"]["requests"] >= 2
    assert metrics["requests"]["completed"] >= 2
    assert metrics["latency_seconds"]["count"] >= 2
    assert metrics["latency_seconds"]["p99"] >= metrics["latency_seconds"]["p50"]
    assert metrics["memo"]["hits"] > 0  # the repeat replayed


def post_with_length(url, path, length: str, body: bytes):
    """POST ``body`` under a verbatim ``Content-Length`` header."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def test_malformed_json_is_400_bad_json(server):
    status, doc = post_raw(server.url, "/v1/analyze", b"{not json")
    assert status == 400
    assert doc["error"]["code"] == "bad_json"
    for length in ("abc", "1e3", "-5", "0"):
        status, doc = post_with_length(server.url, "/v1/analyze", length, b"{}")
        assert status == 400, length
        assert doc["error"]["code"] == "bad_json", length


def test_malformed_batch_body(server):
    status, doc = post_raw(server.url, "/v1/batch", b'{"requests": 7}')
    assert status == 400
    assert doc["error"]["code"] == "bad_json"


def test_unknown_kernel_is_404(client):
    with pytest.raises(UnknownKernel):
        client.analyze({"kernel": "quantum", "cache": "4:32:2"})


def test_bad_field_is_400(client):
    with pytest.raises(BadRequest):
        client.analyze({"kernel": "hydro", "cache": "4:32:2", "method": "guess"})


def test_parse_error_is_422(client):
    with pytest.raises(ParseFailure):
        client.analyze({"source": "not fortran (", "cache": "4:32:2"})


def test_out_of_range_kernel_size_is_422(server):
    """``mmt`` at size 2 has a zero tile step (``size // 4``): the builder
    rejects it as outside the analysable model, not as a server fault."""
    body = {"kernel": "mmt", "size": 2, "cache": "4:32:2", "method": "find"}
    status, doc = post_raw(server.url, "/v1/analyze", json.dumps(body).encode())
    assert status == 422
    assert doc["error"]["code"] == "not_analysable"
    assert "step must be a non-zero integer" in doc["error"]["message"]


#: Cache geometries whose size or set count overflow the int64 addresses
#: and int32 set numbers the solvers and the simulator index with.
OVERSIZED_CACHES = [
    "99999999999999999999:32:1",
    "9007199254740992:32:1",
    "8388608:1:1",
    {"size_bytes": 2**63, "line_bytes": 32, "assoc": 1},
]


@pytest.mark.parametrize("cache", OVERSIZED_CACHES, ids=str)
@pytest.mark.parametrize("method", ["find", "estimate", "regions"])
def test_oversized_cache_geometry_is_400(server, cache, method):
    body = {"kernel": "hydro", "size": 8, "cache": cache, "method": method}
    status, doc = post_raw(server.url, "/v1/analyze", json.dumps(body).encode())
    assert status == 400
    assert doc["error"]["code"] == "bad_request"
    assert "too large" in doc["error"]["message"]


def test_unknown_job_is_404(client):
    with pytest.raises(JobNotFound):
        client.job("no-such-job")


def test_unknown_endpoint_is_typed(server):
    status, doc = post_raw(server.url, "/v1/nope", b"{}")
    assert status == 404
    assert doc["error"]["code"] == "job_not_found"


def test_queue_full_is_429():
    with AnalysisServer(port=0, queue_limit=0).start() as srv:
        client = ServeClient(srv.url, timeout=10.0)
        with pytest.raises(QueueFull):
            client.analyze({"kernel": "hydro", "size": 8, "cache": "4:32:2"})


def test_deadline_expiry_is_504(client):
    with pytest.raises(RequestTimeout):
        client.analyze(
            {
                "kernel": "hydro",
                "size": 32,
                "cache": "4:32:2",
                "method": "find",
                "timeout": 0.001,
            }
        )


def test_concurrent_mixed_clients_all_bit_identical(server):
    """8 concurrent requests from 4 clients, interleaved through one pool."""
    cases = [
        ("hydro", 14, "find", "4:32:2"),
        ("mgrid", 8, "find", "4:32:2"),
        ("mmt", 12, "estimate", "2:32:1"),
        ("hydro", 14, "regions", "4:32:4"),
    ] * 2
    results: dict[int, dict] = {}
    errors: list[Exception] = []

    def worker(i, kernel, size, method, cache):
        try:
            c = ServeClient(server.url, timeout=60.0)
            results[i] = c.analyze(
                {
                    "kernel": kernel,
                    "size": size,
                    "method": method,
                    "cache": cache,
                    "client": f"client-{i % 4}",
                }
            )
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i, *case))
        for i, case in enumerate(cases)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not errors
    assert len(results) == len(cases)
    for i, (kernel, size, method, cache) in enumerate(cases):
        offline = analyze(
            prepare(load_kernel(kernel, size)),
            parse_cache_spec(cache),
            method=method,
        )
        assert results[i]["report"] == report_doc(offline), cases[i]
    # The duplicated half of the workload must have hit the shared memo.
    assert server.memo.hits > 0

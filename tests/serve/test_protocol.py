"""Wire-schema tests: validation, error taxonomy, report serialisation."""

import json

import pytest

from repro.analysis import analyze, prepare
from repro.cme import METHODS
from repro.serve.engine import load_kernel
from repro.serve.protocol import (
    AnalyzeRequest,
    BadRequest,
    ERROR_CLASSES,
    JobNotFound,
    MalformedBody,
    NotAnalysable,
    ParseFailure,
    QueueFull,
    RequestTimeout,
    SERVE_SCHEMA,
    ServeError,
    UnknownKernel,
    error_doc,
    error_from_doc,
    parse_cache_spec,
    report_doc,
    validate_request,
    version_info,
)
from tests.fixtures import UNKNOWN_METHODS


def test_parse_cache_spec_string():
    cache = parse_cache_spec("4:32:2")
    assert (cache.size_bytes, cache.line_bytes, cache.assoc) == (4096, 32, 2)


def test_parse_cache_spec_mapping():
    cache = parse_cache_spec({"size_kb": 8, "line_bytes": 16, "assoc": 4})
    assert (cache.size_bytes, cache.line_bytes, cache.assoc) == (8192, 16, 4)
    cache = parse_cache_spec({"size_bytes": 2048, "line_bytes": 32})
    assert (cache.size_bytes, cache.assoc) == (2048, 1)


@pytest.mark.parametrize("bad", ["nope", "4:32", "a:b:c", 7, None, ["4", "32"]])
def test_parse_cache_spec_rejects(bad):
    with pytest.raises(BadRequest):
        parse_cache_spec(bad)


def test_validate_request_defaults():
    req = validate_request({"kernel": "hydro", "cache": "4:32:2"})
    assert req.kernel == "hydro"
    assert req.method == "estimate"
    assert req.confidence == 0.95 and req.width == 0.05 and req.seed == 0
    assert req.client == "anonymous"
    assert req.timeout == 60.0


def test_validate_request_roundtrips_doc():
    req = AnalyzeRequest(
        cache=parse_cache_spec("2:16:1"),
        kernel="mmt",
        size=24,
        method="find",
        seed=7,
        client="c1",
    )
    again = validate_request(req.doc())
    assert again == req


@pytest.mark.parametrize(
    "doc",
    [
        "not an object",
        {},  # neither kernel nor source
        {"kernel": "hydro"},  # no cache
        {"kernel": "hydro", "source": "X", "cache": "4:32:2"},  # both
        {"kernel": 7, "cache": "4:32:2"},
        {"kernel": "hydro", "cache": "4:32:2", "method": "guess"},
        {"kernel": "hydro", "cache": "4:32:2", "size": -3},
        {"kernel": "hydro", "cache": "4:32:2", "steps": 0},
        {"kernel": "hydro", "cache": "4:32:2", "confidence": 1.5},
        {"kernel": "hydro", "cache": "4:32:2", "width": 0.0},
        {"kernel": "hydro", "cache": "4:32:2", "seed": "x"},
        {"kernel": "hydro", "cache": "4:32:2", "backend": "cuda"},
        {"kernel": "hydro", "cache": "4:32:2", "timeout": -1},
        {"kernel": "hydro", "cache": "4:32:2", "timeout": True},
    ],
)
def test_validate_request_rejects(doc):
    with pytest.raises(BadRequest):
        validate_request(doc)


def test_validate_request_method_names():
    """The protocol accepts exactly the solver table's method names."""
    doc = {"kernel": "hydro", "cache": "4:32:2"}
    for method in METHODS:
        assert validate_request({**doc, "method": method}).method == method
    for method in UNKNOWN_METHODS:
        with pytest.raises(BadRequest, match="field 'method'"):
            validate_request({**doc, "method": method})


def test_error_taxonomy_codes_and_statuses():
    expectations = {
        ServeError: ("internal", 500),
        MalformedBody: ("bad_json", 400),
        BadRequest: ("bad_request", 400),
        UnknownKernel: ("unknown_kernel", 404),
        JobNotFound: ("job_not_found", 404),
        ParseFailure: ("parse_error", 422),
        NotAnalysable: ("not_analysable", 422),
        QueueFull: ("queue_full", 429),
        RequestTimeout: ("timeout", 504),
    }
    for cls, (code, status) in expectations.items():
        assert cls.code == code
        assert cls.http_status == status
        assert ERROR_CLASSES[code] is cls


def test_error_doc_roundtrip():
    exc = QueueFull("queue is full")
    doc = error_doc(exc)
    assert doc["schema"] == SERVE_SCHEMA
    assert doc["status"] == "error"
    again = error_from_doc(doc, exc.http_status)
    assert isinstance(again, QueueFull)
    assert str(again) == "queue is full"


def test_error_from_malformed_doc():
    exc = error_from_doc({"weird": True}, 503)
    assert isinstance(exc, ServeError)
    assert exc.http_status == 503


def test_report_doc_is_deterministic_and_json_safe():
    prepared = prepare(load_kernel("hydro", 16))
    cache = parse_cache_spec("4:32:2")
    a = report_doc(analyze(prepared, cache, method="find"))
    b = report_doc(analyze(prepared, cache, method="find", jobs=1))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["refs"] == sorted(a["refs"], key=lambda r: r["uid"])
    assert a["totals"]["accesses"] > 0


def test_version_info_shape():
    info = version_info()
    assert info["package"] == "repro"
    assert len(info["fingerprint"]) == 16
    assert int(info["fingerprint"], 16) >= 0
    assert info["schemas"]["serve"] == SERVE_SCHEMA
    assert set(info["schemas"]) == {"serve", "metrics", "ledger", "memo"}

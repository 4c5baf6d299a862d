"""The versioned ``repro.serve/v1`` wire schema.

Everything that crosses the HTTP boundary is defined here: the request
document and its typed validation, the error taxonomy with stable codes
and HTTP statuses, the deterministic report serialisation, and the
version/health document shared by ``repro-cache version`` and
``GET /v1/healthz``.

Error contract
--------------

Every failure a client can cause maps to a :class:`ServeError` subclass
with a stable ``code`` and ``http_status`` — never a stack trace in a
response body:

===============  ====  =============================================
code             HTTP  raised when
===============  ====  =============================================
``bad_json``     400   the request body is not valid JSON
``bad_request``  400   a field is missing, mistyped or out of range
``unknown_kernel`` 404 ``kernel`` names no builtin workload
``job_not_found``  404 ``GET /v1/jobs/<id>`` for an unknown id
``parse_error``  422   ``source`` fails the mini-FORTRAN frontend
``not_analysable`` 422 the program violates the paper's model
``queue_full``   429   the admission queue is at capacity
``timeout``      504   the request deadline expired (queued or solving)
``internal``     500   anything else (a server bug, still JSON-shaped)
===============  ====  =============================================

Determinism contract
--------------------

:func:`report_doc` serialises only classification outcomes (method, cache
geometry, per-reference tallies, derived totals) — never timings, job
counts or server metadata.  Two :class:`~repro.cme.result.MissReport`\\ s
that compare equal produce byte-identical documents, which is what lets
the tests assert daemon responses equal offline ``analyze`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.cme.solver import METHODS
from repro.errors import ReproError
from repro.layout.cache import CacheConfig

#: Wire schema version; bump on any change to request/response layouts.
SERVE_SCHEMA = "repro.serve/v1"

#: Default per-request deadline (seconds) when the client sends none.
DEFAULT_TIMEOUT = 60.0


# -- errors --------------------------------------------------------------------


class ServeError(ReproError):
    """Base of the service error taxonomy (code + HTTP status)."""

    code = "internal"
    http_status = 500


class MalformedBody(ServeError):
    """The request body is not parseable JSON."""

    code = "bad_json"
    http_status = 400


class BadRequest(ServeError):
    """A request field is missing, mistyped or out of range."""

    code = "bad_request"
    http_status = 400


class UnknownKernel(ServeError):
    """``kernel`` names no builtin workload."""

    code = "unknown_kernel"
    http_status = 404


class JobNotFound(ServeError):
    """A job id that the server does not know."""

    code = "job_not_found"
    http_status = 404


class ParseFailure(ServeError):
    """``source`` was rejected by the mini-FORTRAN frontend."""

    code = "parse_error"
    http_status = 422


class NotAnalysable(ServeError):
    """The program violates the paper's analysable model (Section 3)."""

    code = "not_analysable"
    http_status = 422


class QueueFull(ServeError):
    """The admission queue is at capacity; retry later."""

    code = "queue_full"
    http_status = 429


class RequestTimeout(ServeError):
    """The request deadline expired while queued or solving."""

    code = "timeout"
    http_status = 504


#: code -> exception class, for re-raising errors client-side.
ERROR_CLASSES: dict[str, type] = {
    cls.code: cls
    for cls in (
        ServeError,
        MalformedBody,
        BadRequest,
        UnknownKernel,
        JobNotFound,
        ParseFailure,
        NotAnalysable,
        QueueFull,
        RequestTimeout,
    )
}


def error_doc(exc: ServeError) -> dict:
    """The JSON body of an error response."""
    return {
        "schema": SERVE_SCHEMA,
        "status": "error",
        "error": {"code": exc.code, "message": str(exc)},
    }


def error_from_doc(doc: Mapping, http_status: int = 500) -> ServeError:
    """Rebuild the typed error of an error response (client side)."""
    err = doc.get("error") if isinstance(doc, Mapping) else None
    if not isinstance(err, Mapping):
        exc = ServeError(f"malformed error response (HTTP {http_status})")
        exc.http_status = http_status
        return exc
    cls = ERROR_CLASSES.get(err.get("code"), ServeError)
    return cls(str(err.get("message", "unknown error")))


# -- requests ------------------------------------------------------------------


@dataclass
class AnalyzeRequest:
    """One validated analysis request.

    Exactly one of ``kernel`` (builtin workload name), ``source``
    (mini-FORTRAN text) or ``program`` (an in-process
    :class:`~repro.ir.nodes.Program` — CLI/library use only, never set by
    :func:`validate_request`) identifies the program.
    """

    cache: CacheConfig
    kernel: Optional[str] = None
    source: Optional[str] = None
    program: Optional[object] = field(default=None, repr=False)
    size: Optional[int] = None
    steps: int = 2
    method: str = "estimate"
    confidence: float = 0.95
    width: float = 0.05
    seed: int = 0
    timeout: float = DEFAULT_TIMEOUT
    client: str = "anonymous"

    def doc(self) -> dict:
        """The wire document of this request (for clients and tests)."""
        doc: dict = {
            "cache": {
                "size_bytes": self.cache.size_bytes,
                "line_bytes": self.cache.line_bytes,
                "assoc": self.cache.assoc,
            },
            "method": self.method,
            "confidence": self.confidence,
            "width": self.width,
            "seed": self.seed,
            "steps": self.steps,
            "timeout": self.timeout,
            "client": self.client,
        }
        if self.kernel is not None:
            doc["kernel"] = self.kernel
        if self.source is not None:
            doc["source"] = self.source
        if self.size is not None:
            doc["size"] = self.size
        return doc


def parse_cache_spec(value: Union[str, Mapping]) -> CacheConfig:
    """A :class:`CacheConfig` from ``"KB:LINE:ASSOC"`` or a geometry dict."""
    if isinstance(value, str):
        try:
            size_kb, line, assoc = (int(p) for p in value.split(":"))
        except ValueError as exc:
            raise BadRequest(
                f"bad cache spec {value!r}: expected SIZE_KB:LINE_BYTES:ASSOC"
            ) from exc
        try:
            return CacheConfig(size_kb * 1024, line, assoc)
        except ValueError as exc:
            raise BadRequest(f"bad cache spec {value!r}: {exc}") from exc
    if isinstance(value, Mapping):
        try:
            size_bytes = value.get("size_bytes")
            if size_bytes is None:
                size_bytes = int(value["size_kb"]) * 1024
            return CacheConfig(
                int(size_bytes),
                int(value["line_bytes"]),
                int(value.get("assoc", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"bad cache geometry {value!r}: {exc}") from exc
    raise BadRequest(
        f"cache must be a 'KB:LINE:ASSOC' string or a geometry object, "
        f"got {type(value).__name__}"
    )


def _field(doc: Mapping, name: str, kind, default):
    """Typed scalar field access; a wrong type is a :class:`BadRequest`."""
    value = doc.get(name, default)
    if value is default:
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise BadRequest(
            f"field {name!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def validate_request(
    doc, default_timeout: float = DEFAULT_TIMEOUT
) -> AnalyzeRequest:
    """Validate one wire document into an :class:`AnalyzeRequest`.

    Every violation raises :class:`BadRequest` with a message naming the
    offending field — typed errors, never ``KeyError``/``TypeError``
    escaping into a 500.
    """
    if not isinstance(doc, Mapping):
        raise BadRequest(
            f"request must be a JSON object, got {type(doc).__name__}"
        )
    kernel = _field(doc, "kernel", str, None)
    source = _field(doc, "source", str, None)
    if (kernel is None) == (source is None):
        raise BadRequest("exactly one of 'kernel' or 'source' is required")
    if "cache" not in doc:
        raise BadRequest("field 'cache' is required")
    cache = parse_cache_spec(doc["cache"])
    method = _field(doc, "method", str, "estimate")
    if method not in METHODS:
        raise BadRequest(
            f"field 'method' must be one of {METHODS}, got {method!r}"
        )
    size = _field(doc, "size", int, None)
    if size is not None and size <= 0:
        raise BadRequest(f"field 'size' must be positive, got {size}")
    steps = _field(doc, "steps", int, 2)
    if steps <= 0:
        raise BadRequest(f"field 'steps' must be positive, got {steps}")
    confidence = _field(doc, "confidence", float, 0.95)
    if not 0.0 < confidence < 1.0:
        raise BadRequest(
            f"field 'confidence' must be in (0, 1), got {confidence}"
        )
    width = _field(doc, "width", float, 0.05)
    if not 0.0 < width < 1.0:
        raise BadRequest(f"field 'width' must be in (0, 1), got {width}")
    seed = _field(doc, "seed", int, 0)
    timeout = _field(doc, "timeout", float, float(default_timeout))
    # JSON bodies may spell NaN and Infinity; neither is a deadline.
    if not (math.isfinite(timeout) and timeout > 0.0):
        raise BadRequest(
            f"field 'timeout' must be positive and finite, got {timeout}"
        )
    client = _field(doc, "client", str, "anonymous")
    return AnalyzeRequest(
        cache=cache,
        kernel=kernel,
        source=source,
        size=size,
        steps=steps,
        method=method,
        confidence=confidence,
        width=width,
        seed=seed,
        timeout=timeout,
        client=client or "anonymous",
    )


# -- responses -----------------------------------------------------------------


def report_doc(report) -> dict:
    """Deterministic serialisation of a :class:`~repro.cme.result.MissReport`.

    Contains classifications only (no timings, jobs or metrics), with
    references sorted by uid — so equal reports serialise byte-identically
    no matter which process, job count or memo state produced
    them.
    """
    refs = [
        {
            "uid": r.ref_uid,
            "name": r.ref_name,
            "population": r.population,
            "analysed": r.analysed,
            "cold": r.cold,
            "replacement": r.replacement,
            "hits": r.hits,
        }
        for _, r in sorted(report.results.items())
    ]
    return {
        "method": report.method,
        "cache": {
            "size_bytes": report.cache.size_bytes,
            "line_bytes": report.cache.line_bytes,
            "assoc": report.cache.assoc,
        },
        "totals": {
            "accesses": report.total_accesses,
            "analysed": report.analysed_points,
            "misses": report.total_misses,
            "miss_ratio_percent": report.miss_ratio_percent,
        },
        "refs": refs,
    }


def version_info() -> dict:
    """Package version, code fingerprint and schema versions.

    The single source for ``repro-cache version`` and ``GET /v1/healthz``.
    The 16-hex ``fingerprint`` is the same prefix the memo store and the
    run ledger stamp into their headers — matching fingerprints mean
    matching solver code, so memoized results are interchangeable.
    """
    from repro import __version__
    from repro.memo.key import code_fingerprint
    from repro.memo.store import STORE_SCHEMA
    from repro.obs.export import SCHEMA as METRICS_SCHEMA
    from repro.obs.ledger import LEDGER_SCHEMA

    return {
        "package": "repro",
        "version": __version__,
        "fingerprint": code_fingerprint()[:16],
        "schemas": {
            "serve": SERVE_SCHEMA,
            "metrics": METRICS_SCHEMA,
            "ledger": LEDGER_SCHEMA,
            "memo": STORE_SCHEMA,
        },
    }

"""``repro.serve`` — analysis-as-a-service on the stdlib only.

The paper's pitch is that analytical CME solving is cheap enough to sit
inside interactive tools.  This package turns the library into a
long-running daemon that amortises every expensive substrate across
requests: one process-wide :class:`~repro.memo.Memoizer` dedups equation
systems *across* clients, one prepared-program LRU re-uses front-end work,
and a fixed set of dispatcher threads solves requests concurrently, each
request's per-reference units on the thread that took it.

Layers (all zero-dependency — ``http.server`` + ``json`` + ``urllib``):

* :mod:`repro.serve.protocol` — the versioned ``repro.serve/v1`` request/
  response schema, typed validation errors with stable HTTP codes, and the
  deterministic report serialisation (bit-identical to offline
  ``repro-cache analyze`` for the same inputs);
* :mod:`repro.serve.engine` — the reusable plan → solve → report engine
  API.  The CLI and the daemon share this one code path;
* :mod:`repro.serve.queue` — bounded admission queue with per-client
  round-robin fairness and request deadlines;
* :mod:`repro.serve.server` — the HTTP daemon (``POST /v1/analyze``,
  ``POST /v1/batch``, ``GET /v1/jobs/<id>``, ``GET /v1/healthz``,
  ``GET /v1/metrics``);
* :mod:`repro.serve.client` — the stdlib ``urllib`` client used by tests,
  ``repro-cache submit`` and the load generator.

Quickstart::

    from repro.serve import AnalysisServer, ServeClient

    with AnalysisServer(port=0, dispatchers=2).start() as server:
        client = ServeClient(server.url)
        doc = client.analyze({"kernel": "hydro", "size": 32,
                              "cache": "4:32:2", "method": "find"})
        print(doc["report"]["totals"]["miss_ratio_percent"])
"""

from repro.serve.client import ServeClient
from repro.serve.engine import AnalysisEngine, load_kernel, program_from_source
from repro.serve.protocol import (
    SERVE_SCHEMA,
    AnalyzeRequest,
    BadRequest,
    JobNotFound,
    MalformedBody,
    NotAnalysable,
    ParseFailure,
    QueueFull,
    RequestTimeout,
    ServeError,
    UnknownKernel,
    error_doc,
    error_from_doc,
    parse_cache_spec,
    report_doc,
    validate_request,
    version_info,
)
from repro.serve.queue import FairQueue, Job
from repro.serve.server import AnalysisServer, start_server

__all__ = [
    "SERVE_SCHEMA",
    "AnalysisEngine",
    "AnalysisServer",
    "AnalyzeRequest",
    "BadRequest",
    "FairQueue",
    "Job",
    "JobNotFound",
    "MalformedBody",
    "NotAnalysable",
    "ParseFailure",
    "QueueFull",
    "RequestTimeout",
    "ServeClient",
    "ServeError",
    "UnknownKernel",
    "error_doc",
    "error_from_doc",
    "load_kernel",
    "parse_cache_spec",
    "program_from_source",
    "report_doc",
    "start_server",
    "validate_request",
    "version_info",
]

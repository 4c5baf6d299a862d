"""The HTTP daemon: stdlib ``ThreadingHTTPServer`` over the shared engine.

Request flow::

    client ──POST /v1/analyze──► handler ──validate──► FairQueue
                                              │             │ round-robin
                                              ▼             ▼
                                        429 / 400     dispatcher thread
                                                            │
                                                   AnalysisEngine.run
                                                   (shared Memoizer)

Handlers run on ``ThreadingHTTPServer``'s per-connection threads; they
only validate, admit and wait.  All solving happens on ``dispatchers``
dispatcher threads, which pull jobs fairly across clients and solve each
job's per-reference units inline, one after another, on the thread that
took it — so at most ``dispatchers`` requests are solved at once.

Endpoints (all JSON, schema ``repro.serve/v1``):

* ``POST /v1/analyze`` — solve one request synchronously (within its
  deadline);
* ``POST /v1/batch`` — admit many requests, return their job ids;
* ``GET /v1/jobs/<id>`` — poll one job;
* ``GET /v1/healthz`` — liveness + version/fingerprint/schema info;
* ``GET /v1/metrics`` — counters, latency quantiles, memo tallies.
"""

from __future__ import annotations

import json
import logging
import statistics
import threading
import time
from collections import OrderedDict, deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro import obs
from repro.errors import ReproError
from repro.memo import Memoizer
from repro.serve.engine import AnalysisEngine
from repro.serve.protocol import (
    DEFAULT_TIMEOUT,
    JobNotFound,
    MalformedBody,
    RequestTimeout,
    SERVE_SCHEMA,
    ServeError,
    error_doc,
    report_doc,
    validate_request,
    version_info,
)
from repro.serve.queue import FairQueue, Job

log = logging.getLogger("repro.serve")

#: Completed jobs kept for ``GET /v1/jobs/<id>`` before eviction.
MAX_FINISHED_JOBS = 1024

#: Request latencies retained for the metrics quantiles.
MAX_LATENCIES = 4096

#: Maximum request body accepted (guards the JSON parser).
MAX_BODY_BYTES = 4 << 20


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[min(98, max(0, int(q * 100) - 1))]


class AnalysisServer:
    """The daemon: queue + dispatchers + shared engine + HTTP front end.

    ``port=0`` binds an ephemeral port (read :attr:`url` after
    :meth:`start`).  ``queue_limit`` bounds admission (429 past it);
    ``dispatchers`` is the number of concurrently-solving requests, the
    daemon's only thread count: each dispatcher solves its request's
    units itself.  ``workers`` is deprecated and ignored; it is accepted
    so existing callers keep working.  ``cache_dir`` makes the shared
    memoizer persistent; otherwise it is in-memory only (still deduping
    across requests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        dispatchers: int = 2,
        queue_limit: int = 64,
        cache_dir: Optional[str] = None,
        memo: Optional[Memoizer] = None,
        default_timeout: float = DEFAULT_TIMEOUT,
    ):
        if memo is None:
            memo = Memoizer.open(cache_dir) if cache_dir else Memoizer()
        self.memo = memo
        self.engine = AnalysisEngine(memo=memo)
        self.queue = FairQueue(capacity=queue_limit)
        self.default_timeout = default_timeout
        self._dispatcher_count = max(1, dispatchers)
        self._dispatcher_threads: list[threading.Thread] = []
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=MAX_LATENCIES)
        self._counts = {
            "requests": 0,
            "completed": 0,
            "errors": 0,
            "timeouts": 0,
            "rejected": 0,
        }
        self._started_at = time.monotonic()
        self._closed = False
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self
        self._http_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "AnalysisServer":
        """Serve in background threads; returns self (context manager)."""
        for i in range(self._dispatcher_count):
            t = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-serve-dispatch-{i}",
                daemon=True,
            )
            t.start()
            self._dispatcher_threads.append(t)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        log.info("serving on %s", self.url)
        return self

    def run(self) -> None:
        """Serve on the calling thread until interrupted (the CLI mode)."""
        self.start()
        try:
            while not self._closed:
                time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        self._httpd.shutdown()
        self._httpd.server_close()
        for t in self._dispatcher_threads:
            t.join(timeout=5.0)
        self.memo.flush()

    def __enter__(self) -> "AnalysisServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission (handler side) ----------------------------------------------

    def submit(self, doc) -> Job:
        """Validate + admit one request document; returns its job."""
        request = validate_request(doc, default_timeout=self.default_timeout)
        job = Job(request)
        with self._stats_lock:
            self._counts["requests"] += 1
        obs.counter("serve.requests").inc()
        try:
            self.queue.put(job)
        except ServeError:
            with self._stats_lock:
                self._counts["rejected"] += 1
            obs.counter("serve.rejected").inc()
            raise
        with self._jobs_lock:
            self._jobs[job.id] = job
            while len(self._jobs) > MAX_FINISHED_JOBS:
                oldest = next(iter(self._jobs.values()))
                if not oldest.done.is_set():
                    break  # never evict live jobs
                self._jobs.popitem(last=False)
        return job

    def job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"no such job: {job_id!r}")
        return job

    # -- dispatch (worker side) ------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            self.queue.drain_expired()
            job = self.queue.get(timeout=0.1)
            if job is None:
                if self._closed:
                    return
                continue
            self._dispatch(job)

    def _dispatch(self, job: Job) -> None:
        if job.expired:
            job.fail(
                RequestTimeout(
                    f"request expired after "
                    f"{job.request.timeout:.3f}s in the queue"
                )
            )
            self._note_finished(job)
            return
        job.start()
        try:
            report, info = self.engine.run(job.request, deadline=job.deadline)
            self.memo.flush()
        except ServeError as exc:
            job.fail(exc)
        except ReproError as exc:
            failure = ServeError(f"analysis failed: {exc}")
            job.fail(failure)
        except Exception as exc:  # a server bug — still a JSON error
            log.exception("dispatch failed for job %s", job.id)
            job.fail(ServeError(f"internal error: {exc}"))
        else:
            job.finish(
                {
                    "schema": SERVE_SCHEMA,
                    "status": "ok",
                    "job": job.id,
                    "report": report_doc(report),
                    "server": {
                        "queued_seconds": job.queued_seconds,
                        "solve_seconds": info["solve_seconds"],
                        "memo": info["memo"],
                    },
                }
            )
        self._note_finished(job)

    def _note_finished(self, job: Job) -> None:
        with self._stats_lock:
            if job.status == "done":
                self._counts["completed"] += 1
                self._latencies.append(job.elapsed_seconds)
            else:
                self._counts["errors"] += 1
                if isinstance(job.error, RequestTimeout):
                    self._counts["timeouts"] += 1
        obs.counter(
            "serve.completed" if job.status == "done" else "serve.errors"
        ).inc()

    # -- introspection ---------------------------------------------------------

    def healthz(self) -> dict:
        return {
            "schema": SERVE_SCHEMA,
            "status": "ok",
            **version_info(),
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self.queue.depth,
        }

    def metrics(self) -> dict:
        with self._stats_lock:
            counts = dict(self._counts)
            latencies = sorted(self._latencies)
        memo = self.memo
        return {
            "schema": SERVE_SCHEMA,
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self.queue.depth,
            "requests": counts,
            "latency_seconds": {
                "count": len(latencies),
                "p50": _quantile(latencies, 0.50),
                "p99": _quantile(latencies, 0.99),
            },
            "memo": {
                "hits": memo.hits,
                "misses": memo.misses,
                "groups": memo.groups,
                "store_hits": memo.store_hits,
                "persisted": memo.persisted,
            },
        }


class _Handler(BaseHTTPRequestHandler):
    """Route table + JSON plumbing; all state lives on ``server.app``."""

    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> AnalysisServer:
        return self.server.app

    def log_message(self, fmt, *args):  # route BaseHTTPServer noise to logging
        log.debug("%s - %s", self.address_string(), fmt % args)

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_doc(self, exc: ServeError) -> None:
        self._send_json(exc.http_status, error_doc(exc))

    def _read_json(self):
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:  # "abc", "1e3": not a byte count
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            raise MalformedBody(
                f"request body must be 1..{MAX_BODY_BYTES} bytes, "
                f"got Content-Length {header!r}"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise MalformedBody(f"request body is not valid JSON: {exc}")

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:
        try:
            if self.path == "/v1/healthz":
                self._send_json(200, self.app.healthz())
            elif self.path == "/v1/metrics":
                self._send_json(200, self.app.metrics())
            elif self.path.startswith("/v1/jobs/"):
                job = self.app.job(self.path[len("/v1/jobs/"):])
                self._send_json(200, job.to_doc())
            else:
                exc = JobNotFound(f"no such endpoint: GET {self.path}")
                self._send_error_doc(exc)
        except ServeError as exc:
            self._send_error_doc(exc)
        except Exception as exc:
            log.exception("GET %s failed", self.path)
            self._send_error_doc(ServeError(f"internal error: {exc}"))

    def do_POST(self) -> None:
        try:
            if self.path == "/v1/analyze":
                self._analyze()
            elif self.path == "/v1/batch":
                self._batch()
            else:
                exc = JobNotFound(f"no such endpoint: POST {self.path}")
                self._send_error_doc(exc)
        except ServeError as exc:
            self._send_error_doc(exc)
        except Exception as exc:
            log.exception("POST %s failed", self.path)
            self._send_error_doc(ServeError(f"internal error: {exc}"))

    def _analyze(self) -> None:
        """Synchronous solve: admit, wait (bounded by the deadline), reply."""
        doc = self._read_json()
        job = self.app.submit(doc)
        # Grace covers dispatcher handoff so the solver's own timeout
        # (precise, raised between units) is the one that usually fires.
        wait = job.request.timeout + 0.5
        if not job.done.wait(wait):
            self._send_error_doc(
                RequestTimeout(
                    f"no result within {job.request.timeout:.3f}s "
                    f"(job {job.id} still {job.status})"
                )
            )
            return
        if job.error is not None:
            self._send_error_doc(job.error)
        else:
            self._send_json(200, job.result)

    def _batch(self) -> None:
        """Asynchronous admission: one job id (or error) per request."""
        doc = self._read_json()
        if not isinstance(doc, dict) or not isinstance(
            doc.get("requests"), list
        ):
            raise MalformedBody("batch body must be {'requests': [...]}")
        jobs = []
        for item in doc["requests"]:
            try:
                job = self.app.submit(item)
                jobs.append({"id": job.id, "status": job.status})
            except ServeError as exc:
                jobs.append({"error": error_doc(exc)["error"]})
        self._send_json(
            200, {"schema": SERVE_SCHEMA, "status": "ok", "jobs": jobs}
        )


def start_server(**kwargs) -> AnalysisServer:
    """Create and start an :class:`AnalysisServer` in one call."""
    return AnalysisServer(**kwargs).start()

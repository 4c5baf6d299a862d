"""The reusable plan → solve → report engine behind the CLI and the daemon.

This module is the code-path split the service forces: *resolving* a
request to a prepared program, *planning* its per-reference work through a
(shared) memoizer, *solving* the plan, and *reporting* the result are now
one engine API instead of logic buried in ``repro-cache analyze``.

There is one solve path.  :meth:`AnalysisEngine.run` hands the request's
cached state to :func:`repro.cme.solver.solve_misses` — the loop behind
:func:`repro.analysis.analyze` — so a report is field-for-field identical
to an offline one.  The daemon runs it on the dispatcher thread that took
the request; ``repro-cache analyze`` runs it in the calling thread.  The
report carries the memo plan's own counts (``report.memo``), so
a request's ``store_hits`` never picks up another request's lookups.

Per analysis state — ``(program, cache geometry)`` — the engine
caches the prepared program, the reuse table and the classifier in LRU
maps, and serialises units of the *same* state behind a per-state lock
(classifiers keep internal caches that are not thread-safe); units of
*different* states run concurrently.  The request deadline is checked
before each unit.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.analysis import PreparedProgram, prepare
from repro.cme.backend import make_classifier
from repro.cme.result import MissReport
from repro.cme.solver import solve_misses, solver_for
from repro.errors import FrontendError, ReproError
from repro.ir.nodes import Program
from repro.serve.protocol import (
    AnalyzeRequest,
    BadRequest,
    NotAnalysable,
    ParseFailure,
    RequestTimeout,
    ServeError,
    UnknownKernel,
)

if TYPE_CHECKING:
    from repro.memo import Memoizer

#: Prepared programs kept in the engine's LRU (front-end work is cheap but
#: not free; a daemon sees the same few programs over and over).
MAX_PREPARED = 32

#: Classifier states kept per engine (one per program x cache).
MAX_STATES = 64


def load_kernel(name: str, size: Optional[int] = None, steps: int = 2) -> Program:
    """Build a builtin workload by name (the CLI's and the daemon's table).

    Raises :class:`UnknownKernel` for names outside the builtin set — the
    404 of the service, a ``SystemExit``-worthy message in the CLI.
    """
    from repro.kernels import build_hydro, build_mgrid, build_mmt
    from repro.programs import (
        build_applu_like,
        build_swim_like,
        build_tomcatv_like,
    )

    builders = {
        "hydro": lambda: build_hydro(size or 64, size or 64),
        "mgrid": lambda: build_mgrid(size or 20),
        "mmt": lambda: build_mmt(size or 48, (size or 48) // 2, (size or 48) // 4),
        "tomcatv": lambda: build_tomcatv_like(size or 48, steps),
        "swim": lambda: build_swim_like(size or 48, steps),
        "applu": lambda: build_applu_like(size or 24, steps),
    }
    builder = builders.get(name)
    if builder is None:
        raise UnknownKernel(
            f"unknown kernel {name!r}: use one of {sorted(builders)}"
        )
    return builder()


def program_from_source(source: str) -> Program:
    """Parse mini-FORTRAN ``source`` text into a :class:`Program`.

    Frontend rejections become :class:`ParseFailure` (HTTP 422) so a bad
    program is the client's typed error, never a server stack trace.
    """
    from repro.frontend import parse_program

    try:
        return parse_program(source)
    except FrontendError as exc:
        raise ParseFailure(f"source rejected by the frontend: {exc}") from exc


@dataclass
class _State:
    """One cached analysis state: prepared program + classifier + lock."""

    prepared: PreparedProgram
    cache: object  # CacheConfig
    reuse: object  # ReuseTable
    classifier: object
    #: Serialises the units of this state — classifiers carry internal
    #: caches that are not safe under concurrent classification.
    lock: threading.Lock = field(default_factory=threading.Lock)


class AnalysisEngine:
    """Plan → solve → report, with shared caches across requests.

    One engine owns (optionally) one :class:`~repro.memo.Memoizer` shared
    by *every* request it solves — the cross-request dedup that makes a
    warm daemon answer repeated systems without classifying anything.
    """

    def __init__(
        self,
        memo: Optional["Memoizer"] = None,
        max_prepared: int = MAX_PREPARED,
        max_states: int = MAX_STATES,
    ):
        self.memo = memo
        self._max_prepared = max_prepared
        self._max_states = max_states
        self._prepared: OrderedDict[str, PreparedProgram] = OrderedDict()
        self._states: OrderedDict[tuple, _State] = OrderedDict()
        self._lock = threading.RLock()

    # -- resolve ---------------------------------------------------------------

    def program_key(self, request: AnalyzeRequest) -> str:
        """A stable cache key for the request's program identity."""
        if request.program is not None:
            return f"obj:{id(request.program)}"
        if request.source is not None:
            digest = hashlib.sha256(request.source.encode()).hexdigest()[:16]
            return f"src:{digest}"
        return f"kernel:{request.kernel}:{request.size}:{request.steps}"

    def prepared_for(self, request: AnalyzeRequest) -> PreparedProgram:
        """The prepared program of ``request`` (LRU-cached).

        Model violations surfacing while the program is built, inlined or
        normalised — a builtin kernel's out-of-range size among them — map
        to :class:`NotAnalysable` (HTTP 422); the typed service errors
        (unknown kernel, parse failure, bad request) pass through.
        """
        key = self.program_key(request)
        with self._lock:
            prepared = self._prepared.get(key)
            if prepared is not None:
                self._prepared.move_to_end(key)
                return prepared
        try:
            if request.program is not None:
                program = request.program
            elif request.source is not None:
                program = program_from_source(request.source)
            else:
                program = load_kernel(request.kernel, request.size, request.steps)
            if not isinstance(program, Program):
                raise BadRequest(
                    f"request program must be a Program, "
                    f"got {type(program).__name__}"
                )
            prepared = prepare(program)
        except ServeError:
            raise
        except ReproError as exc:
            raise NotAnalysable(f"program cannot be analysed: {exc}") from exc
        with self._lock:
            self._prepared[key] = prepared
            while len(self._prepared) > self._max_prepared:
                self._prepared.popitem(last=False)
        return prepared

    def _state_for(self, request: AnalyzeRequest) -> _State:
        """The classifier state of ``(program, cache)`` (LRU)."""
        cache = request.cache
        key = (
            self.program_key(request),
            cache.size_bytes,
            cache.line_bytes,
            cache.assoc,
        )
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                self._states.move_to_end(key)
                return state
        prepared = self.prepared_for(request)
        with self._lock:
            # Re-check: another thread may have built it while we prepared.
            state = self._states.get(key)
            if state is None:
                reuse = prepared.reuse_table(cache.line_bytes)
                classifier = make_classifier(
                    prepared.nprog,
                    prepared.layout,
                    cache,
                    reuse,
                    prepared.walker,
                )
                state = _State(prepared, cache, reuse, classifier)
                self._states[key] = state
                while len(self._states) > self._max_states:
                    self._states.popitem(last=False)
        return state

    # -- solve -----------------------------------------------------------------

    def run(
        self,
        request: AnalyzeRequest,
        deadline: Optional[float] = None,
    ) -> tuple[MissReport, dict]:
        """Solve one request; returns ``(report, info)``.

        ``info`` carries per-request accounting — the memo plan's hits,
        misses and store hits, and solve wall time — without touching the
        report (whose serialisation must stay deterministic).
        ``deadline`` is an absolute monotonic time, checked before each
        unit; crossing it raises :class:`RequestTimeout`.  New memo
        solutions are left for the caller to flush.
        """
        started = time.perf_counter()
        self._check_deadline(deadline)
        solver = solver_for(
            request.method, request.confidence, request.width, request.seed
        )
        state = self._state_for(request)

        @contextmanager
        def unit_guard(ref):
            self._check_deadline(deadline, ref)
            with state.lock:
                yield

        report = solve_misses(
            solver,
            state.prepared.nprog,
            state.prepared.layout,
            state.cache,
            reuse=state.reuse,
            memo=self.memo,
            classifier=state.classifier,
            unit_guard=unit_guard,
        )
        info = {
            "memo": report.memo or {"hits": 0, "misses": 0, "store_hits": 0},
            "solve_seconds": time.perf_counter() - started,
        }
        return report, info

    @staticmethod
    def _check_deadline(deadline: Optional[float], ref=None) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            where = "solving" if ref is None else f"solving {ref.name()}"
            raise RequestTimeout(f"request deadline expired before {where}")

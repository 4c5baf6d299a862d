"""Exception hierarchy for the ``repro`` package.

The paper's program model (Section 3) excludes *data-dependent constructs*:
variable loop bounds, data-dependent IF conditionals, indirection arrays and
recursive calls.  Whenever the analyser meets one of these it raises a typed
error from this module so callers can either fix the input program or ask the
analyser to skip the offending construct.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class NonAffineError(ReproError):
    """An expression that must be affine in the loop indices is not.

    Raised for non-affine loop bounds, subscripts and IF conditions —
    the constructs the paper's program model rules out (Section 3).
    """


class NonAnalysableError(ReproError):
    """A construct is data dependent and cannot be analysed statically."""


class NonAnalysableCallError(NonAnalysableError):
    """A CALL statement has at least one non-analysable actual parameter.

    Corresponds to the "N-able" column of Table 2: the call cannot be
    abstractly inlined, so the whole program analysis cannot proceed
    exactly.  The inliner can optionally drop such calls instead.
    """


class RecursionError_(NonAnalysableError):
    """The static call graph contains a cycle (recursive calls)."""


class UnknownSubroutineError(ReproError):
    """A CALL statement names a subroutine that is not defined."""


class FrontendError(ReproError):
    """Base class for mini-FORTRAN frontend failures."""


class LexerError(FrontendError):
    """The lexer met a character sequence it cannot tokenise."""

    def __init__(self, message: str, line: int, column: int = 0) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.column = column


class ParseError(FrontendError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class LayoutError(ReproError):
    """Memory layout could not be constructed (e.g. unknown array size)."""


class AnalysisError(ReproError):
    """A generic failure inside the cache-behaviour analysis."""


class TraceFormatError(ReproError):
    """A binary trace file violates the ``repro`` trace format.

    Raised by :mod:`repro.sim.tracefile` for bad magic, unknown versions or
    record kinds, truncated payloads, record counts that disagree with the
    file size, and records whose fields overflow the fixed-width encoding.
    """


class InvariantError(AnalysisError):
    """A solver result violated a structural invariant.

    Raised by :meth:`repro.cme.result.RefResult.check_invariants` when the
    per-outcome tallies of a reference do not add up — which would mean a
    classifier mis-counted, so it is always a bug, never an
    input-program problem.
    """

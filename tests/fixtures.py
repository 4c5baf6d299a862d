"""Shared test fixtures: the paper's running examples as IR programs."""

from __future__ import annotations

from repro.ir import ProgramBuilder

#: Method names every entry point (``analyze``, the serve protocol, the
#: CLI) must reject — near misses of the real ones.
UNKNOWN_METHODS = ("simulate", "magic", "Find", "estimate ", "")


def figure1_program(n: int = 10):
    """The subroutine of Fig. 1 of the paper (with S4 after the second loop).

    ::

        DO I1 = 2, N
          S1:  A(I1-1) = ...
          DO I2 = I1, N
            S2:  B(I2-1, I1) = A(I2-1)
          DO I2 = 1, N
            S3:  ... = B(I2, I1)
          S4:  ... = A(I1)
        DO I1 = 1, N-1
          S5:  A(I1+1) = ...

    Returns ``(program, A, B)``.
    """
    pb = ProgramBuilder("FOO")
    a = pb.array("A", (n,))
    b = pb.array("B", (n, n))
    with pb.subroutine("MAIN"):
        with pb.do("I1", 2, n) as i1:
            pb.assign(a[i1 - 1], label="S1")
            with pb.do("I2", i1, n) as i2:
                pb.assign(b[i2 - 1, i1], a[i2 - 1], label="S2")
            with pb.do("I2", 1, n) as i2:
                pb.read(b[i2, i1], label="S3")
            pb.read(a[i1], label="S4")
        with pb.do("I1", 1, n - 1) as i1:
            pb.assign(a[i1 + 1], label="S5")
    return pb.build(), a, b


def single_nest_program(name: str, n: int, build_body):
    """Helper: one MAIN subroutine whose body is built by ``build_body(pb)``."""
    pb = ProgramBuilder(name)
    build_body(pb, n)
    return pb.build()

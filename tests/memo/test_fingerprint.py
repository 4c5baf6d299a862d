"""The memo store's code fingerprint covers every module a solve runs."""

import ast
import importlib.util

import pytest

from repro import CacheConfig, prepare
from repro.cme import (
    BACKENDS,
    METHODS,
    make_classifier,
    numpy_available,
    solver_for,
)
from repro.kernels import build_hydro
from repro.memo.key import FINGERPRINT_MODULES


def _solver_imports(name: str) -> set:
    """Modules of the solver packages imported anywhere in ``name``."""
    packages = ("repro.cme.", "repro.iteration.", "repro.polyhedra.",
                "repro.reuse.", "repro.stats.")
    with open(importlib.util.find_spec(name).origin) as fh:
        tree = ast.parse(fh.read())
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith(packages)
    }


class TestFingerprint:
    def test_units_backends_and_their_imports_are_fingerprinted(self):
        roots = {solver_for(m).unit_module for m in METHODS}
        roots |= {"repro.cme.solver", "repro.cme.backend"}
        seen, todo = set(), sorted(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(_solver_imports(name))
        assert {"repro.cme.batch", "repro.cme.point"} <= seen
        assert sorted(seen - set(FINGERPRINT_MODULES)) == []

    def test_trace_builder_and_sampler_are_fingerprinted(self):
        """The replacement-window index is built by the simulator's trace
        builder, and EstimateMisses draws through ``BoundedSpace`` — both
        decide solver outcomes from outside the solver packages' imports."""
        pytest.importorskip("numpy")
        from repro.iteration.batch import TraceIndex
        from repro.polyhedra.space import BoundedSpace
        from repro.sim.batch import TracePlan, trace_arrays

        for obj in (trace_arrays, TracePlan, TraceIndex, BoundedSpace):
            assert obj.__module__ in FINGERPRINT_MODULES, obj

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_classifier_backend_is_fingerprinted(self, backend):
        if backend == "numpy" and not numpy_available():
            pytest.skip("NumPy not installed")
        prepared = prepare(build_hydro(8, 8))
        cache = CacheConfig.kb(2, 32, assoc=2)
        classifier = make_classifier(
            backend,
            prepared.nprog,
            prepared.layout,
            cache,
            prepared.reuse_table(cache.line_bytes),
        )
        assert type(classifier).__module__ in FINGERPRINT_MODULES

"""The reuse table as arrays, and the solvers that read them.

:func:`repro.reuse.build_reuse_table` keeps every vector as a row of
``vecs``/``producers``/``spatial``, grouped by consumer, and builds
:class:`~repro.reuse.ReuseVector` objects only when
:meth:`~repro.reuse.ReuseTable.vectors_for` asks for them.  Here:

* the objects equal the rows they are built from, and are built once;
* the ``reuse.vectors.*`` counters equal a count over the objects;
* a pickled table keeps its rows and drops its derived facts;
* FindMisses and EstimateMisses solve Table 6 without building a single
  object (counted where the table builds them);
* :meth:`BatchClassifier._index_ends`, which reads each decided point's
  producer time from the trace plan's per-leaf table, equals the grouped
  version below — one :meth:`TracePlan.times` per deciding vector, kept
  here as its oracle — call by call: the same window ends and the same
  walk/index choice, on the 210-case pool, Table 6 and a triangular,
  guarded program whose box times map through :meth:`LineTrace.times`.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import CacheConfig, analyze, obs, prepare
from repro.cme import batch as cme_batch
from repro.cme.batch import BatchClassifier
from repro.cme.solver import solve_misses, solver_for
from repro.ir import ProgramBuilder
from repro.programs import build_applu_like, build_swim_like, build_tomcatv_like
from repro.reuse import SPATIAL, TEMPORAL, ReuseTable, build_reuse_table
from tests.harness.differential import FAMILIES, generate_cases

TABLE6 = {
    "TOMCATV": lambda: build_tomcatv_like(40, 2),
    "SWIM": lambda: build_swim_like(40, 2),
    "APPLU": lambda: build_applu_like(20, 2),
}

POOL = generate_cases(30 * len(FAMILIES))


def rows_of(table: ReuseTable, ref) -> list:
    """The consumer's rows as ``(vec, producer uid, kind)``."""
    rows = table.rows(ref)
    return [
        (tuple(vec), p, SPATIAL if s else TEMPORAL)
        for vec, p, s in zip(
            table.vecs[rows].tolist(),
            table.producers[rows].tolist(),
            table.spatial[rows].tolist(),
        )
    ]


def objects_of(table: ReuseTable, ref) -> list:
    return [(rv.vec, rv.producer.uid, rv.kind) for rv in table.vectors_for(ref)]


def tables():
    """``(name, nprog, table)`` over Table 6 and a slice of the pool."""
    for name, build in TABLE6.items():
        nprog = prepare(build()).nprog
        yield name, nprog, build_reuse_table(nprog, 32)
    for case in POOL[:: len(FAMILIES) - 1]:
        nprog, _ = case.prepared()
        yield case.name, nprog, build_reuse_table(nprog, case.cache.line_bytes)


def test_objects_equal_rows():
    for name, nprog, table in tables():
        for ref in nprog.refs:
            built = table.vectors_for(ref)
            assert objects_of(table, ref) == rows_of(table, ref), name
            assert table.vectors_for(ref) is built, name  # kept
            for rv in built:
                assert rv.consumer is ref
                assert rv.producer is nprog.refs[rv.producer.uid]
            keys = [rv.sort_key() for rv in built]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), name


def test_counters_equal_an_object_count():
    for name, nprog, _ in tables():
        obs.enable()
        obs.reset()
        try:
            table = build_reuse_table(nprog, 32)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        want = dict.fromkeys(
            ("temporal_self", "temporal_group", "spatial_self",
             "spatial_group", "total", "cross_column"),
            0,
        )
        for rv in table.all_vectors():
            want[f"{rv.kind}_{'self' if rv.is_self else 'group'}"] += 1
            want["total"] += 1
            support = sum(1 for c in rv.index_part() if c)
            want["cross_column"] += rv.kind == SPATIAL and support >= 2
        got = {
            key[len("reuse.vectors."):]: n
            for key, n in counters.items()
            if key.startswith("reuse.vectors.")
        }
        assert got == want, name


def test_table_survives_pickle():
    prepared = prepare(TABLE6["SWIM"]())
    cache = CacheConfig.kb(4, 32, 1)
    table = prepared.reuse_table(cache.line_bytes)
    analyze(prepared, cache, method="estimate")
    table.all_vectors()
    assert table._derived and table._objects
    copy = pickle.loads(pickle.dumps(table))
    assert copy._derived == {} and copy._objects == {}
    for ref in prepared.nprog.refs:
        assert rows_of(copy, ref) == rows_of(table, ref)
        assert objects_of(copy, ref) == objects_of(table, ref)
    assert copy.counts() == table.counts()
    assert table._derived  # the original keeps its facts


def test_table6_solves_build_no_objects(monkeypatch):
    built = []
    materialise = ReuseTable._materialise

    def counting(table, ref):
        vectors = materialise(table, ref)
        built.append(len(vectors))
        return vectors

    monkeypatch.setattr(ReuseTable, "_materialise", counting)
    cache = CacheConfig.kb(4, 32, 1)
    for name, build in TABLE6.items():
        prepared = prepare(build())
        for method in ("find", "estimate"):
            report = analyze(prepared, cache, method=method)
            assert report.total_accesses > 0, (name, method)
    assert built == []
    # The counter sees objects where they are still built.
    prepared.reuse_table(cache.line_bytes).vectors_for(prepared.nprog.refs[0])
    assert len(built) == 1


def grouped_index_ends(classifier, ref, via, producers, consumers):
    """:meth:`BatchClassifier._index_ends` as the points grouped by deciding
    vector: sort, split, one :meth:`TracePlan.times` per group."""
    plan = classifier.plan()
    if not plan.materialisable:
        return None
    vectors = classifier.reuse.vectors_for(ref)
    t_producer = np.empty(len(consumers), dtype=np.int64)
    order = np.argsort(via, kind="stable")
    cuts = np.flatnonzero(np.diff(via[order])) + 1
    for group in np.split(order, cuts):
        producer = vectors[int(via[group[0]])].producer
        t_producer[group] = plan.times(producer, producers[group])
    t_consumer = plan.times(ref, consumers)
    windows = float((t_consumer - t_producer).sum(dtype=np.float64))
    walk = (
        cme_batch._WALK_ACCESS * windows
        + cme_batch._WALK_POINT * len(consumers)
    )
    if walk * len(classifier.nprog.refs) < plan.total:
        return None
    if not plan.rectangular:
        times = classifier._line_trace().times
        t_producer, t_consumer = times(t_producer), times(t_consumer)
    return t_producer.astype(np.int32), t_consumer.astype(np.int32)


class EndsSpy:
    """Diffs every ``_index_ends`` call against :func:`grouped_index_ends`."""

    def __init__(self, monkeypatch):
        self.calls = {"index": 0, "walk": 0, "mapped": 0}
        self.mismatches: list[str] = []
        real = BatchClassifier._index_ends
        spy = self

        def checked(classifier, ref, via, producers, consumers):
            got = real(classifier, ref, via, producers, consumers)
            want = grouped_index_ends(classifier, ref, via, producers, consumers)
            spy.check(classifier, ref, got, want)
            return got

        monkeypatch.setattr(BatchClassifier, "_index_ends", checked)

    def check(self, classifier, ref, got, want):
        if (got is None) != (want is None):
            self.mismatches.append(f"{ref}: choice differs")
        elif got is None:
            self.calls["walk"] += 1
        elif not all(
            g.dtype == w.dtype and np.array_equal(g, w)
            for g, w in zip(got, want)
        ):
            self.mismatches.append(f"{ref}: window ends differ")
        else:
            self.calls["index"] += 1
            self.calls["mapped"] += not classifier.plan().rectangular


def solve_both(nprog, layout, cache):
    reuse = build_reuse_table(nprog, cache.line_bytes)
    for method in ("find", "estimate"):
        classifier = BatchClassifier(nprog, layout, cache, reuse)
        solve_misses(
            solver_for(method), nprog, layout, cache, reuse,
            classifier=classifier,
        )


def build_triangle_guarded(n: int):
    """A triangular nest and a guarded one over the same arrays."""
    pb = ProgramBuilder("TRIGUARD")
    a = pb.array("A", (n + 2, n + 2))
    b = pb.array("B", (n + 2, n + 2))
    with pb.subroutine("MAIN"):
        with pb.do("J", 1, n) as j:
            with pb.do("I", j, n) as i:
                pb.assign(a[i, j], a[i + 1, j], b[j, i])
        with pb.do("J", 1, n) as j:
            with pb.do("I", 1, n) as i:
                with pb.if_(i.le(j)):
                    pb.assign(b[i, j], a[i, j])
                pb.read(a[i + 1, j + 1])
    return pb.build()


#: Window-pricing constants per way to run the choice: as shipped (the
#: pool and Table 6 pick the index), weighing window lengths alone (about
#: two in five pool calls then walk, so the choice turns on the summed
#: producer times) and always the index (every producer time compared).
PRICES = {
    "by_cost": {},
    "split": {"_WALK_ACCESS": 1.0, "_WALK_POINT": 0.0},
    "index": {"_WALK_POINT": 1e15},
}


def priced(monkeypatch, mode):
    for name, value in PRICES[mode].items():
        monkeypatch.setattr(cme_batch, name, value)


@pytest.mark.parametrize("mode", sorted(PRICES))
def test_index_ends_equal_grouped_oracle_on_pool(monkeypatch, mode):
    priced(monkeypatch, mode)
    spy = EndsSpy(monkeypatch)
    for case in POOL:
        nprog, layout = case.prepared()
        solve_both(nprog, layout, case.cache)
    assert not spy.mismatches, spy.mismatches[:10]
    assert spy.calls["index"] and spy.calls["mapped"]
    if mode == "split":
        assert spy.calls["walk"]


@pytest.mark.parametrize("mode", sorted(PRICES))
def test_index_ends_equal_grouped_oracle_on_table6(monkeypatch, mode):
    priced(monkeypatch, mode)
    spy = EndsSpy(monkeypatch)
    for build in TABLE6.values():
        prepared = prepare(build())
        solve_both(prepared.nprog, prepared.layout, CacheConfig.kb(4, 32, 1))
    assert not spy.mismatches, spy.mismatches[:10]
    assert spy.calls["index"]


def test_index_ends_equal_grouped_oracle_through_line_trace(monkeypatch):
    prepared = prepare(build_triangle_guarded(24))
    cache = CacheConfig.kb(1, 32, 2)
    assert not BatchClassifier(
        prepared.nprog, prepared.layout, cache,
        prepared.reuse_table(cache.line_bytes),
    ).plan().rectangular
    for mode in sorted(PRICES):
        with monkeypatch.context() as m:
            priced(m, mode)
            spy = EndsSpy(m)
            solve_both(prepared.nprog, prepared.layout, cache)
        assert not spy.mismatches, (mode, spy.mismatches[:10])
        assert spy.calls["mapped"] == spy.calls["index"] > 0, mode

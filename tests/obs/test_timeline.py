"""Timeline recording and the Chrome trace-event export.

The load-bearing contract: the timeline records the *same* elapsed float
per span entry that the aggregating tree accumulates, so for every span
name the timeline durations sum to the tree node's ``seconds`` exactly —
which is what makes ``--timeline-out`` and ``--metrics-out`` agree.
"""

import json
import os
import threading
import time

import pytest

from repro import CacheConfig, analyze, obs, prepare
from repro.kernels import build_hydro
from repro.obs.timeline import (
    TimelineRecorder,
    chrome_trace,
    sum_durations,
    write_chrome_trace,
)


def make_events():
    return [
        {"name": "a", "start": 1.0, "dur": 0.5, "pid": 100, "tid": 7},
        {"name": "b", "start": 1.2, "dur": 0.1, "pid": 100, "tid": 7},
        {"name": "a", "start": 2.0, "dur": 0.25, "pid": 200, "tid": 9},
    ]


class TestTimelineRecorder:
    def test_record_captures_pid_and_tid(self):
        rec = TimelineRecorder()
        rec.record("x", 10.0, 0.5)
        (event,) = rec.snapshot()
        assert event["name"] == "x"
        assert event["start"] == 10.0
        assert event["dur"] == 0.5
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()

    def test_clear_drops_everything(self):
        rec = TimelineRecorder()
        rec.record("x", 0.0, 1.0)
        rec.clear()
        assert len(rec) == 0
        assert rec.snapshot() == []

    def test_snapshot_is_a_copy(self):
        rec = TimelineRecorder()
        rec.record("x", 0.0, 1.0)
        snap = rec.snapshot()
        snap.clear()
        assert len(rec) == 1


class TestChromeTrace:
    def test_events_shifted_to_zero_origin_microseconds(self):
        doc = chrome_trace(make_events(), main_pid=100)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["ts"] for e in xs] == pytest.approx([0.0, 0.2e6, 1.0e6])
        assert [e["dur"] for e in xs] == pytest.approx([0.5e6, 0.1e6, 0.25e6])

    def test_parent_lane_sorts_first(self):
        doc = chrome_trace(make_events(), main_pid=100)
        meta = {
            (e["pid"], e["name"]): e["args"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert meta[(100, "process_name")]["name"] == "repro (parent)"
        assert meta[(200, "process_name")]["name"] == "worker 200"
        assert meta[(100, "process_sort_index")]["sort_index"] == 0
        assert meta[(200, "process_sort_index")]["sort_index"] == 1

    def test_thread_idents_renumbered_per_process(self):
        events = make_events() + [
            {"name": "c", "start": 3.0, "dur": 0.1, "pid": 100, "tid": 999}
        ]
        doc = chrome_trace(events, main_pid=100)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        tids = {(e["pid"], e["tid"]) for e in xs}
        assert tids == {(100, 0), (100, 1), (200, 0)}
        thread_meta = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_meta[(100, 0)] == "main"
        assert thread_meta[(100, 1)] == "thread 1"

    def test_empty_events(self):
        doc = chrome_trace([], main_pid=100)
        assert doc["traceEvents"] == []

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "t.json"
        count = write_chrome_trace(str(path), make_events(), main_pid=100)
        assert count == 3
        doc = json.loads(path.read_text())
        assert {e["ph"] for e in doc["traceEvents"]} == {"M", "X"}


class TestSumDurations:
    def test_totals_per_name(self):
        totals = sum_durations(make_events())
        assert totals == {"a": 0.75, "b": 0.1}


@pytest.fixture
def cache():
    return CacheConfig.kb(2, 32, 2)


class TestTimelineModuleState:
    def test_enable_timeline_implies_enable(self):
        rec = obs.enable_timeline()
        assert obs.is_enabled()
        assert obs.timeline_enabled()
        assert obs.timeline() is rec

    def test_spans_feed_the_recorder(self):
        obs.enable_timeline()
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.001)
        names = [e["name"] for e in obs.timeline_events()]
        assert names == ["inner", "outer"]  # exit order

    def test_durations_match_tree_exactly(self):
        obs.enable_timeline()
        for _ in range(3):
            with obs.span("work"):
                time.sleep(0.001)
        totals = sum_durations(obs.timeline_events())
        (tree_entry,) = [
            (name, secs)
            for name, _count, secs in obs.phase_times()
            if name == "work"
        ]
        assert totals["work"] == tree_entry[1]

    def test_disabled_timeline_records_nothing(self):
        obs.enable()
        with obs.span("quiet"):
            pass
        assert obs.timeline_events() == []
        assert not obs.timeline_enabled()

    def test_reset_clears_timeline(self):
        obs.enable_timeline()
        with obs.span("x"):
            pass
        obs.reset()
        assert obs.timeline_events() == []

    def test_analysis_records_one_lane(self, cache):
        prepared = prepare(build_hydro(16, 16))
        obs.enable_timeline()
        analyze(prepared, cache, seed=0)
        events = obs.timeline_events()
        assert {e["pid"] for e in events} == {os.getpid()}
        assert {e["tid"] for e in events} == {threading.get_ident()}
        totals = sum_durations(events)
        for name, _count, secs in obs.phase_times():
            assert totals[name] == pytest.approx(secs, rel=1e-9)

"""The append-only run ledger: row building, keys, and damage tolerance."""

import json
import os

import pytest

from repro import CacheConfig, obs
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    append_row,
    build_row,
    by_key,
    read_ledger,
    row_key,
)


class TestBuildRow:
    def test_explicit_row(self):
        row = build_row(
            "bench:x",
            program="hydro",
            cache=CacheConfig.kb(4, 32, 2),
            config={"jobs": 2},
            phases={"solve": 1.5, "prep": 0.5},
            counters={"cme.points.classified": 100},
        )
        assert row["schema"] == LEDGER_SCHEMA
        assert row["label"] == "bench:x"
        assert row["cache"] == "4KB/32B 2-way"
        assert row["wall_seconds"] == 2.0  # summed from phases
        assert row["counters"] == {"cme.points.classified": 100}
        assert len(row["run_id"]) == 12
        assert len(row["fingerprint"]) == 16
        assert row["peak_rss_bytes"] >= 0

    def test_defaults_pull_from_live_observability(self):
        obs.enable()
        obs.reset()
        with obs.span("phase_a"):
            obs.counter("some.counter").inc(7)
        row = build_row("run")
        assert "phase_a" in row["phases"]
        assert row["counters"]["some.counter"] == 7
        assert row["wall_seconds"] == sum(row["phases"].values())

    def test_derived_ratios(self):
        row = build_row(
            "run",
            phases={},
            wall_seconds=2.0,
            counters={
                "memo.hits": 3,
                "memo.misses": 1,
                "cme.points.classified": 500,
            },
        )
        assert row["derived"]["memo.hit_ratio"] == 0.75
        assert row["derived"]["points_per_second"] == 250.0

    def test_string_cache_passes_through(self):
        row = build_row("run", cache="4:32:2", phases={}, counters={})
        assert row["cache"] == "4:32:2"


class TestRowKey:
    def base(self, **overrides):
        row = {
            "label": "analyze:hydro",
            "program": "hydro",
            "cache": "4KB/32B 2-way",
            "config": {"jobs": 2, "method": "estimate"},
        }
        row.update(overrides)
        return row

    def test_key_ignores_timing_fields(self):
        a = self.base()
        b = dict(self.base(), wall_seconds=9.9, run_id="abc", ts=123)
        assert row_key(a) == row_key(b)

    def test_key_changes_with_config(self):
        assert row_key(self.base()) != row_key(
            self.base(config={"jobs": 4, "method": "estimate"})
        )

    def test_key_changes_with_cache(self):
        assert row_key(self.base()) != row_key(self.base(cache="8KB/32B 2-way"))

    def test_key_is_short_hex(self):
        key = row_key(self.base())
        assert len(key) == 12
        int(key, 16)


class TestLedgerIO:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        r1 = build_row("a", phases={"p": 1.0}, counters={})
        r2 = build_row("b", phases={"p": 2.0}, counters={})
        append_row(path, r1)
        append_row(path, r2)
        rows = read_ledger(path)
        assert [r["label"] for r in rows] == ["a", "b"]
        assert rows[0]["run_id"] == r1["run_id"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(str(tmp_path / "absent.jsonl")) == []

    def test_append_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "down" / "ledger.jsonl")
        append_row(path, build_row("a", phases={}, counters={}))
        assert len(read_ledger(path)) == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_row(path, build_row("a", phases={"p": 1.0}, counters={}))
        with open(path, "a") as fh:
            fh.write('{"schema": "repro.ledger/v1", "label": "tor')
        rows = read_ledger(path)
        assert [r["label"] for r in rows] == ["a"]

    def test_blank_lines_and_foreign_schemas_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with open(path, "w") as fh:
            fh.write("\n")
            fh.write(json.dumps({"schema": "other/v1", "label": "x"}) + "\n")
            fh.write(json.dumps([1, 2, 3]) + "\n")
        append_row(path, build_row("keep", phases={}, counters={}))
        rows = read_ledger(path)
        assert [r["label"] for r in rows] == ["keep"]

    def test_by_key_groups_in_order(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for wall in (1.0, 2.0):
            append_row(
                path,
                build_row("a", phases={}, wall_seconds=wall, counters={}),
            )
        append_row(path, build_row("b", phases={}, counters={}))
        groups = by_key(read_ledger(path))
        assert len(groups) == 2
        (a_rows,) = [
            rows for rows in groups.values() if rows[0]["label"] == "a"
        ]
        assert [r["wall_seconds"] for r in a_rows] == [1.0, 2.0]


#: The committed baseline the CI perf job checks its smoke rows against.
BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "perf_baseline.jsonl"
)

#: The CI perf job's smoke commands.
CI_SMOKE = {
    "estimate": ["analyze", "hydro", "--size", "16", "--cache", "2:32:1"],
    "regions": ["analyze", "hydro", "--size", "16", "--cache", "2:32:1",
                "--method", "regions"],
    "estimate-swim": ["analyze", "swim", "--size", "40", "--cache", "4:32:1",
                      "--method", "estimate"],
    "regions-mmt": ["analyze", "mmt", "--size", "16", "--cache", "4:32:2",
                    "--method", "regions"],
    "regions-mmt-serve": ["analyze", "mmt", "--size", "16", "--cache",
                          "1:32:1", "--method", "regions"],
}


class TestCommittedBaseline:
    @pytest.mark.parametrize("method", sorted(CI_SMOKE))
    def test_ci_smoke_rows_have_a_baseline(self, method, tmp_path, capsys):
        """``perf check`` passes a row without baseline history as
        ``no-baseline``: a smoke command whose key drifts from the
        committed rows would silently switch the CI gate off."""
        from repro.cli import main

        current = str(tmp_path / "current.jsonl")
        argv = CI_SMOKE[method] + ["--quiet", "--ledger-out", current]
        assert main(argv) == 0
        (row,) = read_ledger(current)
        assert row_key(row) in by_key(read_ledger(BASELINE))

"""CLI tests: every subcommand end to end via ``main(argv)``."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.cme import METHODS
from repro.obs.export import validate_snapshot
from tests.fixtures import UNKNOWN_METHODS, run_limited
from tests.harness.differential import scalar_simulate, scalar_trace


@pytest.fixture(autouse=True)
def clean_obs():
    """Observability flags mutate global state; start and end clean."""
    obs.disable()
    yield
    obs.disable()


class TestStats:
    def test_stats_swim(self, capsys):
        assert main(["stats", "swim", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "#subroutines" in out
        assert "A-able" in out

    def test_stats_kernel(self, capsys):
        assert main(["stats", "mmt", "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "#references" in out


class TestAnalyze:
    def test_analyze_estimate(self, capsys):
        rc = main(["analyze", "hydro", "--size", "16", "--cache", "2:32:1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out
        assert "EstimateMisses" in out
        assert "Worst references" in out

    def test_analyze_find(self, capsys):
        rc = main(
            ["analyze", "mgrid", "--size", "8", "--cache", "2:32:2",
             "--method", "find"]
        )
        assert rc == 0
        assert "FindMisses" in capsys.readouterr().out


class TestSimulate:
    def test_simulate(self, capsys):
        rc = main(["simulate", "tomcatv", "--size", "16", "--steps", "1",
                   "--cache", "2:32:1"])
        assert rc == 0
        assert "miss ratio" in capsys.readouterr().out


class TestCompare:
    def test_compare(self, capsys):
        rc = main(["compare", "hydro", "--size", "16", "--cache", "2:32:1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Simulator" in out
        assert "abs. error" in out


class TestFortranInput:
    def test_dot_f_file(self, tmp_path, capsys):
        source = """
      PROGRAM TINY
      DIMENSION A(32)
      DO I = 1, 32
        A(I) = 0.0
      ENDDO
      END
"""
        path = tmp_path / "tiny.f"
        path.write_text(source)
        rc = main(["analyze", str(path), "--cache", "32:32:1",
                   "--method", "find"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TINY" in out


class TestErrors:
    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["analyze", "nonsense"])

    def test_bad_cache_spec(self):
        with pytest.raises(SystemExit):
            main(["analyze", "hydro", "--size", "8", "--cache", "banana"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "hydro", "--method", "find"],
            ["analyze", "hydro", "--method", "regions"],
            ["simulate", "hydro"],
        ],
        ids=lambda argv: "-".join(a for a in argv if not a.startswith("-")),
    )
    @pytest.mark.parametrize(
        "spec", ["99999999999999999999:32:1", "9007199254740992:32:1"]
    )
    def test_oversized_cache_geometry_is_a_one_line_exit(self, argv, spec):
        """Set counts past int32 or sizes past int64 are a usage error,
        not an ``OverflowError`` from the solvers or the simulator."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--size", "8", "--cache", spec])
        message = str(exc.value.code)
        assert "too large" in message and "\n" not in message

    @pytest.mark.parametrize("verb", ["analyze", "compare", "submit"])
    def test_unknown_method(self, verb, capsys):
        """``--method`` offers exactly the solver table's names."""
        for method in UNKNOWN_METHODS:
            with pytest.raises(SystemExit) as exc:
                main([verb, "hydro", "--cache", "2:32:1", "--method", method])
            assert exc.value.code == 2
        choices = ", ".join(repr(m) for m in METHODS)
        assert f"(choose from {choices})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "hydro", "--size", "8", "--method", "estimate",
             "--width", "2"],
            ["analyze", "hydro", "--size", "8", "--confidence", "1.5"],
            ["submit", "hydro", "--width", "0"],
            ["submit", "hydro", "--confidence", "nan"],
            ["perf", "check", "ledger.jsonl", "--confidence", "1"],
        ],
    )
    def test_out_of_range_accuracy_is_a_usage_error(self, argv, capsys):
        """``(c, w)`` outside (0, 1) exits 2 with a message, no traceback
        (and, for ``submit``, without contacting a daemon)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be in (0, 1)" in capsys.readouterr().err

    def test_profile_span_requires_profile_out(self):
        with pytest.raises(SystemExit):
            main(["analyze", "hydro", "--size", "8",
                  "--profile-span", "cme/estimate"])

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "hydro", "--size", "8", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method,cache", [("find", "32:32:1"), ("regions", "1:32:1")]
    )
    def test_unenumerable_space_is_a_one_line_exit(self, method, cache):
        """Hydro at size 100000 has 10^10 points: ``find`` enumerates its
        RIS and ``regions`` a fallback cell almost as large.  Either is a
        typed ``TraceTooLargeError`` before anything is allocated, not a
        ``MemoryError``; the 2 GiB address-space limit makes an allocation
        fail at once instead of swapping."""
        argv = ["analyze", "hydro", "--size", "100000", "--method", method,
                "--cache", cache]
        done = run_limited(["-m", "repro.cli", *argv])
        assert done.returncode == 1
        message = done.stderr.strip()
        assert "too large to enumerate" in message, done.stderr
        assert "\n" not in message

    def test_malformed_source_is_a_one_line_error(self, tmp_path):
        path = tmp_path / "bad.f"
        path.write_text("this is not fortran\n")
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--cache", "2:32:1"])
        assert str(exc.value.code).startswith("line 1:")

    def test_invalid_size_is_a_one_line_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "hydro", "--size", "-3", "--cache", "2:32:1"])
        assert "must be a positive integer" in str(exc.value.code)

    @pytest.mark.parametrize("verb", ["analyze", "submit"])
    def test_missing_source_is_a_one_line_error(self, verb, tmp_path):
        path = tmp_path / "missing.f"
        with pytest.raises(SystemExit) as exc:
            main([verb, str(path), "--cache", "2:32:1"])
        assert exc.value.code == (
            f"cannot read {path}: No such file or directory"
        )


ANALYZE = ["analyze", "hydro", "--size", "16", "--cache", "2:32:1"]


class TestObservabilityFlags:
    def test_trace_prints_span_tree_on_stderr(self, capsys):
        assert main(ANALYZE + ["--trace"]) == 0
        captured = capsys.readouterr()
        for phase in ("prepare/normalise", "prepare/layout",
                      "reuse/build_table", "cme/estimate"):
            assert phase in captured.err
        assert "Per-phase wall time" in captured.err
        assert phase not in captured.out

    def test_metrics_out_writes_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(ANALYZE + ["--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_snapshot(doc) == []
        assert doc["counters"]["cme.points.classified"] > 0
        assert "metrics written" in capsys.readouterr().out

    def test_metrics_out_dash_keeps_stdout_machine_readable(self, capsys):
        assert main(ANALYZE + ["--metrics-out", "-"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout must be pure JSON
        assert validate_snapshot(doc) == []
        assert "Worst references" in captured.err

    def test_quiet_silences_everything_but_the_final_table(self, capsys):
        assert main(ANALYZE + ["--quiet"]) == 0
        out = capsys.readouterr().out
        assert "points analysed" not in out  # the diagnostic summary line
        assert "Worst references" in out  # the final table survives

    def test_quiet_simulate_keeps_result_line(self, capsys):
        assert main(["simulate", "hydro", "--size", "16",
                     "--cache", "2:32:1", "--quiet"]) == 0
        assert "miss ratio" in capsys.readouterr().out

    def test_profile_out_writes_pstats(self, tmp_path, capsys):
        import pstats

        out = tmp_path / "p.pstats"
        assert main(ANALYZE + ["--profile-out", str(out)]) == 0
        assert pstats.Stats(str(out)).total_calls > 0

    def test_profile_span_scopes_collection(self, tmp_path):
        import pstats

        out = tmp_path / "p.pstats"
        assert main(ANALYZE + ["--profile-out", str(out),
                    "--profile-span", "cme/estimate"]) == 0
        assert pstats.Stats(str(out)).total_calls > 0


class TestTimelineFlag:
    def test_timeline_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(ANALYZE + ["--timeline-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs, "no span events exported"
        names = {e["name"] for e in xs}
        assert "cme/estimate" in names
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["name"] == "process_name"
            and e["args"]["name"] == "repro (parent)"
            for e in metas
        )
        assert "timeline" in capsys.readouterr().out

    def test_timeline_matches_metrics_within_one_percent(self, tmp_path):
        from repro.obs.timeline import sum_durations

        timeline, metrics = tmp_path / "t.json", tmp_path / "m.json"
        assert main(ANALYZE + ["--timeline-out", str(timeline),
                    "--metrics-out", str(metrics)]) == 0
        trace = json.loads(timeline.read_text())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len({(e["pid"], e["tid"]) for e in xs}) == 1  # one lane
        # Per top-level phase, the summed lane durations (µs) must match
        # the aggregated tree's wall time within 1%.
        by_name = sum_durations(
            [{"name": e["name"], "dur": e["dur"] / 1e6} for e in xs]
        )
        spans = json.loads(metrics.read_text())["spans"]
        for span in spans:
            assert by_name[span["name"]] == pytest.approx(
                span["seconds"], rel=0.01
            ), span["name"]


class TestLedgerFlag:
    def test_ledger_out_appends_row(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        assert main(ANALYZE + ["--ledger-out", str(path)]) == 0
        assert main(ANALYZE + ["--ledger-out", str(path)]) == 0
        from repro.obs.ledger import read_ledger, row_key

        rows = read_ledger(str(path))
        assert len(rows) == 2
        row = rows[0]
        assert row["label"] == "analyze:hydro"
        assert row["program"] == "hydro"
        assert row["config"]["size"] == 16
        assert row["wall_seconds"] > 0
        assert row["counters"]["cme.points.classified"] > 0
        assert row_key(rows[0]) == row_key(rows[1])
        assert "ledger" in capsys.readouterr().out


class TestPerfVerbs:
    def seed_ledger(self, path, walls, label="bench:x"):
        from repro.obs.ledger import append_row, build_row

        for wall in walls:
            append_row(
                str(path),
                build_row(label, config={"jobs": 1}, phases={},
                          wall_seconds=wall, counters={}),
            )

    def test_check_fails_on_synthetic_two_x_slowdown(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        self.seed_ledger(base, [1.0, 1.0, 1.0])
        self.seed_ledger(cur, [2.0])
        rc = main(["perf", "check", str(base), "--current", str(cur)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_check_passes_on_baseline_replay(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        self.seed_ledger(base, [1.0, 1.0, 1.0])
        self.seed_ledger(cur, [1.0])
        assert main(["perf", "check", str(base), "--current", str(cur)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_warn_only_soft_passes_hard_fails(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        soft = tmp_path / "soft.jsonl"
        hard = tmp_path / "hard.jsonl"
        self.seed_ledger(base, [1.0] * 5)
        self.seed_ledger(soft, [2.0])
        self.seed_ledger(hard, [4.0])
        common = ["perf", "check", str(base), "--threshold", "1.5",
                  "--hard-threshold", "3.0", "--warn-only"]
        assert main(common + ["--current", str(soft)]) == 0
        assert main(common + ["--current", str(hard)]) == 1
        capsys.readouterr()

    def test_check_self_history_mode(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self.seed_ledger(path, [1.0, 1.0, 1.0, 2.5])
        assert main(["perf", "check", str(path)]) == 1
        capsys.readouterr()

    def test_report_writes_html(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        out = tmp_path / "report.html"
        self.seed_ledger(path, [1.0, 1.1, 1.2])
        assert main(["perf", "report", str(path), "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<!doctype html>")
        assert "bench:x" in text
        assert "report" in capsys.readouterr().out


class TestMemProfileFlag:
    def test_mem_profile_prints_allocation_sites(self, capsys):
        assert main(ANALYZE + ["--mem-profile"]) == 0
        err = capsys.readouterr().err
        assert "top allocation sites" in err
        assert "KiB" in err or "MiB" in err or "B " in err


class TestSimBackendFlag:
    def test_sim_backends_print_identical_results(self, capsys):
        """``simulate`` prints the walker oracle's tallies."""
        from repro import CacheConfig, prepare
        from repro.serve.engine import load_kernel

        argv = ["simulate", "hydro", "--size", "16", "--cache", "2:32:2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        prepared = prepare(load_kernel("hydro", 16))
        want = scalar_simulate(
            prepared.nprog, prepared.layout, CacheConfig.kb(2, 32, 2)
        )
        assert (
            f"miss ratio {want.miss_ratio_percent:.2f}% "
            f"({want.total_misses} of {want.total_accesses} accesses"
        ) in out


class TestTraceVerbs:
    def test_export_then_simulate_matches_direct_simulation(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "hydro.trace"
        rc = main(
            ["trace", "export", "hydro", "--size", "16", "-o", str(trace)]
        )
        assert rc == 0
        assert "exported" in capsys.readouterr().out
        from repro.sim.tracefile import HEADER, MAGIC

        header = trace.read_bytes()[: HEADER.size]
        assert header[:4] == MAGIC

        rc = main(["trace", "simulate", str(trace), "--cache", "2:32:2"])
        assert rc == 0
        replayed = capsys.readouterr().out
        assert main(
            ["simulate", "hydro", "--size", "16", "--cache", "2:32:2"]
        ) == 0
        direct = capsys.readouterr().out
        assert (
            replayed.split(":")[-1].split("accesses")[0]
            == direct.split(":")[-1].split("accesses")[0]
        )

    def test_import_converts_raw_addresses(self, tmp_path, capsys):
        raw = tmp_path / "raw.addr"
        raw.write_bytes(bytes(range(16)))  # four 4-byte big-endian words
        out = tmp_path / "ext.trace"
        rc = main(["trace", "import", str(raw), "-o", str(out)])
        assert rc == 0
        assert "imported 4" in capsys.readouterr().out
        from repro.sim.tracefile import read_trace

        assert [a for _, a in read_trace(out)] == [
            int.from_bytes(bytes(range(i, i + 4)), "big")
            for i in range(0, 16, 4)
        ]

    def test_malformed_trace_exits_with_message(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"junk")
        with pytest.raises(SystemExit, match="too short"):
            main(["trace", "simulate", str(bad), "--cache", "1:16:1"])


class TestPolicyFlags:
    """The cache-model zoo surface: --policy/--policy-seed/--l2-cache."""

    POLICIES = ("lru", "fifo", "plru", "random")

    def test_trace_verbs_policy_backend_matrix(self, tmp_path, capsys):
        """All three trace verbs, every policy, against the replay oracle."""
        from repro import CacheConfig
        from repro.sim import read_trace

        # export: the walk is policy-independent; one file feeds the matrix.
        trace = tmp_path / "hydro.trace"
        assert main(
            ["trace", "export", "hydro", "--size", "16", "-o", str(trace)]
        ) == 0
        capsys.readouterr()
        # import: a raw address file converted then replayed per policy.
        raw = tmp_path / "raw.addr"
        raw.write_bytes(
            b"".join((i * 32).to_bytes(4, "big") for i in [0, 1, 2, 0, 1, 2])
        )
        imported = tmp_path / "ext.trace"
        assert main(["trace", "import", str(raw), "-o", str(imported)]) == 0
        capsys.readouterr()
        # simulate: every policy prints the scalar replay's tallies.
        for source in (trace, imported):
            for policy in self.POLICIES:
                rc = main(
                    ["trace", "simulate", str(source), "--cache", "2:32:2",
                     "--policy", policy, "--policy-seed", "5"]
                )
                assert rc == 0
                out = capsys.readouterr().out
                assert f"({policy})" in out
                want = scalar_trace(
                    read_trace(source), CacheConfig.kb(2, 32, 2),
                    policy=policy, seed=5,
                )
                assert (
                    f"({want.total_misses} of {want.total_accesses} accesses"
                    in out
                ), (source, policy, out)

    def test_simulate_policy_flag(self, capsys):
        rc = main(["simulate", "hydro", "--size", "16",
                   "--cache", "2:32:2", "--policy", "plru"])
        assert rc == 0
        assert "(plru)" in capsys.readouterr().out

    def test_simulate_l2_hierarchy(self, capsys):
        rc = main(["simulate", "hydro", "--size", "16",
                   "--cache", "1:32:2", "--l2-cache", "8:32:4",
                   "--l2-policy", "random"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L1 miss ratio" in out
        assert "L2 local" in out
        assert "(random)" in out
        assert "global" in out

    def test_compare_random_policy_deterministic(self, capsys):
        rows = []
        for _ in range(2):
            rc = main(["compare", "hydro", "--size", "16",
                       "--cache", "2:32:2", "--policy", "random",
                       "--policy-seed", "9", "--quiet"])
            assert rc == 0
            out = capsys.readouterr().out
            (sim_row,) = [
                line for line in out.splitlines()
                if line.startswith("Simulator (random)")
            ]
            # Keep the miss figures, drop the timing column.
            rows.append(sim_row.rsplit("|", 1)[0])
        assert rows[0] == rows[1]

    def test_trace_simulate_reports_sim_counters(self, tmp_path, capsys):
        """Regression: trace replays produced no sim.* counters at all,
        making --policy unobservable (unlike analyze's simulation
        path)."""
        trace = tmp_path / "hydro.trace"
        assert main(
            ["trace", "export", "hydro", "--size", "16", "-o", str(trace)]
        ) == 0
        metrics = tmp_path / "metrics.json"
        rc = main(["trace", "simulate", str(trace), "--cache", "2:32:2",
                   "--policy", "fifo", "--metrics-out", str(metrics),
                   "--quiet"])
        assert rc == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sim.policy.fifo"] == 1
        assert counters["sim.accesses"] > 0
        assert (counters["sim.hits"] + counters["sim.misses"]
                == counters["sim.accesses"])
        assert counters["sim.backend.batch.runs"] == 1
        capsys.readouterr()

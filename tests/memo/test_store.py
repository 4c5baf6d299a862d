"""Corrupt/stale persistent-store robustness (ISSUE 3 satellite).

Every damaged-store scenario must degrade to a cold run with a
``memo.store.invalid`` counter bump — never a crash, never a wrong result.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.memo import STORE_SCHEMA, MemoStore, Memoizer, code_fingerprint


@pytest.fixture
def metrics():
    obs.enable()
    obs.reset()
    yield obs
    obs.disable()


def counter_value(name: str) -> int:
    return obs.registry().snapshot()["counters"].get(name, 0)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def good_header() -> str:
    return json.dumps({"schema": STORE_SCHEMA, "fingerprint": code_fingerprint()})


def good_entry(key="ab" * 32, payload=(10, 10, 3, 2, 5)) -> str:
    return json.dumps({"k": key, "p": list(payload)})


class TestLoad:
    def test_missing_file_is_a_clean_cold_start(self, tmp_path, metrics):
        store = MemoStore(str(tmp_path / "absent.jsonl"))
        assert store.load() == {}
        assert counter_value("memo.store.invalid") == 0

    def test_round_trip(self, tmp_path, metrics):
        store = MemoStore(str(tmp_path / "s.jsonl"))
        store.append({"k1": [10, 10, 3, 2, 5], "k2": [4, 4, 4, 0, 0]})
        loaded = MemoStore(str(tmp_path / "s.jsonl")).load()
        assert loaded == {"k1": [10, 10, 3, 2, 5], "k2": [4, 4, 4, 0, 0]}
        assert counter_value("memo.store.loaded") == 2

    def test_wrong_schema_version_invalidates_everything(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {"schema": "repro.memo/v0", "fingerprint": code_fingerprint()}
                ),
                good_entry(),
            ],
        )
        store = MemoStore(str(path))
        assert store.load() == {}
        assert counter_value("memo.store.invalid") == 1

    def test_wrong_fingerprint_invalidates_everything(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        write_lines(
            path,
            [
                json.dumps({"schema": STORE_SCHEMA, "fingerprint": "stale"}),
                good_entry(),
            ],
        )
        assert MemoStore(str(path)).load() == {}
        assert counter_value("memo.store.invalid") == 1

    def test_garbage_header_invalidates_everything(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        write_lines(path, ["{not json", good_entry()])
        assert MemoStore(str(path)).load() == {}
        assert counter_value("memo.store.invalid") == 1

    def test_truncated_line_skipped_others_survive(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        entry = good_entry()
        write_lines(
            path,
            [good_header(), good_entry("aa" * 32), entry[: len(entry) // 2]],
        )
        loaded = MemoStore(str(path)).load()
        assert list(loaded) == ["aa" * 32]
        assert counter_value("memo.store.invalid") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            json.dumps({"k": "x"}),  # missing payload
            json.dumps({"p": [1, 1, 1, 0, 0]}),  # missing key
            json.dumps({"k": "x", "p": [1, 2, 3]}),  # wrong arity
            json.dumps({"k": "x", "p": [1, -1, -1, 0, 0]}),  # negative
            json.dumps({"k": "x", "p": [10, 9, 3, 2, 5]}),  # tallies disagree
            json.dumps({"k": "x", "p": [10, True, True, False, False]}),  # bools
            json.dumps({"k": "x", "p": [1, 5, 5, 0, 0]}),  # analysed > population
            json.dumps({"k": "x", "p": [4, 4, 4.0, 0, 0]}),  # float count
            json.dumps({"k": 5, "p": [1, 1, 1, 0, 0]}),  # non-string key
            json.dumps([1, 2, 3]),  # not an object
        ],
    )
    def test_malformed_entries_are_skipped(self, tmp_path, metrics, bad):
        path = tmp_path / "s.jsonl"
        write_lines(path, [good_header(), bad, good_entry("cc" * 32)])
        loaded = MemoStore(str(path)).load()
        assert list(loaded) == ["cc" * 32]
        assert counter_value("memo.store.invalid") == 1

    def test_non_utf8_entry_skipped_others_survive(self, tmp_path, metrics):
        """A torn write can leave bytes that are not UTF-8 at all."""
        path = tmp_path / "s.jsonl"
        write_lines(path, [good_header(), good_entry("aa" * 32)])
        with open(path, "ab") as fh:
            fh.write(b"\xff\n" + good_entry("bb" * 32).encode() + b"\n\xff")
        loaded = MemoStore(str(path)).load()
        assert list(loaded) == ["aa" * 32, "bb" * 32]
        assert counter_value("memo.store.invalid") == 2

    def test_non_utf8_header_invalidates_everything(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b"\xff" + (good_header() + "\n").encode()
                         + (good_entry() + "\n").encode())
        store = MemoStore(str(path))
        assert store.load() == {}
        assert store._stale
        assert counter_value("memo.store.invalid") == 1


class TestRewrite:
    def test_stale_store_is_rewritten_on_append(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        write_lines(
            path,
            [
                json.dumps({"schema": STORE_SCHEMA, "fingerprint": "stale"}),
                good_entry("dd" * 32),
            ],
        )
        store = MemoStore(str(path))
        assert store.load() == {}
        store.append({"ee" * 32: [3, 3, 1, 1, 1]})
        # The rewritten file has the current header and ONLY the new entry.
        reloaded = MemoStore(str(path)).load()
        assert list(reloaded) == ["ee" * 32]
        assert counter_value("memo.store.invalid") == 1

    def test_append_extends_a_valid_store(self, tmp_path, metrics):
        path = tmp_path / "s.jsonl"
        store = MemoStore(str(path))
        store.append({"k1": [1, 1, 1, 0, 0]})
        second = MemoStore(str(path))
        second.load()
        second.append({"k2": [2, 2, 0, 1, 1]})
        assert set(MemoStore(str(path)).load()) == {"k1", "k2"}

    def test_memoizer_survives_corrupt_store_end_to_end(self, tmp_path, metrics):
        from repro import CacheConfig, analyze, prepare
        from repro.kernels import build_hydro

        cache = CacheConfig.kb(4, 32, assoc=2)
        prepared = prepare(build_hydro(16, 16))
        baseline = analyze(prepared, cache, method="find")

        cache_dir = tmp_path / "memo"
        cache_dir.mkdir()
        write_lines(cache_dir / "cme-memo.jsonl", ["corrupt header", "junk"])
        with Memoizer.open(str(cache_dir)) as memo:
            report = analyze(prepared, cache, method="find", memo=memo)
        assert report == baseline
        assert memo.hits == 0  # nothing usable in the damaged store
        assert counter_value("memo.store.invalid") == 1
        # ... and the damaged file was replaced by a valid warm store.
        with Memoizer.open(str(cache_dir)) as memo2:
            warm = analyze(prepared, cache, method="find", memo=memo2)
        assert warm == baseline
        assert memo2.misses == 0 and memo2.hits > 0

    def test_cli_survives_a_torn_non_utf8_byte(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["analyze", "hydro", "--size", "8", "--cache", "1:32:1",
                "--method", "find", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        with open(tmp_path / "cme-memo.jsonl", "ab") as fh:
            fh.write(b"\xff")
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert " 0 miss(es)" in warm  # every entry before the byte replays

        def ratio(out):
            return out[out.index("miss ratio"):out.index("FindMisses")]

        assert ratio(warm) == ratio(cold)

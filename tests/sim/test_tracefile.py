"""Property tests for the binary trace format (stdlib ``random``, seeded).

The format promise: any ``(uid, address)`` stream whose fields fit the
fixed-width encoding round-trips exactly, and *every* malformed file —
truncation, corruption, wrong version, count/size disagreement — is
rejected with the typed :class:`~repro.errors.TraceFormatError`, never a
bare ``struct.error`` or a silently short read.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.sim.tracefile import (
    HEADER,
    KIND_REF_ADDRESS,
    MAGIC,
    RECORD,
    VERSION,
    import_address_trace,
    pairs_to_arrays,
    read_trace,
    read_trace_arrays,
    write_trace,
)

SEED = 20260808


def random_stream(rng: random.Random, count: int):
    return [
        (rng.randrange(2**32), rng.randrange(2**64)) for _ in range(count)
    ]


# -- round trips ----------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 2, 17, 1000])
def test_round_trip_random_streams(tmp_path, count):
    rng = random.Random(SEED + count)
    pairs = random_stream(rng, count)
    path = tmp_path / "t.trace"
    assert write_trace(path, pairs) == count
    assert read_trace(path) == pairs
    assert path.stat().st_size == HEADER.size + count * RECORD.size


def test_round_trip_boundary_values(tmp_path):
    pairs = [(0, 0), (2**32 - 1, 2**64 - 1), (1, 2**63)]
    path = tmp_path / "t.trace"
    write_trace(path, pairs)
    assert read_trace(path) == pairs


def test_round_trip_arrays_matches_pure_python(tmp_path):
    rng = random.Random(SEED)
    pairs = random_stream(rng, 257)
    path = tmp_path / "t.trace"
    write_trace(path, pairs)
    uids, addrs = read_trace_arrays(path)
    assert uids.dtype == np.uint32 and addrs.dtype == np.uint64
    assert list(zip(uids.tolist(), addrs.tolist())) == pairs
    # Writable copies, not views of the file buffer.
    uids[0] = 1
    addrs[0] = 1


def test_pairs_decode_like_the_file(tmp_path):
    """In-memory pairs decode to the dtypes and values of the file path."""
    rng = random.Random(SEED)
    pairs = random_stream(rng, 257) + [(0, 2**64 - 1), (2**32 - 1, 2**63)]
    path = tmp_path / "t.trace"
    write_trace(path, pairs)
    for got, want in zip(pairs_to_arrays(pairs), read_trace_arrays(path)):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


# -- malformed inputs -----------------------------------------------------------------


def _write_valid(tmp_path, pairs):
    path = tmp_path / "t.trace"
    write_trace(path, pairs)
    return path


def test_truncated_payloads_rejected(tmp_path):
    rng = random.Random(SEED)
    path = _write_valid(tmp_path, random_stream(rng, 25))
    raw = path.read_bytes()
    for cut in sorted(rng.sample(range(len(raw)), 12)):
        path.write_bytes(raw[:cut])
        with pytest.raises(TraceFormatError):
            read_trace(path)


def test_trailing_bytes_rejected(tmp_path):
    path = _write_valid(tmp_path, [(1, 2), (3, 4)])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TraceFormatError, match="trailing"):
        read_trace(path)


def test_corrupt_magic_rejected(tmp_path):
    path = _write_valid(tmp_path, [(1, 2)])
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="magic"):
        read_trace(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_bytes(HEADER.pack(MAGIC, VERSION + 1, KIND_REF_ADDRESS, 0))
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(path)


def test_unknown_record_kind_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_bytes(HEADER.pack(MAGIC, VERSION, 99, 0))
    with pytest.raises(TraceFormatError, match="kind"):
        read_trace(path)


def test_count_field_must_match_payload(tmp_path):
    body = RECORD.pack(1, 2) + RECORD.pack(3, 4)
    path = tmp_path / "t.trace"
    path.write_bytes(HEADER.pack(MAGIC, VERSION, KIND_REF_ADDRESS, 5) + body)
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_bytes(b"")
    with pytest.raises(TraceFormatError, match="too short"):
        read_trace(path)


@pytest.mark.parametrize(
    "uid,addr", [(-1, 0), (2**32, 0), (0, -1), (0, 2**64)]
)
def test_out_of_range_fields_rejected_on_write(tmp_path, uid, addr):
    with pytest.raises(TraceFormatError):
        write_trace(tmp_path / "t.trace", [(uid, addr)])


# -- raw address import ---------------------------------------------------------------


@pytest.mark.parametrize("byteorder", ["big", "little"])
@pytest.mark.parametrize("word_bytes", [2, 4, 8])
def test_import_address_trace_round_trip(tmp_path, byteorder, word_bytes):
    rng = random.Random(SEED ^ word_bytes)
    addresses = [rng.randrange(2 ** (8 * word_bytes)) for _ in range(61)]
    raw = tmp_path / "raw.addr"
    raw.write_bytes(
        b"".join(a.to_bytes(word_bytes, byteorder) for a in addresses)
    )
    pairs = import_address_trace(
        raw, word_bytes=word_bytes, byteorder=byteorder, ref_uid=7
    )
    assert pairs == [(7, a) for a in addresses]


def test_import_address_trace_rejects_ragged_file(tmp_path):
    raw = tmp_path / "raw.addr"
    raw.write_bytes(b"\x01\x02\x03\x04\x05")
    with pytest.raises(TraceFormatError, match="whole number"):
        import_address_trace(raw, word_bytes=4)


def test_import_address_trace_rejects_bad_parameters(tmp_path):
    raw = tmp_path / "raw.addr"
    raw.write_bytes(b"\x00" * 8)
    with pytest.raises(TraceFormatError):
        import_address_trace(raw, word_bytes=0)
    with pytest.raises(TraceFormatError):
        import_address_trace(raw, byteorder="middle")
    with pytest.raises(TraceFormatError):
        import_address_trace(raw, ref_uid=2**32)


def test_imported_trace_flows_into_the_simulator(tmp_path):
    """End to end: a raw external trace replays through simulate_trace."""
    from repro.layout import CacheConfig
    from repro.sim import simulate_trace

    rng = random.Random(SEED)
    addresses = [rng.randrange(4096) for _ in range(300)]
    raw = tmp_path / "raw.addr"
    raw.write_bytes(b"".join(a.to_bytes(4, "big") for a in addresses))
    pairs = import_address_trace(raw)
    out = tmp_path / "ext.trace"
    write_trace(out, pairs)
    report = simulate_trace(out, CacheConfig.kb(1, 32, 2))
    assert report.total_accesses == len(addresses)
    assert 0 < report.total_misses <= len(addresses)

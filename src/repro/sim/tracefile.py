"""Binary trace files: the simulator's on-disk interchange format.

The validation loop of Fig. 7 compares analytical predictions against a
trace-driven simulator.  This module gives the trace a compact, versioned
on-disk form so it can be produced once (by the walker, or by an external
tool the frontend cannot parse) and replayed many times by the
simulator:

* **Header** — ``16`` bytes, little-endian: 4-byte magic ``b"RPCT"``, a
  ``u16`` format version, a ``u16`` record kind and a ``u64`` record
  count.
* **Records** — fixed-width ``12``-byte little-endian pairs
  ``(ref_uid: u32, address: u64)``, one per memory access, in execution
  order.

Fixed-width records make the file random-accessible and let
:func:`read_trace_arrays` map the whole payload into NumPy arrays with a
single structured-dtype ``frombuffer`` — no per-record Python work.  Every
malformed input (bad magic, unknown version/kind, truncated payload, count
that disagrees with the file size) raises the typed
:class:`~repro.errors.TraceFormatError`, never a bare ``struct.error``.

:func:`import_address_trace` adapts the classic *raw address trace* shape
(a bare sequence of fixed-width big- or little-endian words, one address
per word — SNIPPETS.md snippet 1's ``conv``/``sim`` pair) into the same
``(ref_uid, address)`` stream, so external traces flow through the exact
simulator path the walker's own traces take.
"""

from __future__ import annotations

import os
import struct
from typing import Iterable, List, Tuple, Union

from repro.errors import TraceFormatError

#: File magic: "RePro Cache Trace".
MAGIC = b"RPCT"

#: Current (and only) format version.
VERSION = 1

#: Record kind 1: ``(ref_uid: u32, address: u64)`` pairs.
KIND_REF_ADDRESS = 1

#: Header: magic, version, record kind, record count.
HEADER = struct.Struct("<4sHHQ")

#: One access record: reference uid then byte address.
RECORD = struct.Struct("<IQ")

_UID_MAX = 2**32 - 1
_ADDR_MAX = 2**64 - 1

Pathish = Union[str, "os.PathLike[str]"]


def write_trace(path: Pathish, accesses: Iterable[Tuple[int, int]]) -> int:
    """Write ``(ref_uid, address)`` pairs to ``path``; returns the count.

    The pairs are consumed in order (execution order, if the caller wants
    the file to replay faithfully).  Fields outside the fixed-width
    encoding (negative, or past ``u32``/``u64``) raise
    :class:`~repro.errors.TraceFormatError` before anything is written.
    """
    body = bytearray()
    count = 0
    pack = RECORD.pack
    for uid, address in accesses:
        if not 0 <= uid <= _UID_MAX:
            raise TraceFormatError(f"ref uid {uid} does not fit in u32")
        if not 0 <= address <= _ADDR_MAX:
            raise TraceFormatError(f"address {address} does not fit in u64")
        body += pack(uid, address)
        count += 1
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, VERSION, KIND_REF_ADDRESS, count))
        fh.write(body)
    return count


def _read_payload(path: Pathish) -> Tuple[int, bytes]:
    """Validate the header of ``path``; returns ``(count, record_bytes)``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER.size:
        raise TraceFormatError(
            f"{path}: file too short for a trace header "
            f"({len(raw)} < {HEADER.size} bytes)"
        )
    magic, version, kind, count = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise TraceFormatError(
            f"{path}: unsupported trace version {version} (expected {VERSION})"
        )
    if kind != KIND_REF_ADDRESS:
        raise TraceFormatError(f"{path}: unknown record kind {kind}")
    body = raw[HEADER.size:]
    expected = count * RECORD.size
    if len(body) != expected:
        what = "truncated" if len(body) < expected else "trailing bytes in"
        raise TraceFormatError(
            f"{path}: {what} trace ({len(body)} payload bytes for "
            f"{count} records of {RECORD.size} bytes)"
        )
    return count, body


def read_trace(path: Pathish) -> List[Tuple[int, int]]:
    """Read a trace file as a list of ``(ref_uid, address)`` pairs."""
    _, body = _read_payload(path)
    return list(RECORD.iter_unpack(body))


def read_trace_arrays(path: Pathish):
    """Read a trace file as ``(uids, addresses)`` NumPy arrays.

    ``uids`` is ``uint32`` and ``addresses`` is ``uint64``; both are
    writable copies, decoded from the payload in one structured
    ``frombuffer`` — this is the vectorized simulator's ingestion path.
    """
    import numpy as np

    _, body = _read_payload(path)
    records = np.frombuffer(
        body, dtype=np.dtype([("uid", "<u4"), ("addr", "<u8")])
    )
    return records["uid"].astype(np.uint32), records["addr"].astype(np.uint64)


def pairs_to_arrays(pairs: Iterable[Tuple[int, int]]):
    """Decode in-memory ``(ref_uid, address)`` pairs as ``(uids, addresses)``.

    The arrays have the dtypes of :func:`read_trace_arrays` (``uint32``,
    ``uint64``), and fields outside them raise the
    :class:`~repro.errors.TraceFormatError` of :func:`write_trace`.
    """
    import numpy as np

    pairs = list(pairs)
    uids = [u for u, _ in pairs]
    addrs = [a for _, a in pairs]
    if pairs and not (0 <= min(uids) and max(uids) <= _UID_MAX):
        bad = next(u for u in uids if not 0 <= u <= _UID_MAX)
        raise TraceFormatError(f"ref uid {bad} does not fit in u32")
    if pairs and not (0 <= min(addrs) and max(addrs) <= _ADDR_MAX):
        bad = next(a for a in addrs if not 0 <= a <= _ADDR_MAX)
        raise TraceFormatError(f"address {bad} does not fit in u64")
    return (
        np.fromiter(uids, np.uint32, count=len(uids)),
        np.fromiter(addrs, np.uint64, count=len(addrs)),
    )


def import_address_trace(
    path: Pathish,
    word_bytes: int = 4,
    byteorder: str = "big",
    ref_uid: int = 0,
) -> List[Tuple[int, int]]:
    """Adapt a raw address trace into ``(ref_uid, address)`` pairs.

    The input is a bare sequence of fixed-width addresses (``word_bytes``
    each, ``byteorder`` ``"big"`` or ``"little"``) with no header — the
    shape external tracers typically dump.  Every access is attributed to
    the single ``ref_uid`` since raw traces carry no reference identity.
    """
    if word_bytes <= 0:
        raise TraceFormatError(f"word_bytes must be positive, got {word_bytes}")
    if byteorder not in ("big", "little"):
        raise TraceFormatError(f"byteorder must be 'big' or 'little', got {byteorder!r}")
    if not 0 <= ref_uid <= _UID_MAX:
        raise TraceFormatError(f"ref uid {ref_uid} does not fit in u32")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % word_bytes:
        raise TraceFormatError(
            f"{path}: {len(raw)} bytes is not a whole number of "
            f"{word_bytes}-byte address words"
        )
    from_bytes = int.from_bytes
    return [
        (ref_uid, from_bytes(raw[i : i + word_bytes], byteorder))
        for i in range(0, len(raw), word_bytes)
    ]

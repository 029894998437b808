"""Compact binary trace capture / replay.

``scenarios generate`` and ``scenarios run --traces-dir`` save traces in
this format, and :func:`load_trace` replays one (e.g. through
``run_suite(traces=...)``) bit-identically, even across machines and
numpy versions.

Format (little-endian)::

    offset  size  field
    0       4     magic  b"LNTR"
    4       2     format version (currently 1)
    6       4     metadata length M (bytes)
    10      M     metadata, UTF-8 JSON: {"name", "category",
                  "instructions", ...caller extras}
    10+M    20*N  instruction records

Each record is ``<BBHIIQ``: class code (u8), flags (u8: bit0 mispredicted,
bit1 transient), latency (u16), dep1 (u32), dep2 (u32), address (u64).
No timestamps or host details are embedded, so saving the same trace twice
produces byte-identical files.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace

MAGIC = b"LNTR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_RECORD = struct.Struct("<BBHIIQ")
RECORD_BYTES = _RECORD.size

_FLAG_MISPREDICTED = 0x01
_FLAG_TRANSIENT = 0x02


class TraceFormatError(ConfigurationError):
    """Raised when a trace file is malformed or of an unsupported version."""


def records_bytes(trace: Trace) -> bytes:
    """The packed instruction-record section of ``trace``.

    This is the canonical byte serialization of the instruction stream
    (exactly what :func:`save_trace` writes after the header), so it doubles
    as the input for content digests: two traces are bit-identical iff their
    record bytes are equal.
    """
    pack = _RECORD.pack
    body = bytearray()
    for instruction in trace.instructions:
        flags = (_FLAG_MISPREDICTED if instruction.mispredicted else 0) | (
            _FLAG_TRANSIENT if instruction.transient else 0
        )
        body += pack(
            int(instruction.kind),
            flags,
            instruction.latency,
            instruction.dep1,
            instruction.dep2,
            instruction.addr,
        )
    return bytes(body)


def save_trace(
    trace: Trace, path: str, extra_meta: Optional[Dict[str, object]] = None
) -> int:
    """Write ``trace`` to ``path``; returns the number of bytes written.

    ``extra_meta`` is merged into the JSON header (reserved keys ``name``,
    ``category`` and ``instructions`` cannot be overridden).
    """
    meta = dict(extra_meta or {})
    meta.update(
        name=trace.name, category=trace.category, instructions=len(trace.instructions)
    )
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")

    body = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, len(meta_blob)))
    body += meta_blob
    body += records_bytes(trace)
    with open(path, "wb") as handle:
        handle.write(body)
    return len(body)


def read_meta(path: str) -> Dict[str, object]:
    """Read only the JSON metadata header of a trace file."""
    with open(path, "rb") as handle:
        meta, _ = _read_header(handle, path)
    return meta


def decode_records(payload, source: str = "<records>") -> List[Instruction]:
    """Decode a packed record section (the canonical serialization) back
    into :class:`Instruction` objects — the inverse of :func:`records_bytes`."""
    classes = {int(cls): cls for cls in InstrClass}
    try:
        return [
            Instruction(
                kind=classes[kind],
                addr=addr,
                dep1=dep1,
                dep2=dep2,
                latency=latency,
                mispredicted=bool(flags & _FLAG_MISPREDICTED),
                transient=bool(flags & _FLAG_TRANSIENT),
            )
            for kind, flags, latency, dep1, dep2, addr in _RECORD.iter_unpack(payload)
        ]
    except KeyError as exc:
        raise TraceFormatError(f"{source}: unknown instruction class {exc}") from None


def load_trace(path: str) -> Trace:
    """Load a trace saved by :func:`save_trace` (round-trip identical)."""
    with open(path, "rb") as handle:
        meta, expected = _read_header(handle, path)
        payload = handle.read()
    if len(payload) != expected * RECORD_BYTES:
        raise TraceFormatError(
            f"{path}: expected {expected} records "
            f"({expected * RECORD_BYTES} bytes), found {len(payload)} bytes"
        )
    return Trace(
        name=str(meta.get("name", os.path.basename(path))),
        category=str(meta.get("category", "unknown")),
        instructions=decode_records(payload, path),
    )


def _read_header(handle, path: str) -> Tuple[Dict[str, object], int]:
    header = handle.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    magic, version, meta_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: not a trace file (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"{path}: unsupported format version {version}")
    meta_blob = handle.read(meta_len)
    if len(meta_blob) != meta_len:
        raise TraceFormatError(f"{path}: truncated metadata")
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: corrupt metadata ({exc})") from None
    if not isinstance(meta, dict) or "instructions" not in meta:
        raise TraceFormatError(f"{path}: metadata missing the instruction count")
    count = meta["instructions"]
    if not isinstance(count, int) or count < 0:
        raise TraceFormatError(f"{path}: invalid instruction count {count!r}")
    return meta, count

"""Compact binary on-disk trace format.

The format is a small, self-describing container:

* an 8-byte magic (``b"BTBXTRC1"``),
* a JSON header (length-prefixed) carrying the trace name, ISA and metadata,
* a sequence of fixed-size little-endian records, one per instruction:

  ===========  =====  =========================================
  field        bytes  meaning
  ===========  =====  =========================================
  pc           8      instruction virtual address
  target       8      taken target / fall-through address
  size         1      instruction size in bytes
  branch_type  1      index into the BranchType enumeration
  taken        1      0 or 1
  reserved     1      padding for alignment
  ===========  =====  =========================================

This is intentionally close to (but simpler than) the ChampSim trace record,
because the simulator only consumes front-end-relevant fields.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.common.config import ISAStyle
from repro.common.errors import TraceFormatError
from repro.isa.branch import BranchType
from repro.isa.instruction import Instruction
from repro.obs import get_recorder
from repro.traces.trace import Trace

MAGIC = b"BTBXTRC1"
_RECORD = struct.Struct("<QQBBBx")
_BRANCH_TYPES = list(BranchType)
_BRANCH_TYPE_INDEX = {bt: i for i, bt in enumerate(_BRANCH_TYPES)}


def _encode_record(inst: Instruction) -> bytes:
    return _RECORD.pack(
        inst.pc,
        inst.target,
        inst.size,
        _BRANCH_TYPE_INDEX[inst.branch_type],
        1 if inst.taken else 0,
    )


def _decode_record(raw: bytes) -> Instruction:
    pc, target, size, type_index, taken = _RECORD.unpack(raw)
    try:
        branch_type = _BRANCH_TYPES[type_index]
    except IndexError as exc:
        raise TraceFormatError(f"invalid branch type index {type_index}") from exc
    return Instruction(pc=pc, size=size, branch_type=branch_type, taken=bool(taken), target=target)


def write_binary_trace(trace: Trace, path: str | Path) -> None:
    """Serialize ``trace`` to ``path`` in the binary format described above."""
    header = {
        "name": trace.name,
        "isa": trace.isa.value,
        "metadata": trace.metadata,
        "instructions": len(trace),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        for inst in trace:
            handle.write(_encode_record(inst))


def _read_header(handle: BinaryIO) -> dict:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}; not a repro binary trace")
    (header_len,) = struct.unpack("<I", handle.read(4))
    try:
        return json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError("corrupt trace header") from exc


def iter_binary_trace(path: str | Path) -> Iterator[Instruction]:
    """Stream instructions from a binary trace without loading it whole."""
    with open(path, "rb") as handle:
        _read_header(handle)
        while True:
            raw = handle.read(_RECORD.size)
            if not raw:
                return
            if len(raw) != _RECORD.size:
                raise TraceFormatError("truncated trace record")
            yield _decode_record(raw)


def read_binary_trace(path: str | Path) -> Trace:
    """Read a whole binary trace file into an in-memory :class:`Trace`."""
    with get_recorder().span("trace.decode", path=str(path), decoder="scalar"):
        with open(path, "rb") as handle:
            header = _read_header(handle)
            instructions = []
            while True:
                raw = handle.read(_RECORD.size)
                if not raw:
                    break
                if len(raw) != _RECORD.size:
                    raise TraceFormatError("truncated trace record")
                instructions.append(_decode_record(raw))
    declared = header.get("instructions")
    if declared is not None and declared != len(instructions):
        raise TraceFormatError(
            f"header declares {declared} instructions but file contains {len(instructions)}"
        )
    return Trace(
        name=str(header.get("name", Path(path).stem)),
        instructions=instructions,
        isa=ISAStyle(header.get("isa", ISAStyle.ARM64.value)),
        metadata=dict(header.get("metadata", {})),
    )


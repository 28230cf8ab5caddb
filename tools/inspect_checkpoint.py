#!/usr/bin/env python3
"""Dump and verify the KWSK envelope of serialized-sketch / checkpoint files.

Usage: inspect_checkpoint.py [--verify] FILE [FILE ...]

Stdlib-only.  Understands the KWSK envelope (magic, version, type tag,
payload length, trailing CRC-32) of every file written by src/serialize/,
verifies the checksum, and for engine checkpoints (tag CKPT) additionally
decodes the checkpoint header -- vertex count, pass, mid-pass update
offset -- and walks the per-processor table of contents (every section must
lie inside the payload and the sections must tile it exactly), so an
operator can see what a crashed run left behind without linking the C++
library.

Default exit code: 0 if every file parsed and passed its CRC, 1 otherwise.

--verify: machine-friendly deep check with distinct exit codes, so recovery
scripts can decide between "retry the .prev sibling" and "the disk is
lying":
    0  every file intact
    2  at least one file TRUNCATED (short header, payload cut, or a CKPT
       table of contents that runs off the end) and none corrupt
    3  at least one file CORRUPT (bad magic/version, CRC mismatch, or a
       CRC-valid CKPT payload whose section bounds are inconsistent)
    1  other failure (unreadable file, bad usage)
"""

import struct
import sys
import zlib

MAGIC = 0x4B53574B  # 'KWSK' little-endian
HEADER = struct.Struct("<IIIQ")  # magic, version, tag, payload length

TAG_NAMES = {
    "BKGR": "BankGroup",
    "SPRS": "SparseRecoverySketch",
    "DSTE": "DistinctElementsSketch",
    "AGMS": "AgmGraphSketch",
    "TPSP": "TwoPassSpanner",
    "SPFP": "SpanningForestProcessor",
    "KCON": "KConnectivitySketch",
    "KP12": "Kp12Sparsifier",
    "MPSP": "MultipassSpanner",
    "ADSP": "AdditiveSpannerSketch",
    "DEMX": "DemuxProcessor",
    "CKPT": "StreamEngine checkpoint",
}

# Verdicts, in severity order for the --verify exit code.
OK = "ok"
TRUNCATED = "truncated"
CORRUPT = "corrupt"
ERROR = "error"


def fourcc(tag):
    raw = struct.pack("<I", tag)
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        return f"0x{tag:08x}"
    return text if text.isprintable() else f"0x{tag:08x}"


def human(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024.0
    return f"{n} B"


def walk_checkpoint_payload(payload):
    """CKPT payload: u32 n, u64 pass, u64 offset, u64 count, then per
    processor u32 tag + u64 length + that many payload bytes.  The walk is
    the section-bounds check: every entry must fit and the entries must
    tile the payload exactly."""
    head = struct.Struct("<IQQQ")
    if len(payload) < head.size:
        print("  checkpoint payload truncated")
        return TRUNCATED
    n, pass_idx, offset, count = head.unpack_from(payload, 0)
    print(f"  vertices           : {n}")
    print(f"  pass               : {pass_idx}")
    print(f"  updates into pass  : {offset}")
    print(f"  processors         : {count}")
    pos = head.size
    entry = struct.Struct("<IQ")
    for i in range(count):
        if pos + entry.size > len(payload):
            print(f"  processor[{i}]: table of contents truncated")
            return TRUNCATED
        tag, length = entry.unpack_from(payload, pos)
        pos += entry.size
        cc = fourcc(tag)
        name = TAG_NAMES.get(cc, "unknown type")
        if length > len(payload) - pos:
            print(f"  processor[{i}]       : {cc} ({name}), section claims "
                  f"{human(length)} but only {human(len(payload) - pos)} "
                  "remain -- BOUNDS VIOLATION")
            return TRUNCATED
        print(f"  processor[{i}]       : {cc} ({name}), {human(length)}")
        pos += length
    if pos != len(payload):
        # The CRC already passed, so the writer itself produced an
        # inconsistent table: corruption, not a torn write.
        print(f"  CORRUPT: {len(payload) - pos} unparsed trailing bytes")
        return CORRUPT
    return OK


def inspect(path):
    print(f"{path}:")
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        print(f"  cannot read: {e}")
        return ERROR
    if len(blob) < HEADER.size + 4:
        print(f"  TRUNCATED: too short for a KWSK envelope "
              f"({len(blob)} bytes)")
        return TRUNCATED
    magic, version, tag, length = HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        print(f"  CORRUPT: bad magic 0x{magic:08x} (want 0x{MAGIC:08x} "
              "'KWSK')")
        return CORRUPT
    cc = fourcc(tag)
    print(f"  format version     : {version}")
    print(f"  type               : {cc} ({TAG_NAMES.get(cc, 'unknown type')})")
    print(f"  payload            : {human(length)}")
    expected_size = HEADER.size + length + 4
    if len(blob) < expected_size:
        print(f"  TRUNCATED: file is {len(blob)} bytes, envelope needs "
              f"{expected_size}")
        return TRUNCATED
    if len(blob) > expected_size:
        print(f"  note: {len(blob) - expected_size} bytes follow the "
              "envelope (concatenated stream?)")
    (stored_crc,) = struct.unpack_from("<I", blob, HEADER.size + length)
    actual_crc = zlib.crc32(blob[: HEADER.size + length]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        print(f"  CRC MISMATCH: stored 0x{stored_crc:08x}, computed "
              f"0x{actual_crc:08x}")
        return CORRUPT
    print(f"  crc32              : 0x{stored_crc:08x} (ok)")
    if cc == "CKPT":
        payload = blob[HEADER.size : HEADER.size + length]
        return walk_checkpoint_payload(payload)
    return OK


def main(argv):
    args = argv[1:]
    verify = False
    if args and args[0] == "--verify":
        verify = True
        args = args[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if args else 1
    verdicts = [inspect(path) for path in args]
    if not verify:
        return 0 if all(v == OK for v in verdicts) else 1
    if ERROR in verdicts:
        return 1
    if CORRUPT in verdicts:
        return 3
    if TRUNCATED in verdicts:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

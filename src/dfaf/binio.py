"""Little-endian read/write helpers shared by the DFFT feature-file and DFAF
checkpoint codecs, the one way they map a file they read, and the one way
dfaf opens a file it writes.

Each reader takes the exception class to raise, so each format keeps its own
error type. Strings are a u16 byte length followed by utf-8 bytes.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
import sys
from typing import BinaryIO


def open_output(path: str) -> BinaryIO:
    """Open ``path`` for writing, replacing whatever file is there.

    Every file dfaf writes is opened here, under one rule. A regular file at
    ``path`` is unlinked and a new one created, so hard links to it and
    readers that hold it open or mapped keep the old bytes, and the new file
    gets the default mode, not the old one's. Any other path (missing, a
    device, a FIFO, or a symlink, which is written through), or a file the
    unlink fails on, is opened with ``open(path, "wb")`` as it stands.
    Truncating a regular file instead would make ext4 write the new bytes
    back when the file is closed (its replace-via-truncate heuristic), and
    the next truncation wait for them. Nothing is fsynced: a replaced file is
    as durable as a first write to a new path.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass
    return open(path, "wb")


# Linux's MAP_NORESERVE, which the mmap module names only from Python 3.13.
_NORESERVE = getattr(mmap, "MAP_NORESERVE", 0x4000 if sys.platform.startswith("linux") else 0)


def map_private(fh: BinaryIO, size: int, what: str, error: type[Exception]) -> mmap.mmap:
    """The first ``size`` bytes of ``fh``, which the caller has checked
    against ``fstat``, as a copy-on-write mapping: ``mmap.ACCESS_COPY``
    without a swap reservation.

    Arrays on it are writable, and a write lands in a private page of this
    process, never in the file. Linux's default overcommit heuristic refuses
    a reserving private mapping larger than RAM plus swap, so without
    ``MAP_NORESERVE`` such a file could not be read at all. A file that
    shrank below ``size`` since its ``fstat`` raises ``error``. The mapping
    outlives ``fh``: once it is made, another program that truncates the file
    in place makes a later read of a page past the new end raise SIGBUS."""
    try:
        return mmap.mmap(
            fh.fileno(),
            size,
            flags=mmap.MAP_PRIVATE | _NORESERVE,
            prot=mmap.PROT_READ | mmap.PROT_WRITE,
        )
    except ValueError:  # the file is now empty or shorter than size
        raise error(f"{what} shrank while being read") from None


def write_str(fh: BinaryIO, s: str, error: type[Exception]) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise error(f"string too long for format: {len(raw)} bytes")
    fh.write(struct.pack("<H", len(raw)) + raw)


def read_exact(fh: BinaryIO, count: int, what: str, error: type[Exception]) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise error(f"truncated file: wanted {count} bytes of {what}, got {len(raw)}")
    return raw


def read_struct(fh: BinaryIO, fmt: str, what: str, error: type[Exception]) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what, error))


def read_str(fh: BinaryIO, what: str, error: type[Exception]) -> str:
    (count,) = read_struct(fh, "<H", f"{what} length", error)
    try:
        return read_exact(fh, count, what, error).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid utf-8 at byte {exc.start}") from None

"""Little-endian read/write helpers shared by the DFFT feature-file and DFAF
checkpoint codecs.

Each reader takes the exception class to raise, so each format keeps its own
error type. Strings are a u16 byte length followed by utf-8 bytes.
"""

from __future__ import annotations

import struct
from typing import BinaryIO


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

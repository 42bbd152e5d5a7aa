"""The binary record layout of the one polyshannon file, the kernel table.

A record is a 4-byte magic, a u16 version (1), the rest of a fixed
little-endian header, then a body whose size the header determines.  Kernel
tables ("PSKT", :class:`~polyshannon.shannon1d.KernelTable`) are the only
such records; fields and generators live in memory only.  A loader checks
only the bytes (the header, the body size) and then builds its object
through :func:`checked`, so the constructor's checks are the loader's: it
raises :class:`FormatError` on any malformed file, on values the object
rejects included.  A write replaces its target atomically.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

VERSION = 1


class FormatError(ValueError):
    """A file is not a well-formed record of the object it should hold."""


def read_record(path, magic: bytes, head: str) -> tuple[list, bytes]:
    """The header fields after magic and version, and the body bytes.

    ``head`` is the struct format of the whole header, magic and version
    included.  Raises :class:`FormatError` on a file shorter than the header
    or on a wrong magic or version.
    """
    raw = Path(path).read_bytes()
    head_size = struct.calcsize(head)
    if len(raw) < head_size:
        raise FormatError(f"{path} is shorter than its header")
    found, version, *fields = struct.unpack(head, raw[:head_size])
    if found != magic or version != VERSION:
        raise FormatError(f"not a {magic.decode()} version {VERSION} file: {path}")
    return fields, raw[head_size:]


def check_size(path, body: bytes, size: int) -> None:
    """FormatError unless ``body`` holds the ``size`` bytes its header implies."""
    if len(body) != size:
        raise FormatError(f"{path}: {len(body)} body bytes, the header says {size}")


def write_record(path, magic: bytes, head: str, fields, body: bytes) -> None:
    """Write the record ``magic``, version, ``fields`` (the rest of ``head``)
    and ``body`` to ``path``: into a temporary sibling, then renamed over
    ``path``."""
    data = struct.pack(head, magic, VERSION, *fields) + body
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def checked(path, build, *args):
    """``build(*args)`` on values read from ``path``, a ValueError as FormatError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None

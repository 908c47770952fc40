"""The on-disk ``repro-index/1`` artifact container.

An artifact is a single file holding named flat *sections* behind a
checksummed header:

```
offset 0   magic          b"REPROIDX"                    (8 bytes)
offset 8   version        u32 little-endian              (4 bytes)
offset 12  header length  u64 little-endian              (8 bytes)
offset 20  header sha256  raw digest of the header JSON  (32 bytes)
offset 52  header JSON    {"format", "meta", "sections"}
...        body           the section payloads, back to back
```

The header JSON's ``sections`` table maps each section name to
``[offset, length, crc32]`` with offsets relative to the body start.
Integrity is layered: the fixed header's SHA-256 guards the section
table and metadata eagerly (a flipped header byte is caught before
anything is trusted), the header length and section extents are
bounds-checked against the file size eagerly (truncation is caught at
open, and a damaged length field is never read as one), and each
section's CRC-32 is verified on its first access — so a corrupted
section fails closed with a structured :class:`StoreCorruptError` the
moment it is used.  :func:`Artifact.verify` checks every section
eagerly for tools that want the full scan.

Writes are atomic: the artifact is assembled in a same-directory
temporary file, fsynced, and renamed over the destination (followed by
a directory fsync), so readers — including processes attaching mid-write
— only ever see either the old complete artifact or the new one.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import zlib
from typing import Any, Mapping

from repro.errors import StoreCorruptError, StoreFormatError, StoreVersionError

MAGIC = b"REPROIDX"
FORMAT = "repro-index/1"
VERSION = 1

_FIXED = struct.Struct("<8sIQ32s")


def write_artifact(
    path: str, sections: Mapping[str, bytes], meta: Mapping[str, Any]
) -> dict:
    """Atomically write one artifact; returns a small report dict."""
    names = list(sections)
    table: dict[str, list[int]] = {}
    offset = 0
    for name in names:
        payload = sections[name]
        table[name] = [offset, len(payload), zlib.crc32(payload)]
        offset += len(payload)
    header = json.dumps(
        {"format": FORMAT, "meta": dict(meta), "sections": table},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    fixed = _FIXED.pack(MAGIC, VERSION, len(header), hashlib.sha256(header).digest())
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(fixed)
            handle.write(header)
            for name in names:
                handle.write(sections[name])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path)
    return {
        "path": path,
        "bytes": _FIXED.size + len(header) + offset,
        "sections": {name: table[name][1] for name in names},
    }


def fsync_dir(path) -> None:
    """fsync the directory containing ``path`` (durability of renames/creates).

    An fsync'd file whose *directory entry* never reached the disk is
    still lost on power cut; POSIX requires syncing the parent directory
    to persist a create, truncate or ``os.replace``.  Platforms without
    directory file descriptors (Windows) silently skip — there the
    rename itself is the strongest primitive available.
    """
    parent = os.path.dirname(os.path.abspath(str(path)))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Artifact:
    """One attached (mmapped, read-only) ``repro-index/1`` artifact."""

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            with open(path, "rb") as handle:
                fixed = handle.read(_FIXED.size)
                if len(fixed) < _FIXED.size:
                    raise StoreFormatError(
                        f"{path}: too short to be a repro-index artifact "
                        f"({len(fixed)} bytes)",
                        path=path,
                    )
                magic, version, header_len, digest = _FIXED.unpack(fixed)
                if magic != MAGIC:
                    raise StoreFormatError(
                        f"{path}: not a repro-index artifact (bad magic {magic!r})",
                        path=path,
                    )
                if version != VERSION:
                    raise StoreVersionError(
                        f"{path}: artifact format version {version} is not "
                        f"supported (expected {VERSION}); recompile with "
                        "'repro compile'",
                        path=path,
                        found=version,
                        expected=VERSION,
                    )
                # Bound the declared length by the file before reading: a
                # damaged length field must not become a huge allocation.
                size = os.fstat(handle.fileno()).st_size
                if header_len > size - _FIXED.size:
                    raise StoreCorruptError(
                        f"{path}: header length {header_len} exceeds the "
                        f"{size - _FIXED.size} bytes after the fixed header "
                        "(truncated or damaged artifact)",
                        path=path,
                    )
                header = handle.read(header_len)
                if hashlib.sha256(header).digest() != digest:
                    raise StoreCorruptError(
                        f"{path}: header checksum mismatch", path=path
                    )
                try:
                    parsed = json.loads(header.decode("utf-8"))
                except ValueError as exc:
                    raise StoreCorruptError(
                        f"{path}: header is not valid JSON despite a matching "
                        "checksum",
                        path=path,
                    ) from exc
                if parsed.get("format") != FORMAT:
                    raise StoreFormatError(
                        f"{path}: unexpected format {parsed.get('format')!r} "
                        f"(expected {FORMAT!r})",
                        path=path,
                    )
                self.meta: dict = parsed.get("meta", {})
                self._table: dict[str, list[int]] = parsed.get("sections", {})
                self._body_start = _FIXED.size + header_len
                for name, (offset, length, _crc) in self._table.items():
                    if self._body_start + offset + length > size:
                        raise StoreCorruptError(
                            f"{path}: section {name!r} extends past the end of "
                            f"the file (truncated artifact?)",
                            path=path,
                            section=name,
                        )
                if size > self._body_start:
                    self._map = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                else:
                    self._map = None
        except OSError as exc:
            raise StoreFormatError(f"{path}: {exc}", path=path) from exc
        self._verified: set[str] = set()

    def section(self, name: str) -> memoryview:
        """Zero-copy view of one section, CRC-checked on first access."""
        try:
            offset, length, crc = self._table[name]
        except KeyError as exc:
            raise StoreCorruptError(
                f"{self.path}: artifact has no section {name!r}",
                path=self.path,
                section=name,
            ) from exc
        if length == 0:
            return memoryview(b"")
        start = self._body_start + offset
        view = memoryview(self._map)[start : start + length]
        if name not in self._verified:
            if zlib.crc32(view) != crc:
                # Drop the export before raising: the exception's
                # traceback would otherwise keep the view alive and make
                # the subsequent mmap close fail with BufferError.
                view.release()
                raise StoreCorruptError(
                    f"{self.path}: section {name!r} failed its CRC-32 check "
                    "(corrupted artifact)",
                    path=self.path,
                    section=name,
                )
            self._verified.add(name)
        return view

    def verify(self) -> None:
        """Eagerly CRC-check every section (the full-scan integrity pass)."""
        for name in self._table:
            self.section(name)

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None

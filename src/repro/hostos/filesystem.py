"""An in-memory filesystem over the SD-card device.

Byte-accurate capacity accounting (reserving space on the
:class:`~repro.hardware.storage.StorageDevice`) plus timed reads/writes.
Container root filesystems, images pushed by pimaster, and application
data all live here.  Paths are POSIX-style absolute strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.storage import StorageDevice
from repro.sim.kernel import Simulator
from repro.sim.process import Signal


@dataclass
class FileEntry:
    """Metadata for one stored file."""

    path: str
    size: int
    created_at: float
    modified_at: float
    metadata: dict = field(default_factory=dict)


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"path must be absolute, got {path!r}")
    parts = [p for p in path.split("/") if p]
    if any(p in (".", "..") for p in parts):
        raise ValueError(f"path may not contain '.' or '..': {path!r}")
    return "/" + "/".join(parts)


class FileSystem:
    """Flat path-indexed files with directory-prefix queries."""

    def __init__(self, sim: Simulator, device: StorageDevice, owner: str = "") -> None:
        self.sim = sim
        self.device = device
        self.owner = owner
        self._files: Dict[str, FileEntry] = {}

    # -- synchronous metadata operations -------------------------------------

    def exists(self, path: str) -> bool:
        return _normalize(path) in self._files

    def stat(self, path: str) -> FileEntry:
        normalized = _normalize(path)
        try:
            return self._files[normalized]
        except KeyError:
            raise FileNotFoundError(f"{self.owner}: no file {normalized!r}") from None

    def create(self, path: str, size: int, metadata: Optional[dict] = None) -> FileEntry:
        """Create a file *instantly* (no timed I/O): metadata-only setup.

        Use :meth:`write` when the transfer time matters.
        """
        normalized = _normalize(path)
        if normalized in self._files:
            raise FileExistsError(f"{self.owner}: {normalized!r} already exists")
        if size < 0:
            raise ValueError("file size must be >= 0")
        self.device.reserve(size)  # raises StorageFullError
        entry = FileEntry(
            path=normalized,
            size=size,
            created_at=self.sim.now,
            modified_at=self.sim.now,
            metadata=dict(metadata or {}),
        )
        self._files[normalized] = entry
        return entry

    def delete(self, path: str) -> None:
        entry = self.stat(path)
        self.device.release(entry.size)
        del self._files[entry.path]

    def truncate(self, path: str, new_size: int) -> None:
        """Grow or shrink a file's on-disk footprint."""
        entry = self.stat(path)
        if new_size < 0:
            raise ValueError("file size must be >= 0")
        delta = new_size - entry.size
        if delta > 0:
            self.device.reserve(delta)
        elif delta < 0:
            self.device.release(-delta)
        entry.size = new_size
        entry.modified_at = self.sim.now

    def listdir(self, prefix: str) -> list[FileEntry]:
        """Files whose path starts with ``prefix`` (a directory-ish query)."""
        normalized = _normalize(prefix)
        anchored = normalized if normalized.endswith("/") else normalized + "/"
        return sorted(
            (e for p, e in self._files.items() if p.startswith(anchored) or p == normalized),
            key=lambda e: e.path,
        )

    def usage(self) -> int:
        """Total bytes of all files (== device reservation held by this FS)."""
        return sum(e.size for e in self._files.values())

    def wipe(self) -> int:
        """Delete every file, releasing its device reservation.

        Models re-imaging the SD card after a node failure; returns the
        number of bytes freed.
        """
        freed = 0
        for entry in self._files.values():
            self.device.release(entry.size)
            freed += entry.size
        self._files.clear()
        return freed

    # -- timed I/O --------------------------------------------------------------

    def write(self, path: str, size: int, metadata: Optional[dict] = None) -> Signal:
        """Create+write a file; the Signal fires after the device write."""
        self.create(path, size, metadata)  # reserve space up-front

        def run():
            yield self.device.write(size)
            return self.stat(path)

        return self.sim.process(run(), name=f"{self.owner}.fs.write")

    def read(self, path: str) -> Signal:
        """Timed full-file read; the Signal fires with the FileEntry."""
        entry = self.stat(path)

        def run():
            yield self.device.read(entry.size)
            return entry

        return self.sim.process(run(), name=f"{self.owner}.fs.read")

    def copy(self, src: str, dst: str) -> Signal:
        """Timed copy (read + write) within this filesystem.

        Models ``lxc-create`` cloning an image into a container rootfs.
        """
        entry = self.stat(src)
        self.create(dst, entry.size, dict(entry.metadata))

        def run():
            yield self.device.read(entry.size)
            yield self.device.write(entry.size)
            return self.stat(dst)

        return self.sim.process(run(), name=f"{self.owner}.fs.copy")

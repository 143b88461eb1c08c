"""Point-in-time snapshots with atomic install and compaction.

A snapshot materializes a component's full state (an N-Triples graph
dump, a location-table dump) as of one WAL LSN, so recovery replays only
the log suffix past it. Files are written to a temporary name and
atomically renamed into place — a crash mid-snapshot leaves the previous
snapshot intact — and the body is CRC-checked like WAL records, so a
damaged snapshot is detected and an older intact one is used instead.

Layout: ``<dir>/<name>-<lsn:016x>.snap`` with a one-line header::

    #repro-snapshot lsn=<n> epoch=<e> crc=<crc32-of-body:08x>

followed by the body verbatim.
"""

from __future__ import annotations

import os
import pathlib
import re
import zlib
from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Snapshot", "SnapshotStore"]

_HEADER_RE = re.compile(
    r"^#repro-snapshot lsn=(\d+) epoch=(-?\d+|none) crc=([0-9a-f]{8})\n"
)


@dataclass(frozen=True, slots=True)
class Snapshot:
    """One loaded (and verified) snapshot."""

    lsn: int
    epoch: Optional[int]
    body: str
    path: pathlib.Path


class SnapshotStore:
    """Snapshot files for one named component in one directory."""

    def __init__(self, directory, name: str, fsync: bool = False,
                 counters=None) -> None:
        self.directory = pathlib.Path(directory)
        self.name = name
        self.fsync = fsync
        self.counters = counters

    # --------------------------------------------------------------- paths

    def _path(self, lsn: int) -> pathlib.Path:
        return self.directory / f"{self.name}-{lsn:016x}.snap"

    def _candidates(self) -> List[pathlib.Path]:
        """Snapshot files for this component, newest (highest LSN) first."""
        pattern = re.compile(
            rf"^{re.escape(self.name)}-([0-9a-f]{{16}})\.snap$"
        )
        found = []
        if self.directory.is_dir():
            for entry in self.directory.iterdir():
                m = pattern.match(entry.name)
                if m:
                    found.append((int(m.group(1), 16), entry))
        return [path for _, path in sorted(found, reverse=True)]

    # --------------------------------------------------------------- write

    def write(self, lsn: int, body: str, epoch: Optional[int] = None) -> pathlib.Path:
        """Atomically install a snapshot of the state as of *lsn*."""
        self.directory.mkdir(parents=True, exist_ok=True)
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        header = (
            f"#repro-snapshot lsn={lsn} "
            f"epoch={'none' if epoch is None else epoch} crc={crc:08x}\n"
        )
        final = self._path(lsn)
        tmp = final.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            fh.write(body)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        tmp.rename(final)
        if self.counters is not None:
            self.counters.snapshots_written += 1
            self.counters.snapshot_bytes_written += len(header) + len(body)
        return final

    # ---------------------------------------------------------------- load

    def load_latest(self) -> Optional[Snapshot]:
        """The newest intact snapshot, or None.

        Damaged candidates (bad header, CRC mismatch — e.g. a torn write
        on a filesystem without atomic rename) are skipped in favor of
        the next older one.
        """
        for path in self._candidates():
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            m = _HEADER_RE.match(text)
            if not m:
                continue
            body = text[m.end():]
            if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != int(m.group(3), 16):
                continue
            epoch = None if m.group(2) == "none" else int(m.group(2))
            if self.counters is not None:
                self.counters.snapshots_loaded += 1
            return Snapshot(int(m.group(1)), epoch, body, path)
        return None

    # ----------------------------------------------------------- compaction

    def compact(self, keep: int = 1) -> int:
        """Delete all but the newest *keep* snapshots; returns #removed."""
        removed = 0
        for path in self._candidates()[keep:]:
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        return removed

"""Append-only JSONL persistence for campaign runs.

Every campaign record lives in one format: a *shard file*.  Its first
line is a header naming :data:`SHARD_FORMAT`, the part, the fingerprint
of ``(part, config)`` and the shard spec; every further line is one
completed graph, ``{"ordinal", "x", "graph_index", "result"}``.  A
:func:`~repro.parallel.shard.run_shard` output, a cluster worker's file
and a ``run_campaign(checkpoint=...)`` log (shard ``0/1``) are the same
thing, so each is a valid input to the others' readers, and every
reader applies the one record predicate :func:`valid_record`.

Appends are **O(1)** — a single newline-terminated ``os.write`` per
record, never a rewrite of what came before — and a kill at any byte
leaves every previously written record intact.  Crash tolerance is
structural: :class:`JsonlLog.load` scans line by line and remembers the
offset after the last *complete, parseable* line; a torn final line
(the one the kill interrupted) is skipped on read and truncated away
before the next append, so the log never accumulates garbage.  A
fingerprint mismatch or an unrecognized header (including older
checkpoint formats) simply yields an empty log that the first append
rewrites fresh.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Dict, Iterator, List, Optional, Tuple

#: Format tag of shard file headers (checkpoints are one-shard files).
SHARD_FORMAT = "repro-shard-jsonl/1"


def config_fingerprint(part: str, config) -> str:
    """Stable digest of one campaign's identity.

    Frozen-dataclass ``repr`` covers every field deterministically, so
    any change to the preset (X grid, seeds, durations, scenario knobs,
    semantics) changes the fingerprint.
    """
    return hashlib.sha256(f"{part}:{config!r}".encode()).hexdigest()


class JsonlLog:
    """An append-only, torn-tail-tolerant JSONL file with a header.

    The first line is a header object that must match every key of
    ``header`` (a ``format`` tag among them); anything else (missing
    file, other format, stale fingerprint, unreadable JSON) loads as
    empty.  Records are the subsequent lines.

    Appends are single ``write`` calls of a newline-terminated line on
    an ``O_APPEND`` descriptor.  Before the first append after a load,
    the file is truncated to the last valid byte (dropping a torn tail)
    — or rewritten with a fresh header when the existing content was
    not resumable.
    """

    def __init__(self, path: str, header: Dict[str, object]) -> None:
        self.path = path
        self.header = header
        self._valid_bytes = 0
        self._resumable = False
        self._fd: Optional[int] = None
        #: The actual header object of the last successful load (it may
        #: carry keys beyond the expected ones, e.g. a shard index).
        self.loaded_header: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def load(self) -> List[dict]:
        """Read every intact record; tolerates a torn final line.

        Also positions the log for appending: subsequent
        :meth:`append` calls extend the surviving records (or start a
        fresh file when the header did not match).
        """
        self.close()
        records: List[dict] = []
        self._valid_bytes = 0
        self._resumable = False
        self.loaded_header = None
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return records
        offset = 0
        first = True
        for line, end in _complete_lines(raw):
            try:
                data = json.loads(line)
            except ValueError:
                break
            if not isinstance(data, dict):
                break
            if first:
                if not self._header_matches(data):
                    return []
                self.loaded_header = data
                first = False
            else:
                records.append(data)
            offset = end
        self._valid_bytes = offset
        self._resumable = not first and offset > 0
        return records

    def _header_matches(self, data: dict) -> bool:
        return all(data.get(key) == value for key, value in self.header.items())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Persist one record: a single atomic newline-terminated write."""
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._fd is None:
            self._open_for_append()
        os.write(self._fd, line.encode("utf-8"))

    def _open_for_append(self) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if self._resumable:
            # Drop the torn tail (if any), keep every intact record.
            fd = os.open(self.path, os.O_WRONLY)
            try:
                os.ftruncate(fd, self._valid_bytes)
            finally:
                os.close(fd)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        else:
            # Fresh log: write the header via tmp + rename so a kill
            # mid-header never leaves a half-written first line.
            tmp = f"{self.path}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self.header, sort_keys=True) + "\n")
            os.replace(tmp, self.path)
            self._resumable = True
            self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _complete_lines(raw: bytes) -> Iterator[Tuple[bytes, int]]:
    """Yield ``(line, end_offset)`` for every newline-terminated line."""
    start = 0
    while True:
        end = raw.find(b"\n", start)
        if end < 0:
            return
        yield raw[start:end], end + 1
        start = end + 1


class JsonlTail:
    """Incrementally read complete records appended to a JSONL log.

    The coordinator's side of the shard-file liveness protocol: while a
    worker appends to a :class:`JsonlLog`, a tail ``poll()`` returns the
    records that became complete since the previous poll, never blocking
    and never consuming a torn final line (the offset only advances past
    newline-terminated parseable lines, so a record the writer is still
    mid-``write`` on is simply picked up by a later poll).

    Concurrent rewrites are tolerated structurally: if the file shrinks
    below the consumed offset (a resuming worker truncated it, or a
    fresh header replaced an incompatible log) the tail resets and
    re-reads from the start — callers dedupe records by their natural
    key, so re-delivery is harmless.  A truncation the tail never
    observes (the file regrew past the offset between polls) surfaces
    as an unparseable line at the misaligned offset; the tail then
    realigns by re-reading from the start.  A header that does not match
    ``expected_header`` yields no records (it may be a stale file the
    worker is about to replace); it is re-examined on every poll.
    """

    def __init__(
        self,
        path: str,
        *,
        expected_header: Dict[str, object],
    ) -> None:
        self.path = path
        self.expected_header = expected_header
        self._offset = 0
        self._header_ok = False
        #: Complete-but-unparseable record lines skipped so far.
        self.corrupt_lines = 0

    def reset(self) -> None:
        self._offset = 0
        self._header_ok = False

    def poll(self) -> List[dict]:
        """Every record that became complete since the last poll."""
        records, corrupt = self._scan()
        if corrupt:
            # A complete-but-unparseable line almost always means the
            # consumed offset is misaligned: a resuming (or
            # double-issued) worker truncated the file between polls
            # and it grew back past the offset before the shrink check
            # could fire, so we were reading from mid-record.
            # Re-reading from the start realigns on the header; callers
            # dedupe the re-delivered records.  Lines still unparseable
            # from offset zero are genuine corruption: skipped, counted.
            self.reset()
            records, corrupt = self._scan()
            self.corrupt_lines += corrupt
        return records

    def _scan(self) -> Tuple[List[dict], int]:
        """One read from the consumed offset: ``(records, corrupt)``."""
        try:
            with open(self.path, "rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size < self._offset:
                    # Truncated or rewritten underneath us: start over
                    # (callers dedupe, so re-reading is safe).
                    self.reset()
                handle.seek(self._offset)
                raw = handle.read()
        except OSError:
            return [], 0
        records: List[dict] = []
        corrupt = 0
        consumed = 0
        for line, end in _complete_lines(raw):
            if not self._header_ok:
                try:
                    data = json.loads(line)
                except ValueError:
                    data = None
                if not isinstance(data, dict) or any(
                    data.get(key) != value
                    for key, value in self.expected_header.items()
                ):
                    # Stale or foreign header: report nothing and keep
                    # watching from the start of the file.
                    self.reset()
                    return [], 0
                self._header_ok = True
                consumed = end
                continue
            try:
                data = json.loads(line)
            except ValueError:
                data = None
            if isinstance(data, dict):
                records.append(data)
            else:
                corrupt += 1
            consumed = end
        self._offset += consumed
        return records, corrupt


def shard_header(
    part: str, config, shard: Optional[Tuple[int, int]] = None
) -> Dict[str, object]:
    """The header of a shard file of ``(part, config)``.

    ``shard`` is ``(shard_index, shard_count)``; without it the header
    matches a file of any shard spec (what a merge of several files
    expects).
    """
    header: Dict[str, object] = {
        "format": SHARD_FORMAT,
        "part": part,
        "fingerprint": config_fingerprint(part, config),
    }
    if shard is not None:
        header["shard_index"], header["shard_count"] = shard
    return header


def shard_record(ordinal: int, task, result) -> dict:
    """The record of one completed graph (``task`` at ``ordinal``)."""
    return {
        "ordinal": ordinal,
        "x": task.x,
        "graph_index": task.graph_index,
        "result": asdict(result),
    }


def valid_record(
    record: object, n_tasks: int, shard_index: int, shard_count: int
) -> bool:
    """Whether ``record`` is a usable graph record of its shard file.

    The one rule every reader applies: a dict with an int ``ordinal``
    in ``range(n_tasks)``, owned by the file's shard, carrying a dict
    ``result``.  Anything else is re-run by a resuming writer and
    reported as missing by a merge.
    """
    if not isinstance(record, dict):
        return False
    ordinal = record.get("ordinal")
    return (
        type(ordinal) is int
        and 0 <= ordinal < n_tasks
        and ordinal % shard_count == shard_index
        and isinstance(record.get("result"), dict)
    )


__all__ = [
    "SHARD_FORMAT",
    "JsonlLog",
    "JsonlTail",
    "config_fingerprint",
    "shard_header",
    "shard_record",
    "valid_record",
]

"""The one store layer: persistence mechanics every on-disk store shares.

The census checkpoint, the experiment cache, the model artifact and the work
queue keep only their domain checks; each storage decision lives here once:
the structured :class:`StoreError`, the atomic writer
(:func:`write_bytes_atomic` / :func:`write_json_atomic`), the versioned JSON
document reader (:class:`DocumentFormat`) and the JSONL record-file framer
(:class:`RecordFormat`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable


class StoreError(RuntimeError):
    """A stored file is missing, corrupt, stale or from another version.

    Attributes:
        path: The file the error is about (``None`` when not file-specific).
        hint: One-line recovery suggestion (``None`` when the message is
            self-contained), so callers need not parse the message.
    """

    def __init__(self, message: str, *, path: str | Path | None = None,
                 hint: str | None = None):
        """Build the error with optional structured context.

        Args:
            message: The full human-readable description.
            path: The offending file, when one is identifiable.
            hint: One-line recovery suggestion.
        """
        super().__init__(message)
        self.path = Path(path) if path is not None else None
        self.hint = hint

    @classmethod
    def about(cls, noun: str, path: str | Path, detail: str,
              hint: str) -> "StoreError":
        """Build the error in the stores' one message layout.

        Args:
            noun: How the message names the file (``"shard file"``).
            path: The offending file.
            detail: What is wrong with it.
            hint: One-line recovery suggestion.

        Returns:
            The error, message ``"<noun> <path> <detail>; <hint>"``.
        """
        return cls(f"{noun} {path} {detail}; {hint}", path=path, hint=hint)


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Durably replace ``path`` with ``data``.

    Writes and fsyncs ``<path>.tmp``, renames it over ``path`` and fsyncs
    the directory, so a crash at any point leaves either the old file or the
    new one — never a torn one, and never a rename lost to a power cut.

    Args:
        path: Destination file path.
        data: The complete new file content.
    """
    path = Path(path)
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(temp, path)
    directory_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def write_json_atomic(path: str | Path, payload: dict) -> None:
    """Durably replace ``path`` with a JSON document (indented, sorted keys).

    Args:
        path: Destination file path.
        payload: JSON-serialisable document.
    """
    write_bytes_atomic(
        path, json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"))


@dataclass(frozen=True)
class DocumentFormat:
    """A versioned JSON document: a manifest or the queue state.

    Attributes:
        noun: How messages name the file (``"checkpoint manifest"``).
        version: The ``format`` value this code reads.
        error: The :class:`StoreError` subclass to raise.
        hint: Recovery hint for a corrupt or version-skewed file.
    """

    noun: str
    version: int
    error: type[StoreError]
    hint: str

    def read(self, path: str | Path, *, missing: str | None = None) -> dict | None:
        """Read the document at ``path`` and validate its envelope.

        Args:
            path: The document file.
            missing: Recovery hint for an absent file; when ``None`` an
                absent file reads as ``None`` (the caller starts fresh).

        Returns:
            The parsed document (``None`` for an absent optional file).

        Raises:
            StoreError: (as ``self.error``) If a required file is absent, or
                the file is not valid JSON, not an object, or of another
                ``format`` version.
        """
        path = Path(path)
        raw = _read_bytes(self, path, missing)
        if raw is None:
            return None
        try:
            document = json.loads(raw)
        except ValueError as error:
            raise _fail(self, path, f"is not valid JSON ({error})") from error
        if not isinstance(document, dict):
            raise _fail(self, path, f"holds a JSON "
                        f"{type(document).__name__}, not an object")
        version = document.get("format")
        if version != self.version:
            raise _fail(self, path, f"has format version {version!r}, this "
                        f"code reads version {self.version}")
        return document


@dataclass(frozen=True)
class RecordFormat:
    """A JSONL record file closed by one counted completion marker.

    Each line is a JSON object named by its ``kind``: an optional uncounted
    ``header`` on line 1, the ``kind`` records, then exactly one ``marker``
    whose ``count_field`` equals the number of ``kind`` records — so a torn,
    truncated or doubly written file is detected on read.

    Attributes:
        noun: How messages name the file (``"shard file"``).
        kind: The kind of the body records.
        marker: The completion marker's kind (``"shard-complete"``).
        count_field: The marker field carrying the record count.
        error: The :class:`StoreError` subclass to raise.
        hint: Recovery hint for a corrupt file.
        header: The kind of the required line-1 record, if any.
    """

    noun: str
    kind: str
    marker: str
    count_field: str
    error: type[StoreError]
    hint: str
    header: str | None = None

    def write(self, path: str | Path, records: Iterable[dict], *,
              marker_fields: dict | None = None,
              torn_after: int | None = None) -> bool:
        """Write the records (sorted keys) and the marker, then fsync.

        The file is truncated first, so rewriting a torn file self-heals.

        Args:
            path: Destination file.
            records: The records, header first when the format has one.
            marker_fields: Extra marker fields, stored before the count.
            torn_after: Fault injection only — after this many whole
                records write half of the next line, fsync and stop: the
                footprint of a crash mid-write.

        Returns:
            ``True`` when the file is complete, ``False`` when torn.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as stream:
            for record in records:
                line = json.dumps(record, sort_keys=True)
                if torn_after is not None and written >= torn_after:
                    stream.write(line[:max(1, len(line) // 2)])
                    stream.flush()
                    os.fsync(stream.fileno())
                    return False
                stream.write(line + "\n")
                written += 1
            count = written - (1 if self.header else 0)
            stream.write(json.dumps({"kind": self.marker,
                                     **(marker_fields or {}),
                                     self.count_field: count}) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        return True

    def read(self, path: str | Path, *,
             missing: str) -> tuple[list[dict], dict]:
        """Read a record file back, validating its framing.

        Args:
            path: A file written by :meth:`write`.
            missing: Recovery hint for an absent file.

        Returns:
            ``(records, marker)``: the records in file order (header first)
            and the completion marker.

        Raises:
            StoreError: (as ``self.error``) On an absent or non-UTF-8
                file, a truncated last line, an unparsable or non-object line, an unknown or misplaced
                record kind, or a missing, duplicate, malformed or
                miscounting completion marker.
        """
        path = Path(path)
        try:
            raw = _read_bytes(self, path, missing).decode("utf-8")
        except UnicodeDecodeError as error:
            raise _fail(self, path, f"is not UTF-8 text ({error})") from error
        if raw and not raw.endswith("\n"):
            raise _fail(self, path, "ends in a truncated line (no trailing "
                        "newline): the writing process died mid-record")
        kinds = (self.kind, self.header) if self.header else (self.kind,)
        records: list[dict] = []
        marker: dict | None = None
        for number, line in enumerate(raw.splitlines(), start=1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise _fail(self, path, f"line {number} is not valid JSON "
                            f"({error})") from error
            if not isinstance(record, dict):
                raise _fail(self, path, f"line {number} is not a JSON object")
            kind = record.get("kind")
            if kind == self.marker:
                if marker is not None:
                    raise _fail(self, path, f"carries two {self.marker} "
                                "markers (duplicate completion)")
                marker = record
            elif kind not in kinds:
                raise _fail(self, path, f"line {number} has unknown record "
                            f"kind {kind!r} (written by an incompatible "
                            "version)")
            elif marker is not None:
                raise _fail(self, path, f"has {kind} records after the "
                            f"{self.marker} marker (two writers appended to "
                            "the same file)")
            elif self.header and (kind == self.header) != (number == 1):
                raise _fail(self, path, f"line {number} has a misplaced "
                            f"{kind} record")
            else:
                records.append(record)
        if self.header and not records:
            raise _fail(self, path, f"has no {self.header}: the write never "
                        "finished")
        if marker is None:
            raise _fail(self, path, f"has no {self.marker} marker: the write "
                        "never finished")
        count = marker.get(self.count_field)
        if not isinstance(count, int) or isinstance(count, bool):
            raise _fail(self, path, f"has a malformed {self.marker} marker "
                        f"({self.count_field}={count!r})")
        body = len(records) - (1 if self.header else 0)
        if count != body:
            raise _fail(self, path, f"records {body} {self.kind} lines but "
                        f"its {self.marker} marker expects {count}; the file "
                        "lost lines")
        return records, marker


def _read_bytes(spec: DocumentFormat | RecordFormat, path: Path,
                missing: str | None) -> bytes | None:
    """Read ``path``; an absent file is ``None``, or an error with ``missing``."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        if missing is None:
            return None
        raise spec.error(f"no {spec.noun} at {path}; {missing}",
                         path=path, hint=missing) from None


def _fail(spec: DocumentFormat | RecordFormat, path: Path,
          detail: str) -> StoreError:
    """Build ``spec``'s error about ``path``."""
    return spec.error.about(spec.noun, path, detail, spec.hint)

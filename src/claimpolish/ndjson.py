"""One JSON object per line, for corpus files and child pipes alike.

``read_jsonl`` yields a JSON Lines file's records with their line
numbers, ``encode_line`` frames one record, and ``read_json`` /
``write_json`` load and store one-object artifacts. ``open_atomic``,
which ``write_json`` uses, writes any text artifact all or nothing.
``NdjsonChild`` speaks the format over a child's stdin and stdout for
both stdio adapters: one request line, one response line (a result or
``{"error": str}``).
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TextIO


class RecordFormatError(ValueError):
    """A JSON Lines record that violates its file's format; carries the line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


def decode_line(line: str) -> dict:
    """The JSON object on ``line``; ValueError with the reason otherwise."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    return record


def encode_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False) + "\n"


def read_jsonl(path: str | Path, required: Sequence[str] = ()) -> Iterator[tuple[int, dict]]:
    """``(line_no, record)`` for each non-blank line; RecordFormatError
    on a line that is not a JSON object or lacks a ``required`` key."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = decode_line(line)
            except ValueError as exc:
                raise RecordFormatError(line_no, str(exc)) from None
            for key in required:
                if key not in record:
                    raise RecordFormatError(line_no, f"missing key {key!r}")
            yield line_no, record


def read_json(path: str | Path) -> dict:
    """The JSON object a file holds; ValueError naming the file otherwise."""
    try:
        return decode_line(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def open_atomic(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file beside ``path`` that is moved over ``path`` when the
    block ends cleanly: ``path`` holds all old bytes or all new."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, payload: dict) -> None:
    """Store ``payload`` (indent 2, sorted keys, trailing newline) atomically."""
    with open_atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class NdjsonChild:
    """A child spawned on first use and again after it exits.

    Subclasses set ``error``, the exception a failed request raises,
    and ``role``, the name its messages use.
    """

    error: type[Exception] = RuntimeError
    role = "child"

    def __init__(self, command: Sequence[str]):
        self._command = list(command)
        self._proc: subprocess.Popen | None = None

    def _child(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is not None:
            self.close()  # reap the exited child and its pipes before respawning
        if self._proc is None:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def request(self, payload: dict) -> dict:
        """Send one request line and return the decoded response object."""
        proc = self._child()
        try:
            proc.stdin.write(encode_line(payload))
            proc.stdin.flush()
        except BrokenPipeError:
            raise self.error(f"{self.role} process closed its stdin") from None
        line = proc.stdout.readline()
        if not line:
            raise self.error(f"{self.role} process closed its stdout")
        try:
            response = decode_line(line)
        except ValueError:
            raise self.error(f"{self.role} sent malformed JSON: {line!r}") from None
        if "error" in response:
            raise self.error(f"{self.role} error: {response['error']}")
        return response

    def close(self) -> None:
        """Release both pipes (EOF on stdin ends the child) and wait for it."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(BrokenPipeError):  # a request failed writing
            proc.stdin.close()
        proc.stdout.close()
        proc.wait(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

"""One JSON object per line, for corpus files and child pipes alike.

``read_jsonl`` / ``read_json`` parse a JSON Lines file / a one-object
artifact with the caller's parse function and locate (``line N:`` /
``<path>:``) whatever it rejects with ValueError. ``encode_line`` frames
one record; ``write_json`` stores an artifact through ``open_atomic``.
``NdjsonChild`` speaks the format over a child's stdin and stdout for
both stdio adapters: one request line, one response line (a result or
``{"error": str}``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import subprocess
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import TextIO, TypeVar

T = TypeVar("T")

log = logging.getLogger(__name__)

# Seconds a child may take to exit after EOF on its stdin, and again
# after it is terminated, before it is killed.
_CLOSE_GRACE_S = 5.0


class RecordFormatError(ValueError):
    """A JSON Lines record that violates its file's format; carries the line number."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
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


def _parse_record(text: str, required: Sequence[str], parse: Callable[[dict], T]) -> T:
    record = decode_line(text)
    for key in required:
        if key not in record:
            raise ValueError(f"missing key {key!r}")
    return parse(record)


def read_jsonl(
    path: str | Path, required: Sequence[str], parse: Callable[[dict], T]
) -> Iterator[T]:
    """``parse(record)`` per non-blank line; RecordFormatError, naming the line, when
    a line is not UTF-8 or no JSON object, lacks a ``required`` key, or ``parse``
    raises ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    value = _parse_record(line, required, parse)
                except ValueError as exc:
                    raise RecordFormatError(line_no, str(exc)) from None
                yield value
    except UnicodeDecodeError:  # its position is within one buffered chunk
        raise RecordFormatError(*undecodable_line(path)) from None


def undecodable_line(path: str | Path) -> tuple[int, str]:
    """The line of ``path`` that holds its first byte that is not UTF-8,
    numbered as a text-mode read numbers lines, and what is wrong there."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line_no = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
        return line_no, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
    raise ValueError(f"{path} changed while it was read")


def parse_id(value: object, name: str) -> str:
    """A record id: a string, or an int written as its digits."""
    if type(value) not in (str, int):  # bool is an int subclass but not an id
        raise ValueError(f"{name} must be a string or an integer, got {value!r}")
    return str(value)


def read_json(path: str | Path, parse: Callable[[dict], T], required: Sequence[str] = ()) -> T:
    """``parse(record)`` for the one JSON object a file holds; a ValueError names the file."""
    try:
        return _parse_record(Path(path).read_text(encoding="utf-8"), required, parse)
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
        """Release both pipes (EOF on stdin ends the child) and wait for it.

        A child still running ``_CLOSE_GRACE_S`` later is terminated, and
        killed if it outlives a second grace period; either way it is
        reaped and a warning names its role.
        """
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(BrokenPipeError):  # a request failed writing
            proc.stdin.close()
        proc.stdout.close()
        for sent, stop in (("EOF", proc.terminate), ("SIGTERM", proc.kill)):
            try:
                proc.wait(timeout=_CLOSE_GRACE_S)
                return
            except subprocess.TimeoutExpired:
                log.warning(
                    "%s process still running %s s after %s; stopping it",
                    self.role, _CLOSE_GRACE_S, sent,
                )
                stop()
        proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

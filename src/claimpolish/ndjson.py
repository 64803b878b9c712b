"""NDJSON client for an external model process.

Both stdio adapters (``genkit.StdioGenerator``, ``scoring.StdioScorer``)
send one JSON request object per line to a child's stdin and read one
JSON response object per line from its stdout: a result or
``{"error": str}``.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
from collections.abc import Sequence


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
            proc.stdin.write(json.dumps(payload, ensure_ascii=False) + "\n")
            proc.stdin.flush()
        except BrokenPipeError:
            raise self.error(f"{self.role} process closed its stdin") from None
        line = proc.stdout.readline()
        if not line:
            raise self.error(f"{self.role} process closed its stdout")
        try:
            response = json.loads(line)
        except json.JSONDecodeError:
            response = None
        if not isinstance(response, dict):
            raise self.error(f"{self.role} sent malformed JSON: {line!r}")
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

import logging
import signal
import sys

import pytest

from claimpolish import ndjson
from claimpolish.ndjson import NdjsonChild, RecordFormatError, read_jsonl, write_json


def test_read_jsonl_reports_physical_line_after_blank_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n')
    records = read_jsonl(path, (), lambda record: record)
    assert next(records) == {"a": 1}
    with pytest.raises(RecordFormatError) as err:
        next(records)
    assert err.value.line_no == 3
    assert str(err.value) == "line 3: record must be a JSON object"


def test_write_json_keeps_old_bytes_when_payload_fails(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"b": 1, "a": [1.5]})
    before = path.read_bytes()
    assert before == b'{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
    with pytest.raises(TypeError):
        write_json(path, {"a": object()})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_child_is_spawned_on_first_use(tmp_path):
    child = NdjsonChild([str(tmp_path / "missing")])
    with pytest.raises(FileNotFoundError):
        child.request({})
    child.close()


def test_child_respawns_after_exit_and_closes_idempotently(tmp_path):
    # answers one request with its pid, then exits
    script = tmp_path / "once.py"
    script.write_text(
        "import json, os, sys\n"
        "sys.stdin.readline()\n"
        "print(json.dumps({'pid': os.getpid()}), flush=True)\n"
    )
    with NdjsonChild([sys.executable, str(script)]) as child:
        first = child.request({})["pid"]
        child._proc.wait(timeout=5)
        second = child.request({})["pid"]
        assert second != first
        child.close()
        assert child._proc is None
    child.close()


def test_child_that_stopped_reading_raises_the_error_type(tmp_path):
    # answers one request, then closes its stdin but stays alive
    script = tmp_path / "deaf.py"
    script.write_text(
        "import json, os, sys, time\n"
        "sys.stdin.readline()\n"
        "os.close(0)\n"
        "print(json.dumps({}), flush=True)\n"
        "time.sleep(30)\n"
    )
    child = NdjsonChild([sys.executable, str(script)])
    assert child.request({}) == {}
    with pytest.raises(RuntimeError, match="child process closed its stdin"):
        child.request({})
    child._proc.kill()
    child.close()


def _eof_ignoring_child(tmp_path, ignore_sigterm):
    """Answers every request, then sleeps on after EOF; optionally ignores SIGTERM."""
    script = tmp_path / "stuck.py"
    script.write_text(
        "import json, signal, sys, time\n"
        + ("signal.signal(signal.SIGTERM, signal.SIG_IGN)\n" if ignore_sigterm else "")
        + "for line in sys.stdin:\n"
        "    print(json.dumps({'ok': True}), flush=True)\n"
        "time.sleep(60)\n"
    )
    return [sys.executable, str(script)]


@pytest.mark.parametrize(
    "ignore_sigterm, returncode", [(False, -signal.SIGTERM), (True, -signal.SIGKILL)]
)
def test_close_stops_and_reaps_a_child_that_ignores_eof(
    tmp_path, monkeypatch, caplog, ignore_sigterm, returncode
):
    monkeypatch.setattr(ndjson, "_CLOSE_GRACE_S", 0.2)
    child = NdjsonChild(_eof_ignoring_child(tmp_path, ignore_sigterm))
    assert child.request({}) == {"ok": True}  # the SIGTERM handler is set by now
    proc = child._proc
    with caplog.at_level(logging.WARNING, logger="claimpolish.ndjson"):
        child.close()
    assert proc.returncode == returncode
    assert child._proc is None
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings[0] == "child process still running 0.2 s after EOF; stopping it"
    assert len(warnings) == (2 if ignore_sigterm else 1)

import sys

import pytest

from claimpolish.ndjson import NdjsonChild, RecordFormatError, read_jsonl, write_json


def test_read_jsonl_reports_physical_line_after_blank_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n')
    records = read_jsonl(path, (), lambda record: record)
    assert next(records) == (1, {"a": 1})
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

"""Flight recorder invariants: bounded ring, slow/error accounting, cursors.

The recorder's contract with the daemon: every work request leaves exactly
one JSON-safe record; memory is O(capacity) no matter how many requests the
daemon has served, and a capacity below 1 is refused, so there is no
disabled mode; and the monotonic completion sequence backs ``tail
--follow`` via ``wait_for_newer``.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import FlightRecorder, RequestRecord


def _complete_one(recorder, request_id="req-1", op="submit", **fields):
    record = recorder.begin(request_id, op, fields.pop("trace_id", "t1-2-3"))
    for name, value in fields.items():
        setattr(record, name, value)
    return recorder.complete(record)


class TestRequestRecord:
    def test_to_dict_is_json_safe_and_complete(self):
        record = RequestRecord("req-9", "fleet", "t1-a-1")
        record.count_frame("accepted")
        record.count_frame("event")
        record.count_frame("event")
        record.count_frame("done")
        record.outcome = "done"
        snapshot = record.to_dict()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["request_id"] == "req-9"
        assert snapshot["op"] == "fleet"
        assert snapshot["trace_id"] == "t1-a-1"
        assert snapshot["frames"] == {"accepted": 1, "event": 2, "done": 1}
        assert snapshot["outcome"] == "done"
        assert snapshot["error"] is None

    def test_fail_keeps_the_first_error(self):
        record = RequestRecord("req-1", "submit")
        record.fail("ValueError", "first")
        record.fail("RuntimeError", "second")
        assert record.error == {"type": "ValueError", "message": "first"}


class TestFlightRecorder:
    def test_ring_is_bounded_and_oldest_first(self):
        recorder = FlightRecorder(capacity=3, slow_threshold_s=10.0)
        for index in range(7):
            _complete_one(recorder, request_id=f"req-{index}")
        records = recorder.records()
        assert [r["request_id"] for r in records] == ["req-4", "req-5", "req-6"]
        assert [r["seq"] for r in records] == [5, 6, 7]
        assert recorder.records(last=1)[0]["request_id"] == "req-6"
        assert recorder.records(last=0) == []
        dump = recorder.dump()
        assert dump["recorded_total"] == 7
        assert dump["dropped"] == 4
        assert dump["records"] == records

    def test_slow_requests_are_flagged_and_counted(self):
        recorder = FlightRecorder(capacity=4, slow_threshold_s=0.0)
        snapshot = _complete_one(recorder)  # any duration >= 0.0 is "slow"
        assert snapshot["slow"] is True
        fast = FlightRecorder(capacity=4, slow_threshold_s=100.0)
        assert _complete_one(fast)["slow"] is False
        assert recorder.status()["slow_requests"] == 1
        assert fast.status()["slow_requests"] == 0

    def test_last_error_with_age(self):
        recorder = FlightRecorder(capacity=4)
        assert recorder.status()["last_error"] is None
        record = recorder.begin("req-1", "submit")
        record.fail("TimeoutError", "deadline exceeded")
        recorder.complete(record)
        last = recorder.status()["last_error"]
        assert last["type"] == "TimeoutError"
        assert last["message"] == "deadline exceeded"
        assert 0.0 <= last["age_s"] < 60.0
        recorder.note_error("OSError", "socket gone")  # crash outside a request
        assert recorder.status()["last_error"]["type"] == "OSError"

    def test_capacity_zero_is_refused(self):
        # Every admitted request is recorded: there is no disabled mode.
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            FlightRecorder(capacity=0)

    def test_wait_for_newer_returns_only_newer_records(self):
        recorder = FlightRecorder(capacity=8)
        _complete_one(recorder, request_id="req-old")
        cursor = recorder.latest_seq()
        assert recorder.wait_for_newer(cursor, timeout=0.01) == []

        def complete_later():
            _complete_one(recorder, request_id="req-new")

        thread = threading.Thread(target=complete_later)
        thread.start()
        fresh = recorder.wait_for_newer(cursor, timeout=5.0)
        thread.join()
        assert [r["request_id"] for r in fresh] == ["req-new"]
        assert all(r["seq"] > cursor for r in fresh)

    def test_status_shape(self):
        recorder = FlightRecorder(capacity=5, slow_threshold_s=2.5)
        _complete_one(recorder)
        status = recorder.status()
        assert status == {
            "capacity": 5,
            "occupancy": 1,
            "recorded_total": 1,
            "slow_requests": 0,
            "slow_threshold_s": 2.5,
            "last_error": None,
        }
        assert json.loads(json.dumps(status)) == status

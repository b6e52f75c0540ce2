"""Round-trip and validation tests for the bench record schema."""

import json
from pathlib import Path

import pytest

from repro.bench.records import ExperimentTable
from repro.bench.schema import SCHEMA_VERSION, BenchRecord, SchemaError


def make_record(**overrides):
    table = ExperimentTable("figX", "demo table", ["msg_bytes", "TCP"])
    table.add_row(4, 47.43)
    table.add_row(4096, None)  # drop-outs survive serialization
    table.add_note("a note")
    base = dict(
        experiment="figxx",
        title="demo experiment",
        tables={"X": table.to_dict()},
        anchors=[{
            "key": "tcp_latency", "description": "TCP 4-byte latency",
            "measured": 47.43, "group": "X", "unit": "us",
            "paper": 47.5, "rel_tol": 0.05,
            "delta_rel": (47.43 - 47.5) / 47.5, "ok": True,
        }],
        claims=[{"key": "ordered", "description": "latency ordered",
                 "passed": True, "group": "X"}],
        layers={"transport": {"events": 10, "time_s": 1e-4}},
        kinds={"tcp.kernel": {"events": 10, "time_s": 1e-4}},
        git_sha="abc1234",
        seed=None,
        quick=False,
        wall_time_s=1.25,
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        record = make_record()
        back = BenchRecord.from_json(record.to_json())
        assert back.to_dict() == record.to_dict()

    def test_serialization_is_byte_stable(self):
        record = make_record()
        assert record.to_json() == BenchRecord.from_json(record.to_json()).to_json()
        assert record.to_json().endswith("\n")

    def test_file_round_trip(self, tmp_path):
        record = make_record()
        path = tmp_path / "BENCH_figxx.json"
        record.save(str(path))
        assert BenchRecord.load(str(path)).to_dict() == record.to_dict()

    def test_table_rebuild(self):
        table = make_record().table("X")
        assert table.columns == ["msg_bytes", "TCP"]
        assert table.rows[1] == [4096, None]
        assert table.notes == ["a note"]

    def test_committed_baseline_loads_and_keeps_every_written_key(self):
        # Committed version-3 baselines may still carry the retired
        # simulation-mode key: they load, and the key is not written back.
        path = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "baselines" / "BENCH_fig04.json")
        raw = json.loads(path.read_text())
        written = BenchRecord.load(str(path)).to_dict()
        assert set(written) <= set(raw)
        assert all(written[key] == raw[key] for key in written)

    def test_anchor_lookup_and_flags(self):
        record = make_record()
        assert record.anchor("tcp_latency")["paper"] == 47.5
        with pytest.raises(KeyError):
            record.anchor("nope")
        assert record.anchors_ok and record.claims_ok


class TestValidation:
    def test_current_schema_version_written(self):
        assert make_record().to_dict()["schema_version"] == SCHEMA_VERSION

    def test_unsupported_version_rejected(self):
        payload = make_record().to_dict()
        payload["schema_version"] = 999
        with pytest.raises(SchemaError, match="version"):
            BenchRecord.from_dict(payload)

    def test_missing_keys_rejected(self):
        payload = make_record().to_dict()
        del payload["anchors"]
        with pytest.raises(SchemaError, match="anchors"):
            BenchRecord.from_dict(payload)

    def test_empty_tables_rejected(self):
        payload = make_record().to_dict()
        payload["tables"] = {}
        with pytest.raises(SchemaError, match="tables"):
            BenchRecord.from_dict(payload)

    def test_malformed_table_rejected(self):
        payload = make_record().to_dict()
        del payload["tables"]["X"]["rows"]
        with pytest.raises(SchemaError, match="rows"):
            BenchRecord.from_dict(payload)

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            BenchRecord.from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError, match="object"):
            BenchRecord.from_json("[1, 2]")

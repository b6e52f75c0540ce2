"""Unit tests for the benchmark table records."""

import os

import pytest

from repro.bench.records import ExperimentTable, fmt, ratio


class TestFmt:
    def test_none_is_dropout_marker(self):
        assert fmt(None) == "--"

    def test_large_numbers_get_separators(self):
        assert fmt(123456.7) == "123,457"

    def test_small_numbers_keep_precision(self):
        assert fmt(0.00123) == "0.00123"

    def test_mid_numbers(self):
        assert fmt(3.14159) == "3.14"

    def test_strings_pass_through(self):
        assert fmt("tcp") == "tcp"

    def test_zero(self):
        assert fmt(0.0) == "0"


class TestRatio:
    def test_basic(self):
        assert ratio(10.0, 4.0) == 2.5

    def test_none_propagates(self):
        assert ratio(None, 4.0) is None
        assert ratio(4.0, None) is None

    def test_zero_denominator(self):
        assert ratio(4.0, 0.0) is None


class TestExperimentTable:
    def make(self):
        t = ExperimentTable("figX", "demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(2, None)
        t.add_note("a footnote")
        return t

    def test_row_arity_checked(self):
        t = ExperimentTable("figX", "demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_access(self):
        t = self.make()
        assert t.column("a") == [1, 2]
        assert t.column("b") == [2.5, None]

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "figX" in text and "demo" in text
        assert "2.50" in text and "--" in text
        assert "a footnote" in text

    def test_save_round_trip(self, tmp_path):
        t = self.make()
        path = t.save(str(tmp_path))
        assert os.path.basename(path) == "figX.txt"
        assert "demo" in open(path).read()

    def test_to_dict_is_machine_readable(self):
        d = self.make().to_dict()
        assert d["rows"] == [[1, 2.5], [2, None]]
        assert d["columns"] == ["a", "b"]


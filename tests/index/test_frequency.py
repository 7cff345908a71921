"""Unit tests for the frequency table."""

from repro.index.frequency import FrequencyTable


class TestBasics:
    def test_from_lists(self):
        table = FrequencyTable.from_lists({"a": [(0, 1)], "b": [(0, 1), (0, 2)]})
        assert table.frequency("a") == 1
        assert table.frequency("b") == 2

    def test_missing_keyword_is_zero(self):
        assert FrequencyTable().frequency("nope") == 0

    def test_case_insensitive_lookup(self):
        table = FrequencyTable({"john": 3})
        assert table.frequency("John") == 3
        assert "JOHN" in table

    def test_contains_and_len(self):
        table = FrequencyTable({"a": 1, "b": 2})
        assert "a" in table and "c" not in table
        assert len(table) == 2

    def test_keywords_iteration(self):
        table = FrequencyTable({"a": 1, "b": 2})
        assert sorted(table.keywords()) == ["a", "b"]


class TestSetCount:
    def test_updates_in_place_and_zero_drops(self):
        table = FrequencyTable({"john": 3})
        table.set_count("ben", 2)
        table.set_count("john", 4)
        assert dict(table.items()) == {"john": 4, "ben": 2}
        table.set_count("john", 0)
        table.set_count("ghost", 0)
        assert dict(table.items()) == {"ben": 2} and "john" not in table


class TestOrdering:
    def test_rarest_first(self):
        table = FrequencyTable({"common": 1000, "rare": 2, "mid": 30})
        assert table.order_by_frequency(["common", "rare", "mid"]) == [
            "rare",
            "mid",
            "common",
        ]

    def test_absent_keywords_sort_first(self):
        table = FrequencyTable({"a": 5})
        assert table.order_by_frequency(["a", "ghost"]) == ["ghost", "a"]

    def test_stable_on_ties(self):
        table = FrequencyTable({"x": 5, "y": 5, "z": 5})
        assert table.order_by_frequency(["y", "z", "x"]) == ["y", "z", "x"]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        table = FrequencyTable({"john": 3, "ben": 2})
        path = tmp_path / "freq.json"
        table.save(path)
        again = FrequencyTable.load(path)
        assert dict(again.items()) == {"john": 3, "ben": 2}

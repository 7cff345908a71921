"""Unit tests for composite key/record encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexFormatError
from repro.storage import records


class TestKeywordEncoding:
    def test_roundtrip_through_posting_key(self):
        key = records.posting_key("john", b"\x01\x02")
        keyword, dewey = records.split_posting_key(key)
        assert keyword == "john"
        assert dewey == b"\x01\x02"

    def test_rejects_empty_keyword(self):
        with pytest.raises(IndexFormatError):
            records.encode_keyword("")

    def test_rejects_nul_in_keyword(self):
        with pytest.raises(IndexFormatError):
            records.encode_keyword("a\x00b")

    def test_split_rejects_malformed(self):
        with pytest.raises(IndexFormatError):
            records.split_posting_key(b"noseparator")

    def test_unicode_keyword(self):
        key = records.posting_key("café", b"\x05")
        assert records.split_posting_key(key) == ("café", b"\x05")


class TestOrdering:
    def test_postings_group_by_keyword_then_dewey(self):
        keys = [
            records.posting_key("a", b"\x09"),
            records.posting_key("ab", b"\x01"),
            records.posting_key("b", b"\x00"),
            records.posting_key("a", b"\x01"),
        ]
        ordered = sorted(keys)
        pairs = [records.split_posting_key(k) for k in ordered]
        assert pairs == [
            ("a", b"\x01"),
            ("a", b"\x09"),
            ("ab", b"\x01"),
            ("b", b"\x00"),
        ]

    def test_keyword_range_covers_exactly_its_postings(self):
        lo, hi = records.keyword_range("ab")
        inside = records.posting_key("ab", b"\xff\xff")
        outside_prefix = records.posting_key("abc", b"\x00")
        outside_prev = records.posting_key("aa", b"\xff")
        assert lo <= inside < hi
        assert not (lo <= outside_prefix < hi)
        assert not (lo <= outside_prev < hi)

    @given(
        kw1=st.text(alphabet="abcdefg0123", min_size=1, max_size=6),
        kw2=st.text(alphabet="abcdefg0123", min_size=1, max_size=6),
        suffix=st.binary(max_size=4),
    )
    @settings(max_examples=200)
    def test_range_isolation_property(self, kw1, kw2, suffix):
        lo, hi = records.keyword_range(kw1)
        key = records.posting_key(kw2, suffix)
        assert (lo <= key < hi) == (kw1 == kw2)


class TestBlocks:
    def test_pack_unpack_roundtrip(self):
        encodings = [b"", b"\x01", b"\x02\x03", b"\xff" * 10]
        assert records.unpack_block(records.pack_block(encodings)) == encodings

    def test_block_key_ordering(self):
        """A list's first block is keyed by the range's lower bound, later
        ones by their first posting: below every posting, in list order,
        and inside the keyword's range."""
        lo, hi = records.keyword_range("a")
        first, later = records.posting_key("a", b"\x01"), records.posting_key("a", b"\x01\x00")
        assert lo <= records.posting_key("a", b"") < first < later < hi
        assert hi <= records.keyword_range("b")[0]

    @given(
        encodings=st.lists(st.binary(max_size=5), min_size=1, max_size=12, unique=True),
        probe=st.binary(max_size=5),
    )
    def test_find_record_is_a_bisect_over_the_encodings(self, encodings, probe):
        encodings.sort()
        block = records.pack_tagged_block([(enc, 7) for enc in encodings])
        start, end = records.find_record(block, probe)
        below = [enc for enc in encodings if enc < probe]
        assert block[:start] == records.pack_tagged_block([(enc, 7) for enc in below])
        held = records.pack_tagged_block([(probe, 7)]) if probe in encodings else b""
        assert block[start:end] == held
        assert records.first_encoding(block) == encodings[0]

    @given(encodings=st.lists(st.binary(max_size=40), min_size=1, max_size=12))
    def test_block_midpoint_is_a_record_boundary_with_both_sides_occupied(self, encodings):
        block = records.pack_tagged_block([(enc, 0) for enc in encodings])
        mid = records.block_midpoint(block)
        lower, upper = records.unpack_block(block[:mid]), records.unpack_block(block[mid:])
        assert lower + upper == records.unpack_block(block)
        assert lower and (upper or len(encodings) == 1)
        # the first boundary at or past the middle, unless that is the end
        assert len(block[:mid]) - len(lower[-1]) - 1 < len(block) // 2 or len(lower) == 1

    def test_oversized_encoding_rejected(self):
        with pytest.raises(IndexFormatError, match="too long"):
            records.pack_block([b"\x00" * 256])

    def test_truncated_block_rejected(self):
        good = records.pack_block([b"\x01\x02\x03"])
        with pytest.raises(IndexFormatError, match="truncated"):
            records.unpack_block(good[:-1])

    def test_empty_block(self):
        assert records.unpack_block(b"") == []

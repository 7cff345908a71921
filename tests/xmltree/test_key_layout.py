"""Property tests of the integer Dewey-key algebra (``KeyLayout``).

Over random level tables and variable-depth Dewey ids — including the
all-LCA "uncle" probe one ordinal past a level's last child — a key must
order, round-trip, test ancestry and compute LCAs exactly as the tuple
does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeweyError
from repro.xmltree.codec import KeyLayout, PackedDeweyCodec
from repro.xmltree.dewey import is_ancestor_or_self, lca
from repro.xmltree.level_table import LevelTable


@st.composite
def table_and_deweys(draw, count=2):
    """A level table that packs into 64 bits plus *count* ids that fit it.

    Ordinals range up to the fanout itself: ``fanout`` is the uncle probe,
    one past the last real child ``fanout - 1``.
    """
    fanouts = draw(
        st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=9)
    )
    table = LevelTable(fanouts)
    while table.max_dewey_bits > 64:
        fanouts.pop()
        table = LevelTable(fanouts)
    deweys = []
    for _ in range(count):
        depth = draw(st.integers(min_value=0, max_value=len(fanouts)))
        deweys.append(
            (0,) + tuple(
                draw(st.integers(min_value=0, max_value=fanouts[level]))
                for level in range(depth)
            )
        )
    return table, deweys


class TestKeyAlgebra:
    @given(table_and_deweys())
    @settings(max_examples=300, deadline=None)
    def test_order_round_trip_ancestry_lca(self, drawn):
        table, (a, b) = drawn
        layout = KeyLayout(table)
        ka, kb = layout.pack(a), layout.pack(b)
        assert 0 <= ka < 1 << layout.bits
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
        assert layout.unpack(ka) == a and layout.unpack(kb) == b
        assert layout.depth(ka) == len(a) - 1
        assert layout.is_ancestor_or_self(ka, kb) == is_ancestor_or_self(a, b)
        assert (kb & layout.masks[len(a) - 1] == ka) == is_ancestor_or_self(a, b)
        assert layout.unpack(layout.lca(ka, kb)) == lca(a, b)
        assert layout.lca(ka, kb) == layout.lca(kb, ka)

    @given(table_and_deweys(count=1))
    @settings(max_examples=100, deadline=None)
    def test_key_is_the_packed_codec_left_aligned(self, drawn):
        table, (a,) = drawn
        layout = KeyLayout(table)
        assert layout.key_of_encoding(PackedDeweyCodec(table).encode(a)) == layout.pack(a)

    @given(table_and_deweys(count=6))
    @settings(max_examples=100, deadline=None)
    def test_sorting_keys_sorts_documents(self, drawn):
        table, deweys = drawn
        layout = KeyLayout(table)
        assert [layout.unpack(k) for k in sorted(map(layout.pack, deweys))] == sorted(deweys)


class TestWidthAndOverflow:
    def test_width_follows_the_level_table(self):
        assert KeyLayout(LevelTable([6] * 10)).bits == 32  # 30 bits
        assert KeyLayout(LevelTable([6] * 11)).bits == 64  # 33 bits
        assert KeyLayout(LevelTable([14] * 16)).bits == 64  # exactly 64 bits
        assert KeyLayout(LevelTable([6] * 10)).typecode == "I"

    def test_no_layout_past_64_bits(self):
        wide = LevelTable([14] * 17)  # 68 bits
        assert wide.max_dewey_bits > KeyLayout.MAX_BITS
        with pytest.raises(DeweyError):
            KeyLayout(wide)

    def test_full_width_table_keeps_the_algebra(self):
        layout = KeyLayout(LevelTable([14] * 16))
        deep = (0,) + (14,) * 16  # every component the uncle ordinal
        assert layout.unpack(layout.pack(deep)) == deep
        assert layout.pack(deep) == (1 << 64) - 1
        assert layout.unpack(layout.lca(layout.pack(deep), layout.pack(deep[:5] + (0,)))) == deep[:5]

    def test_probes_that_do_not_fit_raise(self):
        layout = KeyLayout(LevelTable([3, 3]))
        with pytest.raises(DeweyError):
            layout.pack((0, 1, 1, 1))  # deeper than the table
        with pytest.raises(DeweyError):
            layout.pack((0, 7))  # 7 + 1 needs a fourth bit
        assert layout.unpack(layout.pack((0, 3))) == (0, 3)  # the uncle fits

    def test_root_is_zero(self):
        layout = KeyLayout(LevelTable([5, 5]))
        assert layout.pack((0,)) == 0
        assert layout.unpack(0) == (0,)
        assert layout.is_ancestor_or_self(0, layout.pack((0, 4, 2)))

"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.xmltree.generate import dblp_like_tree, plant_keywords, school_tree


#: ``pytest --hypothesis-profile=ci`` (the CI tests job): four times the
#: default examples for every test that does not pin its own count — the
#: stateful commit test (tests/index/test_commit.py) scales with it.
settings.register_profile("ci", max_examples=400, deadline=None)


@pytest.fixture
def school():
    """The paper's Figure 1 running example."""
    return school_tree()


@pytest.fixture
def planted_dblp():
    """A small DBLP-like corpus with three planted keywords (4/20/60)."""
    tree = dblp_like_tree(5, venues=3, years_per_venue=3, papers_per_year=10)
    plant_keywords(tree, {"xkrare": 4, "xkmid": 20, "xkbig": 60}, seed=9)
    return tree


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# -- hypothesis strategies ----------------------------------------------------

#: A Dewey number in a small, collision-rich space (root (0,) plus up to
#: four levels of fanout four) — small enough that random lists share
#: ancestors, which is what exercises the SLCA logic.
dewey_st = st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=4).map(
    lambda tail: (0, *tail)
)

#: One keyword list: strictly sorted, non-empty.
keyword_list_st = st.lists(dewey_st, min_size=1, max_size=24).map(
    lambda lst: sorted(set(lst))
)

#: A query: one to four keyword lists.
query_lists_st = st.lists(keyword_list_st, min_size=1, max_size=4)

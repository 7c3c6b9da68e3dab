"""The three pair walkers against the loops they replaced.

``FinCategory.composable_pairs``, ``Diagram.composite`` and
``corr.composable`` must give the items of ``oracles.composable_pairs``,
``oracles.composite`` and ``oracles.fibre_pairs``/``fibre_triples`` in
the same order, on the corpus, on the search cases and on drawn data.
"""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from gpdcorr.corr import Correspondence, composable

from test_search_oracles import CASES


def _values():
    """Every (kind, value) of the corpus, then every diagram of CASES."""
    return corpus.documents() + [("diagram", d) for d, _ in CASES.values()]


def _diagrams():
    return [d for kind, d in _values() if kind == "diagram"] + [
        da[0] for kind, da in _values() if kind == "action"]


def _categories():
    out = []
    for kind, value in _values():
        if kind in ("category", "groupoid"):
            out.append(value)
        elif kind == "complex_of_groups":
            out.append(value.shape)
        elif kind == "correspondence":
            out += [value.left, value.right]
    for d in _diagrams():
        out += d.gr.values()
        if d.shape.category is not None:
            out.append(d.shape.category)
        out.append(d.shape.materialize())
    return out


def _correspondences():
    out = [c for kind, c in _values() if kind == "correspondence"]
    return out + [d.X(g) for d in _diagrams() for g in d.arrows()]


def test_composable_pairs_are_the_double_loops():
    cats = _categories()
    assert len(cats) > 100
    for cat in cats:
        assert cat.composable_pairs() == oracles.composable_pairs(cat)


def test_composites_are_the_length_tests():
    for d in _diagrams():
        arrows = d.arrows()
        assert [d.composite(g, h) for g, h in product(arrows, repeat=2)] == \
            [oracles.composite(d, g, h) for g, h in product(arrows, repeat=2)]


def test_fibre_pairs_are_the_nested_filters():
    corrs = _correspondences()
    for c1, c2 in product(corrs, repeat=2):
        assert list(composable(c1, c2)) == oracles.fibre_pairs(c1, c2)


def test_fibre_triples_are_the_nested_filters():
    for d in _diagrams():
        corrs = [d.X(g) for g in d.arrows()]
        for c1, c2, c3 in product(corrs, repeat=3):
            assert list(composable(c1, c2, c3)) == \
                oracles.fibre_triples(c1, c2, c3)


# anchors: hashable values and unhashable ones, as a broken document has
ANCHORS = [0, 1, "0", (0,), [0], [1], {"a": 0}]


@st.composite
def bare_correspondences(draw):
    """A carrier with r and s values only, which is all composable reads."""
    carrier = range(draw(st.integers(0, 4)))
    r, s = ({x: draw(st.sampled_from(ANCHORS)) for x in carrier}
            for _ in range(2))
    return Correspondence(None, None, carrier, r, s, {}, {})


@given(st.lists(bare_correspondences(), min_size=3, max_size=3))
def test_drawn_fibre_products_are_the_nested_filters(cs):
    c1, c2, c3 = cs
    assert list(composable(c1, c2)) == oracles.fibre_pairs(c1, c2)
    assert list(composable(c1, c2, c3)) == oracles.fibre_triples(c1, c2, c3)


@pytest.mark.parametrize("missing", ["r", "s"])
def test_a_missing_anchor_raises_where_the_loops_raised(missing):
    c = Correspondence(None, None, (0, 1), {0: 0, 1: 0}, {0: 0, 1: 0}, {}, {})
    getattr(c, missing + "map").pop(1)
    for walk in (lambda: list(composable(c, c)),
                 lambda: oracles.fibre_pairs(c, c)):
        with pytest.raises(KeyError, match="1"):
            walk()

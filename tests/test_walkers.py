"""The walkers against the loops they replaced.

``FinCategory.composable_pairs``, ``Diagram.composite`` and
``corr.composable`` must give the items of ``oracles.composable_pairs``,
``oracles.composite`` and ``oracles.fibre_pairs``/``fibre_triples`` in
the same order, on the corpus, on the search cases and on drawn data.
The categories and groupoids whose tables ``fincat.product_table``
builds, and the composable tuples of ``diagram._Tuples``, must equal
those of the double loops in ``oracles``, field by field and item by
item.
"""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from gpdcorr.corr import Correspondence, composable
from gpdcorr.diagram import _Tuples, singleton_thetas
from gpdcorr.fincat import (IS_ORE, PresentedShape, groupoid_completion,
                            ore_check, product_table, slice_category)
from gpdcorr.groupoid import FinGroupoid, Group, germ_groupoid
from gpdcorr.model import model_group_shape

from test_fincat import idempotent_monoid
from test_model import graded_diagram
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


def _items(cat):
    """A category's or groupoid's fields, each dict as its item list."""
    return [cat.objects, list(cat.arrows.items()), list(cat.compose.items()),
            list(cat.identities.items()), cat.truncated,
            list(getattr(cat, "inv", {}).items())]


def _shapes():
    z2 = FinGroupoid.from_group(Group.cyclic(2))
    extra = [PresentedShape.free_monoid(("a", "b"), 3),
             PresentedShape.free_commutative(("a", "b"), 3),
             PresentedShape.path_category(("u", "v"), {"e": ("v", "u"),
                                                       "f": ("u", "v")}, 3),
             PresentedShape.group_shape(z2),
             PresentedShape.finite(idempotent_monoid())]
    graded = [graded_diagram(twist) for twist in ("a", "1")]
    return [d.shape for d in _diagrams() + graded] + extra


def test_materialized_shapes_are_the_double_loops():
    for shape in _shapes():
        for bound in (None, 2):
            assert _items(shape.materialize(bound)) == \
                _items(oracles.materialize(shape, bound))


def test_completions_are_the_double_loops():
    ore = [shape for shape in _shapes()
           if ore_check(shape).status == IS_ORE]
    assert len(ore) > 10
    for shape in ore:
        zz = groupoid_completion(shape, bound=3)
        assert _items(zz.as_fincategory()) == \
            _items(oracles.completion_category(zz))


def test_slice_categories_are_the_double_loops():
    for shape in _shapes():
        for x in shape.objects:
            assert _items(slice_category(shape, x, bound=2)) == \
                _items(oracles.slice_category(shape, x, bound=2))


def test_action_groupoids_are_the_double_loops():
    # every correspondence's left action, and every self-similar group
    # acting on its vertices
    for c in _correspondences():
        assert _items(FinGroupoid.semidirect(
            c.left, c.carrier, c.rmap, c.lact)) == _items(
            oracles.groupoid_semidirect(c.left, c.carrier, c.rmap, c.lact))
    data = [x for kind, x in _values() if kind == "selfsimilar"]
    assert data
    for x in data:
        assert _items(FinGroupoid.transformation(
            x.group, x.vertices, x.vact)) == _items(
            oracles.transformation(x.group, x.vertices, x.vact))


def test_germ_groupoids_are_the_double_loops():
    # the germs of every action's singleton slices
    actions = [da for kind, da in _values() if kind == "action"]
    assert actions
    for d, a in actions:
        thetas = singleton_thetas(d, a)
        gg = germ_groupoid({repr(k): f for k, f in thetas.items()},
                           a.carrier)
        assert _items(gg.to_fingroupoid()) == \
            _items(oracles.germ_fingroupoid(gg))


@pytest.mark.parametrize("twist", ["a", "1"])
def test_graded_groupoids_are_the_loop_and_the_scan(twist):
    d = graded_diagram(twist)
    assert _items(model_group_shape(d).groupoid) == \
        _items(oracles.graded_groupoid(d))


def test_composable_tuples_are_the_breadth_first_loop():
    words = 0
    for d in _diagrams():
        for w in d.shape.arrows():
            if w[2] and d.gen_data:
                comps = [d.gen_data[a] for a in w[2]]
                assert _Tuples(comps).raw == oracles.tuples_raw(comps)
                words += len(comps) > 1
    assert words > 10


# endpoints that are equal across types, as hashing and == both see them
ENDS = [0, 1, 1.0, True, "1", (1,)]


@given(st.dictionaries(st.integers(0, 7), st.tuples(*[st.sampled_from(ENDS)]
                                                    * 2), max_size=8),
       st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))))
def test_product_table_is_the_double_loop(arrows, undefined):
    # products are falsy (0) on the diagonal and None on ``undefined``
    def product(g, h):
        return None if (g, h) in undefined else g - h

    assert list(product_table(arrows, product).items()) == \
        list(oracles.product_table(arrows, product).items())

from hypothesis import given
from hypothesis import strategies as st

from gpdcorr.fincat import (
    FinCategory, PresentedShape, first_of_class, groupoid_completion,
    ore_check, slice_category, validate_category, IS_ORE, NOT_ORE)


def idempotent_monoid():
    # {1, t | t.t = t}
    return FinCategory(
        ("*",), {"1": ("*", "*"), "t": ("*", "*")},
        {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t", ("t", "t"): "t"},
        {"*": "1"})


def z2_category():
    return FinCategory(
        ("*",), {"1": ("*", "*"), "a": ("*", "*")},
        {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("a", "a"): "1"},
        {"*": "1"})


def test_terminal_category_valid():
    assert validate_category(FinCategory.terminal()) == []


def test_injected_associativity_defect_is_named():
    # (t.t).t = u.t = 1 but t.(t.t) = t.u = t
    bad = FinCategory(
        ("*",), {"1": ("*", "*"), "t": ("*", "*"), "u": ("*", "*")},
        {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t",
         ("1", "u"): "u", ("u", "1"): "u",
         ("t", "t"): "u", ("u", "t"): "1", ("t", "u"): "t", ("u", "u"): "u"},
        {"*": "1"})
    report = validate_category(bad)
    assert any("associativity" in line and "'t','t','t'" in line.replace(" ", "")
               for line in report)


def test_path_category_materialized_is_valid():
    shape = PresentedShape.path_category(("L", "R"), {"e": ("R", "L")})
    cat = shape.materialize(2)
    assert validate_category(cat) == []
    # one edge, two identities
    assert len(cat.arrows) == 3


def test_arrow_enumeration_prefix_closed_and_deterministic():
    shape = PresentedShape.free_monoid(("a", "b"), length_bound=3)
    arrows = shape.arrows()
    assert arrows == shape.arrows()
    words = [a[2] for a in arrows]
    for w in words:
        for k in range(len(w)):
            assert w[:k] in words
    assert len(words) == 1 + 2 + 4 + 8


def test_ore_group_shape():
    assert ore_check(PresentedShape.group_shape(z2_category())).status == IS_ORE


def test_ore_free_commutative():
    assert ore_check(PresentedShape.free_commutative(("a", "b"))).status == IS_ORE


def test_ore_free_monoid_two_generators_refuted_with_witness():
    res = ore_check(PresentedShape.free_monoid(("a", "b")), search_depth=4)
    assert res.status == NOT_ORE
    g1, g2 = res.witness
    assert {g1[2], g2[2]} == {("a",), ("b",)}


def test_ore_single_generator_free_monoid():
    assert ore_check(PresentedShape.free_monoid(("t",))).status == IS_ORE


def test_ore_finite_idempotent_monoid():
    res = ore_check(PresentedShape.finite(idempotent_monoid()))
    assert res.status == IS_ORE


def test_ore_parallel_edges_refuted():
    shape = PresentedShape.path_category(
        ("1", "2"), {"h": ("2", "1"), "v": ("2", "1")})
    assert ore_check(shape).status == NOT_ORE


def test_completion_free_monoid_one_generator_bound5():
    shape = PresentedShape.free_monoid(("t",), length_bound=5)
    zz = groupoid_completion(shape, bound=5)
    assert len(zz.classes) == 11
    # classes are indexed by the length difference m - n in [-5, 5]
    diffs = sorted(len(g[2]) - len(h[2]) for (g, h) in zz.classes)
    assert diffs == list(range(-5, 6))


def test_completion_group_is_the_group_itself():
    shape = PresentedShape.group_shape(z2_category())
    zz = groupoid_completion(shape, bound=2)
    assert len(zz.classes) == 2
    c1 = zz.identity("*")
    ca = next(c for c in zz.classes if c != c1)
    assert zz.mul(ca, ca) == c1
    assert zz.inv(ca) == ca


def test_completion_idempotent_monoid_is_trivial_group():
    shape = PresentedShape.finite(idempotent_monoid())
    zz = groupoid_completion(shape, bound=2)
    assert len(zz.classes) == 1


def test_completion_satisfies_groupoid_axioms():
    for shape, bound in [
            (PresentedShape.free_monoid(("t",), length_bound=4), 4),
            (PresentedShape.group_shape(z2_category()), 2),
            (PresentedShape.finite(idempotent_monoid()), 2)]:
        zz = groupoid_completion(shape, bound)
        cat = zz.as_fincategory()
        assert validate_category(cat) == []
        for c in zz.classes:
            assert zz.mul(c, zz.inv(c)) == zz.identity(zz.r(c))
            assert zz.mul(zz.inv(c), c) == zz.identity(zz.s(c))


def test_completion_product_of_classes_that_do_not_meet_is_none():
    shape = PresentedShape.path_category(("L", "R"), {"e": ("R", "L")})
    zz = groupoid_completion(shape, bound=2)
    e = zz.functor(("R", "L", ("e",)))
    assert zz.mul(e, zz.identity("R")) is None
    assert zz.mul(zz.identity("L"), e) is None
    assert zz.mul(e, zz.identity("L")) == zz.mul(zz.identity("R"), e) == e


def test_completion_functor_preserves_composition():
    shape = PresentedShape.free_monoid(("t",), length_bound=4)
    zz = groupoid_completion(shape, bound=4)
    arrows = shape.arrows(2)
    for a in arrows:
        for b in arrows:
            c = shape.compose(a, b)
            if c is None or shape.length(c) > 4:
                continue
            assert zz.mul(zz.functor(a), zz.functor(b)) == zz.functor(c)


def test_slice_category_free_monoid():
    shape = PresentedShape.free_monoid(("t",), length_bound=3)
    dx = slice_category(shape, "*", bound=3)
    assert len(dx.objects) == 4
    assert validate_category(dx) == []
    for g1 in dx.objects:
        for g2 in dx.objects:
            hom = [a for a, (s, d) in dx.arrows.items() if (s, d) == (g1, g2)]
            assert len(hom) == (1 if len(g1[2]) >= len(g2[2]) else 0)


def test_slice_category_group_shape_connected():
    dx = slice_category(PresentedShape.group_shape(z2_category()), "*", bound=1)
    for g1 in dx.objects:
        for g2 in dx.objects:
            assert any((s, d) == (g1, g2) for (s, d) in dx.arrows.values())


def test_slice_category_path_edge():
    shape = PresentedShape.path_category(("L", "R"), {"e": ("R", "L")})
    dx = slice_category(shape, "L", bound=3)
    assert tuple(dx.objects) == (("L", "L", ()),)


def test_common_multiple_found_for_ore_shapes_within_bound():
    shape = PresentedShape.free_commutative(("a", "b"), length_bound=4)
    arrows = [a for a in shape.arrows(2)]
    for g1 in arrows:
        for g2 in arrows:
            found = any(shape.compose(g1, h1) == shape.compose(g2, h2)
                        for h1 in shape.arrows(2) for h2 in shape.arrows(2))
            assert found


def test_completion_free_commutative_two_generators():
    # classes are differences d = m - n of exponent vectors; with
    # |m|, |n| <= 2 the positive and negative parts independently have
    # weight <= 2, giving 6+3+3+3+3+1 == 19 classes
    shape = PresentedShape.free_commutative(("a", "b"), length_bound=2)
    zz = groupoid_completion(shape, bound=2)
    assert len(zz.classes) == 19


@st.composite
def partitions(draw):
    """Items in a drawn order, the class of each, and buckets that are
    unions of classes."""
    n = draw(st.integers(0, 12))
    items = draw(st.permutations(range(n)))
    cls = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    bucket = draw(st.lists(st.integers(0, 2), min_size=6, max_size=6))
    return items, cls, bucket


@given(partitions())
def test_first_of_class_matches_a_pairwise_scan(case):
    items, cls, bucket = case

    def witness(a, b):
        # falsy, but not None: a match all the same
        return (0, "", ())[(a + b) % 3] if cls[a] == cls[b] else None

    def key(a):
        return bucket[cls[a]]

    calls = []

    def same(a, b):
        calls.append((a, b))
        return witness(a, b)

    kept, want = [], []
    for a in items:
        first = next((b for b in kept if witness(a, b) is not None), None)
        if first is None:
            kept.append(a)
        want.append((a, None if first is None else (first, witness(a, first))))
    assert list(first_of_class(items, same, key)) == want
    assert all(key(a) == key(b) for a, b in calls)

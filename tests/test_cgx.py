import pytest

import oracles
from gpdcorr import cli
from gpdcorr.cgx import (
    ComplexOfGroups, compose_morphisms, cone_extend, count_homs,
    fundamental_group, homotopy_check, isotropy_at_infinity,
    model_presentation, morphism_check, presentation_model, validate_cgx,
    GroupPresentation)
from gpdcorr.diagram import validate_diagram
from gpdcorr.errors import NotSupported
from gpdcorr.fincat import FinCategory
from gpdcorr.groupoid import Group
from gpdcorr.model import verify_model


def trivial_groups(cat):
    triv = Group.trivial()
    groups = {x: triv for x in cat.objects}
    homs = {g: {"1": "1"} for g in cat.arrow_ids()}
    twists = {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()
              if cat.composable(g, h)}
    return ComplexOfGroups(cat, groups, homs, twists)


def single_arrow_cat():
    return FinCategory(
        ("x", "y"),
        {("i", "x"): ("x", "x"), ("i", "y"): ("y", "y"), "g": ("y", "x")},
        {(("i", "x"), ("i", "x")): ("i", "x"),
         (("i", "y"), ("i", "y")): ("i", "y"),
         (("i", "x"), "g"): "g", ("g", ("i", "y")): "g"},
        {"x": ("i", "x"), "y": ("i", "y")})


def cx_single_arrow():
    return trivial_groups(single_arrow_cat())


def cx_free_product():
    cat = FinCategory(
        ("x", "y"), {("i", "x"): ("x", "x"), ("i", "y"): ("y", "y")},
        {(("i", "x"), ("i", "x")): ("i", "x"),
         (("i", "y"), ("i", "y")): ("i", "y")},
        {"x": ("i", "x"), "y": ("i", "y")})
    z2, z3 = Group.cyclic(2), Group.cyclic(3)
    groups = {"x": z2, "y": z3}
    homs = {("i", "x"): {g: g for g in z2}, ("i", "y"): {g: g for g in z3}}
    twists = {(("i", "x"), ("i", "x")): "1", (("i", "y"), ("i", "y")): "1"}
    return ComplexOfGroups(cat, groups, homs, twists)


def cx_twist():
    cat = FinCategory(
        ("x", "y", "z"),
        {("i", "x"): ("x", "x"), ("i", "y"): ("y", "y"),
         ("i", "z"): ("z", "z"), "g": ("y", "x"), "h": ("z", "y"),
         "gh": ("z", "x")},
        {(("i", "x"), ("i", "x")): ("i", "x"),
         (("i", "y"), ("i", "y")): ("i", "y"),
         (("i", "z"), ("i", "z")): ("i", "z"),
         (("i", "x"), "g"): "g", ("g", ("i", "y")): "g",
         (("i", "y"), "h"): "h", ("h", ("i", "z")): "h",
         (("i", "x"), "gh"): "gh", ("gh", ("i", "z")): "gh",
         ("g", "h"): "gh"},
        {"x": ("i", "x"), "y": ("i", "y"), "z": ("i", "z")})
    triv, z2 = Group.trivial(), Group.cyclic(2)
    groups = {"x": triv, "y": triv, "z": z2}
    homs = {a: ({"1": "1"} if cat.src(a) != "z" else
                ({g: g for g in z2} if cat.dst(a) == "z" else {"1": "1"}))
            for a in cat.arrow_ids()}
    twists = {(a, b): groups[cat.src(b)].identity
              for a in cat.arrow_ids() for b in cat.arrow_ids()
              if cat.composable(a, b)}
    twists[("g", "h")] = "a"
    return ComplexOfGroups(cat, groups, homs, twists)


def idempotent_loop_cat():
    return FinCategory(
        ("*",), {"1": ("*", "*"), "t": ("*", "*")},
        {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t", ("t", "t"): "t"},
        {"*": "1"})


def cx_loop(order=2):
    cat = idempotent_loop_cat()
    group = Group.cyclic(order)
    homs = {a: {g: g for g in group} for a in cat.arrow_ids()}
    twists = {(a, b): "1" for a in cat.arrow_ids() for b in cat.arrow_ids()
              if cat.composable(a, b)}
    return ComplexOfGroups(cat, {"*": group}, homs, twists)


CORPUS = [cx_single_arrow, cx_free_product, cx_twist, cx_loop]


def test_corpus_valid():
    for maker in CORPUS:
        report, flags = validate_cgx(maker())
        assert report == []


def test_injective_loopfree_flag():
    _, flags = validate_cgx(cx_twist())
    assert flags["injective_loopfree"]
    _, flags = validate_cgx(cx_loop())
    assert not flags["injective_loopfree"]


def test_wrong_twist_reported():
    c = cx_twist()
    # extend to a shape with a composable triple by twisting a unit pair
    bad = ComplexOfGroups(c.shape, c.groups, c.homs, dict(c.twists))
    bad.twists[(("i", "x"), "g")] = None
    bad.twists[(("i", "x"), "g")] = "1"
    bad.homs["gh"] = {"1": "1"}
    bad.twists[("g", "h")] = "a"
    report, _ = validate_cgx(bad)
    assert report == []  # still fine: no composable triple constrains u
    z3cat = FinCategory(
        ("*",), {"1": ("*", "*"), "c": ("*", "*"), "c2": ("*", "*")},
        {("1", "1"): "1", ("1", "c"): "c", ("c", "1"): "c",
         ("1", "c2"): "c2", ("c2", "1"): "c2", ("c", "c"): "c2",
         ("c", "c2"): "1", ("c2", "c"): "1", ("c2", "c2"): "c"},
        {"*": "1"})
    z2 = Group.cyclic(2)
    homs = {a: {g: g for g in z2} for a in z3cat.arrow_ids()}
    twists = {(a, b): "1" for a in z3cat.arrow_ids()
              for b in z3cat.arrow_ids()}
    twists[("c", "c")] = "a"
    broken = ComplexOfGroups(z3cat, {"*": z2}, homs, twists)
    report, _ = validate_cgx(broken)
    assert any("cocycle" in line for line in report)


def test_all_trivial_single_arrow_is_free_on_one_generator():
    p = fundamental_group(cx_single_arrow())
    assert p.generators == (("arr", "g"),)
    assert p.relators == ()


def test_one_object_group_is_its_own_fundamental_group():
    cat = FinCategory(("*",), {"1": ("*", "*")}, {("1", "1"): "1"},
                      {"*": "1"})
    z3 = Group.cyclic(3)
    c = ComplexOfGroups(cat, {"*": z3}, {"1": {g: g for g in z3}},
                        {("1", "1"): "1"})
    p = fundamental_group(c)
    assert len(p.generators) == 2
    assert count_homs(p, 3) == 3


def test_free_product_hom_count():
    p = fundamental_group(cx_free_product())
    # maps Z/2 * Z/3 -> S3: 4 involutive images times 3 cubic images
    assert count_homs(p, 3) == 12


def test_count_homs_examples():
    free = GroupPresentation((("arr", "g"),), ())
    assert count_homs(free, 3) == 6
    involution = GroupPresentation(
        (("arr", "g"),), (((("arr", "g"), 1), (("arr", "g"), 1)),))
    assert count_homs(involution, 3) == 4
    trivial = GroupPresentation((), ())
    assert count_homs(trivial, 3) == 1


# A free group of rank 2 times <a | a^2>: (7!)^2 times the 232 involutions
# of S_7, counting the identity.  One leaf per homomorphism would be about
# 5.9e9 leaves.
TWIST_HOMS_7 = 5040 ** 2 * 232


def test_count_homs_factorises_instead_of_enumerating():
    assert count_homs(fundamental_group(cx_twist()), 7) == TWIST_HOMS_7


def test_count_homs_factorises_through_cli(tmp_path, capsys):
    path = tmp_path / "twist.json"
    path.write_text(cli.dumps(cli.envelope(
        "complex_of_groups", cli.complex_payload(cx_twist()))),
        encoding="utf-8")
    assert cli.main(["cgx", str(path), "homs", "-n", "7"]) == 0
    assert capsys.readouterr().out == f"{TWIST_HOMS_7}\n"


def test_loop_fundamental_group_is_z2():
    p = fundamental_group(cx_loop())
    # the idempotent loop forces t == 1, leaving Z/2
    for n in range(2, 5):
        expected = count_homs(GroupPresentation(
            (("x", "a"),), (((("x", "a"), 1), (("x", "a"), 1)),)), n)
        assert count_homs(p, n) == expected


def test_model_presentation_discrete_and_tree():
    p = model_presentation(cx_free_product())
    assert set(p.objects) == {"x", "y"}
    assert all(sym[0] == "elt" for sym in p.generators)
    tree = model_presentation(cx_single_arrow())
    assert list(tree.generators) == [("arr", "g")]
    assert tree.relators == ()


def test_cone_extend_shape_and_twists():
    c = cx_single_arrow()
    ext = cone_extend(c)
    assert len(ext.shape.objects) == 3
    report, _ = validate_cgx(ext)
    assert report == []
    assert ext.twists[(("0", "g"), ("0", ("i", "y")))] == "1"


def test_cone_extend_corpus_validates():
    for maker in CORPUS:
        report, _ = validate_cgx(cone_extend(maker()))
        assert report == []


def test_second_cone_is_refused():
    # a second cone point would repeat the object "inf"
    c = cone_extend(cx_single_arrow())
    for op in (cone_extend, isotropy_at_infinity):
        with pytest.raises(NotSupported, match="an object 'inf'"):
            op(c)


def test_cone_model_presentation_is_transitive():
    # every object is connected to the cone point by h_x
    c = cx_free_product()
    pres = model_presentation(cone_extend(c))
    for x in c.shape.objects:
        sym = ("arr", ("inf", c.shape.identity(x)))
        assert pres.generators[sym] == ("inf", x)


def test_isotropy_equals_fundamental_group():
    for maker in CORPUS:
        c = maker()
        assert isotropy_at_infinity(c) == fundamental_group(c)


def test_isotropy_hom_counts_agree():
    for maker in CORPUS:
        c = maker()
        p1, p2 = fundamental_group(c), isotropy_at_infinity(c)
        for n in (2, 3):
            assert count_homs(p1, n) == count_homs(p2, n)


def test_presentation_model_matches_diagram_actions():
    for maker in (cx_single_arrow, cx_loop):
        c = maker()
        d, pm = presentation_model(c)
        assert validate_diagram(d) == []
        assert verify_model(d, pm, 3)


def identity_morphism(c):
    psis = {x: {g: g for g in c.groups[x]} for x in c.shape.objects}
    vs = {g: c.groups[c.shape.src(g)].identity for g in c.shape.arrow_ids()}
    return psis, vs


def test_identity_morphism_valid_and_composes():
    for maker in CORPUS:
        c = maker()
        m = identity_morphism(c)
        assert morphism_check(c, c, *m) == []
        mm = compose_morphisms(c, c, c, m, m)
        assert morphism_check(c, c, *mm) == []


def test_morphism_defect_named():
    c = cx_loop()
    psis, vs = identity_morphism(c)
    bad = dict(vs)
    bad["t"] = "a"
    report = morphism_check(c, c, psis, bad)
    assert report != []


def test_homotopy_identity_and_defect():
    c = cx_loop()
    m = identity_morphism(c)
    ws = {x: c.groups[x].identity for x in c.shape.objects}
    assert homotopy_check(c, c, m, m, ws) == []
    # w == a is also a homotopy from the identity to itself here
    wa = {"*": "a"}
    assert homotopy_check(c, c, m, m, wa) == []
    psis, vs = identity_morphism(c)
    twisted = dict(vs)
    twisted["t"] = "a"
    # identity vs twisted morphisms are not homotopic through w == 1
    report = homotopy_check(c, c, m, (psis, twisted), ws)
    assert report != []


def test_presentations_match_oracles():
    # model_presentation is the one builder; the oracles keep the separate
    # generator list and the two-pass isotropy rewrite it replaced.  The
    # isotropy runs on the complexes only: it cone-extends them itself, and
    # refuses a second cone.
    complexes = [maker() for maker in CORPUS] + [cx_loop(3)]
    for c in complexes + [cone_extend(c) for c in complexes]:
        got, want = model_presentation(c), oracles.model_presentation(c)
        assert (got.objects, tuple(got.generators.items()), got.relators) \
            == (want.objects, tuple(want.generators.items()), want.relators)
        got, want = fundamental_group(c), oracles.fundamental_group(c)
        assert (got.generators, got.relators) == \
            (want.generators, want.relators)
    for c in complexes:
        got, want = isotropy_at_infinity(c), oracles.isotropy_at_infinity(c)
        assert (got.generators, got.relators) == \
            (want.generators, want.relators)

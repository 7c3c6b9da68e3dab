import pytest

from corpus import e1
from gpdcorr.corr import (Correspondence, from_group_hom,
                          identity_correspondence, space_correspondence)
from gpdcorr.diagram import (
    FAction, action_from_theta, compose_transformations, discrete_diagram,
    enumerate_actions, equivariant_maps, from_complex, from_generators,
    identity_transformation, invariant_check, singleton_thetas,
    validate_action, validate_diagram, validate_modification,
    validate_transformation)
from gpdcorr.errors import ConditionFailed, HexagonViolation, ParseError
from gpdcorr.fincat import FinCategory, PresentedShape
from gpdcorr.groupoid import FinGroupoid, Group, PartialBijection
from gpdcorr.selfsim import iterate


def swap_correspondence():
    return space_correspondence(
        (0, 1), (0, 1), {("x", 0): 1, ("x", 1): 0},
        {("x", 0): 0, ("x", 1): 1}, carrier=[("x", 0), ("x", 1)])


def swap_diagram(bound=3):
    shape = PresentedShape.free_monoid(("t",), length_bound=bound)
    return from_generators(shape, {"t": swap_correspondence()})


def point_diagram(bound=3):
    shape = PresentedShape.free_monoid(("t",), length_bound=bound)
    pt = space_correspondence(("*",), ("*",), {"p": "*"}, {"p": "*"},
                              carrier=("p",))
    return from_generators(shape, {"t": pt})


def e1_diagram(bound=3):
    shape = PresentedShape.free_monoid(("t",), length_bound=bound)
    d = from_generators(shape, {"t": iterate(e1(), 1)})
    d.selfsim = e1()
    return d


def z3_category():
    return FinCategory(
        ("*",), {"1": ("*", "*"), "c": ("*", "*"), "c2": ("*", "*")},
        {("1", "1"): "1", ("1", "c"): "c", ("c", "1"): "c",
         ("1", "c2"): "c2", ("c2", "1"): "c2", ("c", "c"): "c2",
         ("c", "c2"): "1", ("c2", "c"): "1", ("c2", "c2"): "c"},
        {"*": "1"})


def swap_action(d):
    """The canonical action of the swap diagram on its base points."""
    t = ("*", "*", ("t",))
    alph = {t: {((("x", v),), v): 1 - v for v in (0, 1)}}
    gact = {(("u", v), v): v for v in (0, 1)}
    return FAction(d, (0, 1), {0: "*", 1: "*"}, {0: 0, 1: 1}, gact, alph)


def test_free_extension_of_single_correspondence_valid():
    for d in (swap_diagram(), point_diagram(), e1_diagram()):
        assert validate_diagram(d) == []


def test_path_shape_diagram_valid():
    shape = PresentedShape.path_category(
        ("L", "R"), {"e1": ("L", "R"), "e2": ("R", "L")}, length_bound=3)
    c1 = space_correspondence(("a", "b"), ("m",), {0: "a", 1: "b"},
                              {0: "m", 1: "m"}, carrier=(0, 1))
    c2 = space_correspondence(("m",), ("a", "b"), {2: "m"}, {2: "a"},
                              carrier=(2,))
    d = from_generators(shape, {"e1": c1, "e2": c2})
    assert validate_diagram(d) == []


def test_complex_diagram_with_twist_valid():
    z2 = Group.cyclic(2)
    cat = z3_category()
    groups = {"*": z2}
    homs = {a: {"1": "1", "a": "a"} for a in cat.arrow_ids()}
    twists = {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()}
    d = from_complex(cat, groups, homs, twists)
    assert validate_diagram(d) == []


def test_cocycle_violation_named_in_coherence():
    z2 = Group.cyclic(2)
    cat = z3_category()
    groups = {"*": z2}
    homs = {a: {"1": "1", "a": "a"} for a in cat.arrow_ids()}
    twists = {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()}
    twists[("c", "c")] = "a"
    d = from_complex(cat, groups, homs, twists)
    report = validate_diagram(d)
    assert any("associativity coherence" in line for line in report)


def test_tampered_mu_reported():
    d = swap_diagram()
    t, tt = ("*", "*", ("t",)), ("*", "*", ("t", "t"))
    table = dict(d.mu[(t, t)])
    (k1, v1), (k2, v2) = list(table.items())[:2]
    table[k1], table[k2] = v2, v1
    d.mu[(t, t)] = table
    assert validate_diagram(d) != []


def test_hexagon_violation_named():
    # the (a, b) braiding twists the a-letter only when the b-letter is
    # b1, and the (b, c) braiding always flips the b-letter; the two
    # hexagon routes then twist the a-letter under opposite conditions
    shape = PresentedShape.free_commutative(("a", "b", "c"), length_bound=3)
    pts = {}
    for letter in ("a", "b", "c"):
        pts[letter] = space_correspondence(
            ("*",), ("*",), {(letter, i): "*" for i in (0, 1)},
            {(letter, i): "*" for i in (0, 1)},
            carrier=[(letter, 0), (letter, 1)])
    flipa = {("a", 0): ("a", 1), ("a", 1): ("a", 0)}
    flipb = {("b", 0): ("b", 1), ("b", 1): ("b", 0)}
    sigma = {
        ("a", "b"): {(x, y): (y, flipa[x] if y == ("b", 1) else x)
                     for x in pts["a"].carrier for y in pts["b"].carrier},
        ("a", "c"): {(x, z): (z, x) for x in pts["a"].carrier
                     for z in pts["c"].carrier},
        ("b", "c"): {(y, z): (z, flipb[y]) for y in pts["b"].carrier
                     for z in pts["c"].carrier}}
    with pytest.raises(HexagonViolation) as exc:
        from_generators(shape, pts, braidings=sigma)
    assert exc.value.triple == ("a", "b", "c")


def test_commutative_diagram_from_generators_valid():
    shape = PresentedShape.free_commutative(("a", "b"), length_bound=3)
    two = space_correspondence(
        ("*",), ("*",), {("a", i): "*" for i in (0, 1)},
        {("a", i): "*" for i in (0, 1)}, carrier=[("a", 0), ("a", 1)])
    one = space_correspondence(("*",), ("*",), {("b", 0): "*"},
                               {("b", 0): "*"}, carrier=[("b", 0)])
    sigma = {("a", "b"): {(x, y): (y, x) for x in two.carrier
                          for y in one.carrier}}
    d = from_generators(shape, {"a": two, "b": one}, braidings=sigma)
    assert validate_diagram(d) == []


def z2_commutative_diagram():
    """Two letters, both Z/2 acting on itself, braided by swapping."""
    z2 = Group.cyclic(2)
    gens = {k: from_group_hom(z2, z2, {g: g for g in z2})
            for k in ("a", "b")}
    sigma = {("a", "b"): {(x, y): (y, x) for x in z2 for y in z2}}
    return from_generators(PresentedShape.free_commutative(("a", "b")), gens,
                           braidings=sigma)


@pytest.mark.parametrize("key, value", [
    (("a", "1"), None),             # a composable pair left out
    (("a", "1"), ("1", 7)),         # a value that names no point
    (("a", "1"), ("1",)),           # a value that is no pair
    (("a", "x"), ("1", "a")),       # a key that names no point
], ids=["partial", "value", "short", "key"])
def test_braiding_takes_composable_pairs_to_composable_pairs(key, value):
    z2 = Group.cyclic(2)
    gens = {k: from_group_hom(z2, z2, {g: g for g in z2})
            for k in ("a", "b")}
    sigma = {(x, y): (y, x) for x in z2 for y in z2}
    if value is None:
        del sigma[key]
    else:
        sigma[key] = value
    with pytest.raises(ParseError):
        from_generators(PresentedShape.free_commutative(("a", "b")), gens,
                        braidings={("a", "b"): sigma})


def test_commutative_diagram_over_a_group_braids_through_classes():
    # both letters are Z/2 acting on itself, so a pair over (b, a) is
    # unbraided through its class over the middle Z/2, not by swapping
    d = z2_commutative_diagram()
    assert validate_diagram(d) == []
    a, b = ("*", "*", ("a",)), ("*", "*", ("b",))
    ab = ("*", "*", ("a", "b"))
    assert d.mu[(b, a)] == {(("1",), ("1",)): ("1", "1"),
                            (("1",), ("a",)): ("1", "a"),
                            (("a",), ("1",)): ("1", "a"),
                            (("a",), ("a",)): ("1", "1")}
    assert d.mu[(b, ab)][(("a",), ("1", "a"))] == ("1", "1", "1")
    assert d.mu[(ab, b)][(("1", "a"), ("a",))] == ("1", "1", "1")


def test_swap_action_valid():
    d = swap_diagram()
    assert validate_action(d, swap_action(d)) == []


def test_empty_action_valid():
    d = e1_diagram()
    a = FAction(d, (), {}, {}, {}, {t: {} for t in d.gen_arrows()})
    assert validate_action(d, a) == []


def test_e1_has_no_nonempty_finite_action():
    # |A| |Y| == |Y| forces Y to be empty
    acts = enumerate_actions(e1_diagram(2), 3)
    assert len(acts) == 1 and acts[0].carrier == ()


def test_theta_round_trip():
    d = swap_diagram()
    a = swap_action(d)
    thetas = singleton_thetas(d, a)
    back = action_from_theta(d, dict(a.part), dict(a.anchor), thetas)
    assert back.part == a.part and back.anchor == a.anchor
    assert back.gact == a.gact and back.alph == a.alph


def test_theta_multiplicativity_and_braket():
    d = e1_diagram()
    a = FAction(d, (), {}, {}, {}, {t: {} for t in d.gen_arrows()})
    thetas = singleton_thetas(d, a)
    for pb in thetas.values():
        assert pb == PartialBijection.empty()
    d2 = swap_diagram()
    a2 = swap_action(d2)
    th = singleton_thetas(d2, a2)
    t = ("*", "*", ("t",))
    tt = ("*", "*", ("t", "t"))
    x0, x1 = (("x", 0),), (("x", 1),)
    prod = d2.mu_apply(t, t, x0, x1)
    assert th[(t, x0)] * th[(t, x1)] == th[(tt, prod)]


def broken_graph_diagram():
    """A one-edge path diagram used for injected theta defects."""
    shape = PresentedShape.path_category(("L", "R"), {"e": ("L", "R")},
                                         length_bound=2)
    c = space_correspondence(("p", "q"), ("m",), {0: "p", 1: "q"},
                             {0: "m", 1: "m"}, carrier=(0, 1))
    return from_generators(shape, {"e": c}), shape


def graph_thetas(d, shape, part, anchor, e_table):
    """Singleton thetas for the one-edge diagram, with given edge maps."""
    units = {x: shape.identity(x) for x in ("L", "R")}
    thetas = {}
    for x in ("L", "R"):
        for gamma in d.gr[x].arrow_ids():
            dom = [y for y in part if part[y] == x]
            thetas[(units[x], gamma)] = PartialBijection(
                {y: y for y in dom if anchor[y] == d.gr[x].src(gamma)})
    e = ("L", "R", ("e",))
    for xi, pb in e_table.items():
        thetas[(e, xi)] = pb
    return thetas


def test_action_from_theta_round_trip_on_graph_diagram():
    d, shape = broken_graph_diagram()
    part = {0: "L", 1: "L", 2: "R"}
    anchor = {0: "p", 1: "q", 2: "m"}
    thetas = graph_thetas(d, shape, part, anchor,
                          {(0,): PartialBijection({2: 0}),
                           (1,): PartialBijection({2: 1})})
    a = action_from_theta(d, part, anchor, thetas)
    assert validate_action(d, a) == []
    assert singleton_thetas(d, a) == thetas


def test_action_from_theta_condition4_wrong_image_anchor():
    d, shape = broken_graph_diagram()
    part = {0: "L", 1: "L", 2: "R"}
    anchor = {0: "p", 1: "q", 2: "m"}
    # theta of the q-pointed singleton lands on the p-pointed element
    thetas = graph_thetas(d, shape, part, anchor,
                          {(0,): PartialBijection({2: 0}),
                           (1,): PartialBijection({2: 0})})
    with pytest.raises(ConditionFailed) as exc:
        action_from_theta(d, part, anchor, thetas)
    assert exc.value.which == ".4"


def test_action_from_theta_condition1():
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))})
    unit = d.shape.identity("x")
    part = {y: "x" for y in (0, 1, 2)}
    anchor = {y: "*" for y in (0, 1, 2)}
    thetas = {(unit, "1"): PartialBijection.identity((0, 1, 2)),
              (unit, "a"): PartialBijection({0: 1, 1: 2, 2: 0})}
    with pytest.raises(ConditionFailed) as exc:
        action_from_theta(d, part, anchor, thetas)
    assert exc.value.which == ".1"


def test_action_from_theta_condition2():
    # two edge points in distinct orbits with the same range: their
    # braket must act as the empty map, so overlapping thetas violate it
    shape = PresentedShape.path_category(("L", "R"), {"e": ("L", "R")},
                                         length_bound=2)
    c = space_correspondence(("p",), ("m",), {0: "p", 1: "p"},
                             {0: "m", 1: "m"}, carrier=(0, 1))
    d = from_generators(shape, {"e": c})
    part = {0: "L", 1: "L", 2: "R"}
    anchor = {0: "p", 1: "p", 2: "m"}
    thetas = graph_thetas(d, shape, part, anchor,
                          {(0,): PartialBijection({2: 0}),
                           (1,): PartialBijection({2: 0})})
    with pytest.raises(ConditionFailed) as exc:
        action_from_theta(d, part, anchor, thetas)
    assert exc.value.which == ".2"


def test_action_from_theta_condition3_image_dropped():
    # a single edge point whose theta misses part of the target piece
    shape = PresentedShape.path_category(("L", "R"), {"e": ("L", "R")},
                                         length_bound=2)
    c = space_correspondence(("p",), ("m",), {0: "p"}, {0: "m"}, carrier=(0,))
    d = from_generators(shape, {"e": c})
    part = {0: "L", 1: "L", 2: "R"}
    anchor = {0: "p", 1: "p", 2: "m"}
    thetas = graph_thetas(d, shape, part, anchor,
                          {(0,): PartialBijection({2: 0})})
    with pytest.raises(ConditionFailed) as exc:
        action_from_theta(d, part, anchor, thetas)
    assert exc.value.which == ".3"


def test_equivariant_maps_identity_and_anchors():
    d = swap_diagram()
    a = swap_action(d)
    maps = equivariant_maps(a, a)
    assert {0: 0, 1: 1} in maps
    assert all(a.anchor[f[0]] == a.anchor[0] for f in maps)


def test_invariant_check():
    d = swap_diagram()
    a = swap_action(d)
    assert invariant_check(a, {0: "z", 1: "z"})
    assert not invariant_check(a, {0: "z", 1: "w"})


def test_enumerate_point_diagram_actions_up_to_iso():
    # permutations of <= 3 points up to conjugacy: 1 + 1 + 2 + 3
    acts = enumerate_actions(point_diagram(2), 3)
    assert len(acts) == 7


def test_enumerate_discrete_z2_actions():
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))})
    acts = enumerate_actions(d, 2)
    # empty, one fixed point, two fixed points, one free orbit
    assert len(acts) == 4


def test_identity_transformation_valid_and_composes():
    d = swap_diagram(2)
    t = identity_transformation(d)
    assert validate_transformation(t) == []
    tt = compose_transformations(t, t)
    assert validate_transformation(tt) == []


def test_transformation_with_a_non_free_component_is_reported():
    # Z/2 fixing both points of Y(*) on the right: the squares that would
    # compose Y(*) are skipped and the report names the component
    gpd = FinGroupoid.from_group(Group.cyclic(2))
    shape = PresentedShape.free_monoid(("t",), length_bound=2)
    t = identity_transformation(
        from_generators(shape, {"t": identity_correspondence(gpd)}))
    y = t.Y["*"]
    t.Y["*"] = Correspondence(gpd, gpd, y.carrier, y.rmap, y.smap, y.lact,
                              {(x, g): x for (x, g) in y.ract})
    report = validate_transformation(t)
    assert report and all(line.startswith("Y('*'): ") for line in report)
    assert "Y('*'): right action not basic, witness ('1', 'a')" in report


def test_modification_identity_and_defect():
    d = swap_diagram(2)
    t = identity_transformation(d)
    w = {x: {y: y for y in t.Y[x].carrier} for x in d.shape.objects}
    assert validate_modification(t, t, w) == []
    # break one square by swapping the two units of the base
    bad = {x: dict(m) for x, m in w.items()}
    ys = list(t.Y["*"].carrier)
    bad["*"][ys[0]], bad["*"][ys[1]] = bad["*"][ys[1]], bad["*"][ys[0]]
    assert validate_modification(t, t, bad) != []


def test_equivariance_matches_theta_level_criterion():
    # a map is equivariant exactly when it commutes with the anchors
    # and with every singleton slice action
    d = swap_diagram()
    a = swap_action(d)
    thetas = singleton_thetas(d, a)
    from itertools import product as iproduct
    maps = [dict(zip((0, 1), values)) for values in iproduct((0, 1), repeat=2)]
    eq_maps = equivariant_maps(a, a)
    for f in maps:
        anchors_ok = all(a.anchor[f[y]] == a.anchor[y] for y in (0, 1))
        theta_ok = all(
            pb.mapping.get(f[y]) == f[z]
            for pb in thetas.values() for y, z in pb.mapping.items())
        assert ((f in eq_maps)) == (anchors_ok and theta_ok)


def one_letter_selfsim_diagram():
    """Z/2 with a single letter whose restriction is the generator."""
    from corpus import e1
    from gpdcorr.groupoid import Group
    from gpdcorr.selfsim import SelfSimilarData, iterate
    z2 = Group.cyclic(2)
    data = SelfSimilarData.group_alphabet(
        z2, ("0",), {("1", "0"): "0", ("a", "0"): "0"},
        {("1", "0"): "1", ("a", "0"): "a"})
    shape = PresentedShape.free_monoid(("t",), length_bound=2)
    d = from_generators(shape, {"t": iterate(data, 1)})
    d.selfsim = data
    return d, data


def test_selfsimilar_actions_are_intertwined_pairs():
    # an action of the one-letter diagram is exactly a group action
    # with a bijection T satisfying g.T(y) == T(g|_letter . y)
    d, data = one_letter_selfsim_diagram()
    t = d.gen_arrows()[0]
    x1 = ((data.path(("0",)), "1"),)
    xa = ((data.path(("0",)), "a"),)
    from itertools import permutations
    carrier = (0, 1, 2)
    unit_arrow, a_arrow = ("1", "*"), ("a", "*")
    involutions = [dict(zip(carrier, perm))
                   for perm in permutations(carrier)
                   if all(perm[perm[y]] == y for y in carrier)]
    bijections = [dict(zip(carrier, perm)) for perm in permutations(carrier)]
    seen_invalid = 0
    for aimg in involutions:
        gact = {(unit_arrow, y): y for y in carrier}
        gact.update({(a_arrow, y): aimg[y] for y in carrier})
        for tmap in bijections:
            alph = {t: {(x1, y): tmap[y] for y in carrier}}
            alph[t].update({(xa, y): tmap[aimg[y]] for y in carrier})
            a = FAction(d, carrier, {y: "*" for y in carrier},
                        {y: "*" for y in carrier}, gact, alph)
            valid = validate_action(d, a) == []
            # the intertwining condition for the pair (action, T)
            intertwined = all(aimg[tmap[y]] == tmap[aimg[y]]
                              for y in carrier)
            assert valid == intertwined
            seen_invalid += not valid
    assert seen_invalid > 0

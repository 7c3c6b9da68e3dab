import inspect
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpdcorr import cli
from gpdcorr.diagram import _left_actions
from gpdcorr.errors import NotEquivariant, OracleIncomplete, ParseError
from gpdcorr.fincat import canonical_classes
from gpdcorr.groupoid import (
    FinGroupoid, Group, GroupoidAction, PartialBijection, check_basic,
    germ_groupoid, isg_action_vs_groupoid_action, orbit_space,
    pointwise_oracle, pseudogroup_closure, transformation_groupoid,
    validate_groupoid)

import oracles
from oracles import check_basic_bruteforce
from test_cli import run_cli, write_doc


def right_mult_action(group):
    gpd = FinGroupoid.from_group(group)
    act = {(g, y): group.op(y, g) for g in group for y in group}
    return GroupoidAction(gpd, group.elements, {y: "*" for y in group}, act)


Z2 = Group.cyclic(2).mul


@pytest.mark.parametrize("elements, mul, message", [
    (("a",), {("a", "a"): "a"}, "no element '1'"),
    (("1", "a"), {k: v for k, v in Z2.items() if k != ("a", "a")},
     "mul is not a table on the elements"),
    (("1", "a"), {**Z2, ("a", "a"): "b"},
     "mul is not a table on the elements"),
    (("1",), Z2, "mul is not a table on the elements")],
    ids=["identity", "missing-product", "product-outside", "extra-product"])
def test_group_refuses_a_table_off_its_elements(elements, mul, message):
    with pytest.raises(ParseError, match=f"^not a group: {message}$"):
        Group(elements, mul)


@pytest.mark.parametrize("side, pair", [("left", "('a2','a',1)"),
                                        ("right", "('a','a2',1)")])
def test_validate_reports_associativity_on_each_side(side, pair):
    # a takes 1 to 0 and a2 is missing at 1: a left action fails at
    # a2.(a.1), a right one at (1.a).a2
    gpd = FinGroupoid.from_group(Group.cyclic(3))
    act = {("1", 0): 0, ("1", 1): 1, ("a", 0): 0, ("a", 1): 0, ("a2", 0): 0}
    action = GroupoidAction(gpd, (0, 1), {0: "*", 1: "*"}, act, side=side)
    assert action.validate() == [
        "domain of action wrong at ('a2',1)",
        "associativity fails at ('a','a',1)",
        f"associativity fails at {pair}"]


def test_groupoid_constructors_valid():
    assert validate_groupoid(FinGroupoid.from_group(Group.cyclic(3))) == []
    assert validate_groupoid(FinGroupoid.space(("p", "q"))) == []
    z2 = Group.cyclic(2)
    act = {("1", "p"): "p", ("1", "q"): "q", ("a", "p"): "q", ("a", "q"): "p"}
    assert validate_groupoid(FinGroupoid.transformation(z2, ("p", "q"), act)) == []
    assert validate_groupoid(FinGroupoid.disjoint_union(
        [FinGroupoid.from_group(Group.cyclic(2)),
         FinGroupoid.from_group(Group.cyclic(3))])) == []


def test_validate_reports_inverse_of_unknown_arrow(tmp_path):
    gpd = FinGroupoid.from_group(Group.cyclic(2))
    bad = FinGroupoid(gpd.objects, gpd.arrows, gpd.compose, gpd.identities,
                      {**gpd.inv, "zz": "a"})
    assert validate_groupoid(bad) == ["inv names 'zz', which is not an arrow"]
    path = write_doc(tmp_path, "g.json", "groupoid", cli.groupoid_payload(bad))
    code, out, err = run_cli("validate", path)
    assert code == 1
    assert "inv names 'zz', which is not an arrow" in out
    assert "Traceback" not in err


def test_right_multiplication_is_basic():
    action = right_mult_action(Group.cyclic(2))
    assert action.validate() == []
    ok, witness = check_basic(action)
    assert ok and witness is None


def test_trivial_action_not_basic_with_witness():
    z2 = Group.cyclic(2)
    gpd = FinGroupoid.from_group(z2)
    action = GroupoidAction(gpd, ("pt",), {"pt": "*"},
                            {(g, "pt"): "pt" for g in z2})
    ok, witness = check_basic(action)
    assert not ok
    assert witness == ("pt", "a")


def test_check_basic_agrees_with_bruteforce():
    z2 = Group.cyclic(2)
    gpd = FinGroupoid.from_group(z2)
    actions = [right_mult_action(z2),
               GroupoidAction(gpd, ("pt",), {"pt": "*"},
                              {(g, "pt"): "pt" for g in z2}),
               GroupoidAction(gpd, (0, 1, 2, 3), {y: "*" for y in range(4)},
                              {(g, y): (y + 2) % 4 if g == "a" else y
                               for g in z2 for y in range(4)})]
    for action in actions:
        assert check_basic(action)[0] == check_basic_bruteforce(action)


@st.composite
def cyclic_right_actions(draw):
    """Z/n (n = 2..4) acting on up to 5 points by a permutation whose
    cycle lengths divide n; all of length n exactly when the action is
    free."""
    n = draw(st.integers(2, 4))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    if draw(st.booleans()):
        lengths = [n] * draw(st.integers(1, 5 // n))
    else:
        lengths = draw(st.lists(st.sampled_from(divisors[:-1]), min_size=1,
                                max_size=5))
        lengths += draw(st.lists(st.sampled_from(divisors), max_size=2))
        while sum(lengths) > 5:
            lengths.pop()
    points = draw(st.permutations(range(sum(lengths))))
    step, start = {}, 0
    for k in lengths:
        cycle = points[start:start + k]
        start += k
        step.update(zip(cycle, cycle[1:] + cycle[:1]))
    group = Group.cyclic(n)
    act = {}
    for j, g in enumerate(group.elements):
        for y in points:
            z = y
            for _ in range(j):
                z = step[z]
            act[(g, y)] = z
    return GroupoidAction(FinGroupoid.from_group(group), range(sum(lengths)),
                          {y: "*" for y in points}, act)


@settings(max_examples=200, deadline=None)
@given(cyclic_right_actions())
def test_check_basic_matches_bruteforce_on_random_actions(action):
    assert action.validate() == []
    assert check_basic(action)[0] == check_basic_bruteforce(action)


def fields(gpd):
    return gpd.objects, gpd.arrows, gpd.compose, gpd.identities, gpd.inv


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_transformation_matches_the_hand_built_groupoid(n, k, data):
    group, points = Group.cyclic(n), list(range(k))
    action = data.draw(st.sampled_from(_left_actions(
        FinGroupoid.from_group(group), points, dict.fromkeys(points, "*"))))
    # a generator of points is read once
    gpd = FinGroupoid.transformation(group, iter(points), action)
    assert fields(gpd) == fields(oracles.transformation(group, points, action))
    assert validate_groupoid(gpd) == []


ACTED_ON = [
    FinGroupoid.from_group(Group.cyclic(2)),
    FinGroupoid.from_group(Group.cyclic(3)),
    FinGroupoid.space(("p", "q")),
    FinGroupoid.transformation(     # Z/4 through Z/2 on two objects
        Group.cyclic(4), (0, 1), {(g, v): (v + i) % 2 for i, g in
                                  enumerate(Group.cyclic(4)) for v in (0, 1)}),
    FinGroupoid.disjoint_union([FinGroupoid.from_group(Group.cyclic(2)),
                                FinGroupoid.space(("p",))])]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_semidirect_matches_the_hand_built_groupoid(data):
    gpd = data.draw(st.sampled_from(ACTED_ON))
    k = data.draw(st.integers(0, 3))
    ys = list(range(k))
    anchor = dict(zip(ys, data.draw(st.lists(
        st.sampled_from(sorted(gpd.objects, key=repr)), min_size=k,
        max_size=k))))
    acts = _left_actions(gpd, ys, anchor)
    assume(acts)
    act = data.draw(st.sampled_from(acts))
    got = FinGroupoid.semidirect(gpd, ys, anchor, act)
    assert fields(got) == \
        fields(oracles.groupoid_semidirect(gpd, ys, anchor, act))
    assert validate_groupoid(got) == []


def test_orbit_space_free_action_on_four_points():
    z2 = Group.cyclic(2)
    gpd = FinGroupoid.from_group(z2)
    act = {(g, y): (y + 2) % 4 if g == "a" else y
           for g in z2 for y in range(4)}
    action = GroupoidAction(gpd, (0, 1, 2, 3), {y: "*" for y in range(4)}, act)
    orbits, proj = orbit_space(action)
    assert len(orbits) == 2
    assert proj[0] == proj[2] and proj[1] == proj[3]


def test_orbit_space_trivial_action_is_singletons():
    z2 = Group.cyclic(2)
    gpd = FinGroupoid.from_group(z2)
    act = {(g, y): y for g in z2 for y in range(3)}
    action = GroupoidAction(gpd, (0, 1, 2), {y: "*" for y in range(3)}, act)
    orbits, _ = orbit_space(action)
    assert orbits == [(0,), (1,), (2,)]


def test_pseudogroup_closure_of_involution():
    sigma = PartialBijection({1: 2, 2: 1})
    closure = pseudogroup_closure([sigma])
    assert closure == {PartialBijection.empty(), sigma,
                       PartialBijection.identity((1, 2))}


def test_pseudogroup_closure_empty_generators():
    assert pseudogroup_closure([]) == {PartialBijection.empty()}


def test_pseudogroup_closure_idempotent():
    gens = [PartialBijection({1: 2}), PartialBijection({2: 3, 3: 1})]
    once = pseudogroup_closure(gens)
    assert pseudogroup_closure(once) == once


def test_germ_groupoid_of_involution():
    sigma = PartialBijection({1: 2, 2: 1})
    gg = germ_groupoid({"s": sigma}, (1, 2))
    assert len(gg.carrier) == 2
    assert len(gg.arrows()) == 4
    assert validate_groupoid(gg.to_fingroupoid()) == []


def test_identity_generator_gives_unit_groupoid():
    gg = germ_groupoid({"e": PartialBijection.identity((1, 2, 3))}, (1, 2, 3))
    assert all(gg.is_unit(a) for a in gg.arrows())


def test_equal_graphs_have_equal_germs():
    f = PartialBijection({1: 2})
    g = PartialBijection({1: 2})
    gg = germ_groupoid({"f": f, "g": g}, (1, 2))
    assert gg.arrow(1, 2) == (1, 2, "f")


@st.composite
def partial_bijections(draw):
    """At most two partial bijections of at most four points, and a
    carrier that need not hold every point they move."""
    points = range(draw(st.integers(1, 4)))
    gens = {}
    for i in range(draw(st.integers(0, 2))):
        dom = draw(st.lists(st.sampled_from(points), unique=True))
        image = draw(st.permutations(points))[:len(dom)]
        gens[f"g{i}"] = PartialBijection(dict(zip(dom, image)))
    return gens, tuple(points)[:draw(st.integers(0, len(points)))]


@settings(max_examples=300, deadline=None)
@given(partial_bijections())
def test_germs_from_components_match_the_closure(case):
    gens, carrier = case
    gg = germ_groupoid(gens, carrier)
    assert gg.germs == oracles.germs(gens, carrier)


def test_transformation_groupoid_with_pointwise_oracle_is_germ_groupoid():
    sigma = PartialBijection({1: 2, 2: 1})
    gens = {"s": sigma, "e": PartialBijection.identity((1, 2))}
    closure = sorted(pseudogroup_closure(gens), key=repr)
    apply = lambda t, x: t(x)
    tg = transformation_groupoid(
        closure, lambda a, b: a * b, apply, pointwise_oracle(apply), (1, 2),
        lambda x: PartialBijection.identity((1, 2)))
    gg = germ_groupoid(gens, (1, 2))
    pairs = {(x, tg.r(a)) for a in tg.arrows() for x in [tg.s(a)]}
    assert pairs == set(gg.germs)
    for a2 in tg.arrows():
        for a1 in tg.arrows():
            if tg.s(a2) == tg.r(a1):
                c = tg.compose(a2, a1)
                assert (tg.s(c), tg.r(c)) == (tg.s(a1), tg.r(a2))


def test_empty_carrier_transformation_groupoid():
    tg = transformation_groupoid([], lambda a, b: a, lambda t, x: None,
                                 lambda t, u, x: True, (), lambda x: None)
    assert tg.arrows() == []


def fold_setup():
    x_points = (1, 2)
    sigma = PartialBijection({1: 2, 2: 1})
    gens = {"s": sigma}
    semigroup = sorted(pseudogroup_closure(gens), key=repr)
    theta_x = {t: t for t in semigroup}
    y_points = tuple((i, c) for i in x_points for c in (0, 1))
    f = {(i, c): i for (i, c) in y_points}
    theta_y = {t: PartialBijection({(i, c): (t(i), c) for (i, c) in y_points
                                    if t(i) is not None})
               for t in semigroup}
    return semigroup, theta_x, x_points, theta_y, f, y_points


def test_isg_round_trip_tautological():
    sigma = PartialBijection({1: 2, 2: 1})
    semigroup = sorted(pseudogroup_closure([sigma]), key=repr)
    theta = {t: t for t in semigroup}
    f = {1: 1, 2: 2}
    gpd, act = isg_action_vs_groupoid_action(
        semigroup, theta, (1, 2), theta_y=theta, f=f, carrier_y=(1, 2))
    theta_back, f_back = isg_action_vs_groupoid_action(
        semigroup, theta, (1, 2), f=f, carrier_y=(1, 2), action=act)
    assert f_back == f
    assert theta_back == theta


def test_isg_round_trip_fold_map():
    semigroup, theta_x, xs, theta_y, f, ys = fold_setup()
    gpd, act = isg_action_vs_groupoid_action(
        semigroup, theta_x, xs, theta_y=theta_y, f=f, carrier_y=ys)
    theta_back, f_back = isg_action_vs_groupoid_action(
        semigroup, theta_x, xs, f=f, carrier_y=ys, action=act)
    assert theta_back == theta_y and f_back == f


def test_isg_groupoid_multiplies_in_the_semigroup():
    sigma = PartialBijection({1: 2, 2: 1})
    semigroup = sorted(pseudogroup_closure([sigma]), key=repr)
    theta = {t: t for t in semigroup}
    gpd, _ = isg_action_vs_groupoid_action(
        semigroup, theta, (1, 2), theta_y=theta, f={1: 1, 2: 2},
        carrier_y=(1, 2))
    there, back = gpd.arrow(sigma, 1), gpd.arrow(sigma, 2)
    loop = gpd.compose(back, there)
    assert (gpd.s(loop), gpd.r(loop)) == (1, 1) and gpd.is_unit(loop)
    assert not gpd.is_unit(there)


def test_isg_groupoid_refuses_a_product_outside_the_semigroup():
    sigma = PartialBijection({1: 2, 2: 1})
    gpd, _ = isg_action_vs_groupoid_action(
        [sigma], {sigma: sigma}, (1, 2), theta_y={sigma: sigma},
        f={1: 1, 2: 2}, carrier_y=(1, 2))
    with pytest.raises(OracleIncomplete, match="not in the semigroup"):
        gpd.compose(gpd.arrow(sigma, 2), gpd.arrow(sigma, 1))


def test_isg_not_equivariant_witness():
    semigroup, theta_x, xs, theta_y, f, ys = fold_setup()
    broken = dict(theta_y)
    sigma = next(t for t in semigroup if t == PartialBijection({1: 2, 2: 1}))
    broken[sigma] = PartialBijection({(1, 0): (2, 0)})
    with pytest.raises(NotEquivariant):
        isg_action_vs_groupoid_action(
            semigroup, theta_x, xs, theta_y=broken, f=f, carrier_y=ys)


@st.composite
def keyed_graphs(draw):
    """Items 0..n-1, random links between them, and an injective key."""
    n = draw(st.integers(0, 9))
    items = list(range(n))
    node = st.integers(0, n - 1)
    links = draw(st.lists(st.tuples(node, node), max_size=15)) if n else []
    rank = draw(st.permutations(items))
    return items, links, rank.__getitem__


def components_by_bfs(items, links, key):
    """Oracle: each item's BFS component, represented by its key-least member."""
    nbrs = {x: set() for x in items}
    for a, b in links:
        nbrs[a].add(b)
        nbrs[b].add(a)
    out = {}
    for x in items:
        if x in out:
            continue
        comp, todo = {x}, [x]
        while todo:
            for z in nbrs[todo.pop()] - comp:
                comp.add(z)
                todo.append(z)
        rep = min(comp, key=key)
        out.update((z, rep) for z in comp)
    return out


@given(keyed_graphs(), st.randoms(use_true_random=False))
def test_canonical_classes_matches_bfs_oracle(graph, rnd):
    items, links, key = graph
    want = components_by_bfs(items, links, key)
    got = canonical_classes(items, links, key)
    assert got == want
    assert list(got) == items
    shuffled = list(links)
    rnd.shuffle(shuffled)
    assert canonical_classes(items, shuffled, key) == want
    flipped = [(b, a) for a, b in reversed(links)]
    assert canonical_classes(items, flipped, key) == want


# each input check that was an assert, with the error it raises now; none
# of them is reachable from a document, so they are exercised directly
CHECKS = [
    ("from gpdcorr.fincat import PresentedShape, ore_check\n"
     "ore_check(PresentedShape.free_monoid(('t',)), search_depth=0)",
     "ParseError: search depth must be positive, got 0"),
    ("GroupoidAction(FinGroupoid.from_group(Group.cyclic(2)), (), {}, {},\n"
     "               side='up')",
     "ParseError: side must be 'left' or 'right', got 'up'"),
    ("check_basic(GroupoidAction(FinGroupoid.from_group(Group.cyclic(2)),\n"
     "                           (), {}, {}, side='left'))",
     "ParseError: check_basic needs a right action"),
    ("PartialBijection({1: 0, 2: 0})",
     "ParseError: partial bijection is not injective"),
    ("germ_groupoid({'s': PartialBijection({0: 1})}, (0, 1, 2)).arrow(0, 2)",
     "Undefined: no germ from 0 to 2"),
    ("tg = transformation_groupoid(['e'], lambda t, u: t, APPLY,\n"
     "                             pointwise_oracle(APPLY), (0, 1),\n"
     "                             lambda x: 'e')\n"
     "tg.arrow('e', 1)",
     "Undefined: 'e' is not defined at 1"),
    ("tg = transformation_groupoid(['e'], lambda t, u: t, APPLY,\n"
     "                             pointwise_oracle(APPLY), (0, 1),\n"
     "                             lambda x: 'e')\n"
     "tg.compose(('e', 1), ('e', 0))",
     "Undefined: arrows ('e', 1) and ('e', 0) are not composable"),
    ("tg = transformation_groupoid(['e', 'f'], lambda t, u: t, APPLY,\n"
     "                             lambda t, u, x: None, (0,),\n"
     "                             lambda x: 'e')\n"
     "tg.arrow('e', 0)",
     "OracleIncomplete: germ query ('f','e',0) declined"),
    ("tg = transformation_groupoid(['e'], lambda t, u: 'f', APPLY,\n"
     "                             pointwise_oracle(APPLY), (0,),\n"
     "                             lambda x: 'e')\n"
     "tg.compose(('e', 0), ('e', 0))",
     "OracleIncomplete: product 'e'.'e' left the universe"),
    # an element outside the universe, defined at 0, whose germ there is
    # the germ of an element, and one whose germ is no element's
    ("tg = transformation_groupoid(['e'], lambda t, u: t, APPLY,\n"
     "                             pointwise_oracle(APPLY), (0,),\n"
     "                             lambda x: 'e')\n"
     "if tg.arrow('f', 0) != ('e', 0):\n"
     "    raise GpdError(repr(tg.arrow('f', 0)))",
     "no error"),
    ("tg = transformation_groupoid(['e'], lambda t, u: t, APPLY,\n"
     "                             lambda t, u, x: t == u, (0,),\n"
     "                             lambda x: 'e')\n"
     "tg.arrow('f', 0)",
     "OracleIncomplete: the germ of 'f' at 0 is not the germ of an element"),
]
PRELUDE = ("from gpdcorr.errors import GpdError\n"
           "from gpdcorr.groupoid import (\n"
           "    FinGroupoid, Group, GroupoidAction, PartialBijection,\n"
           "    check_basic, germ_groupoid, pointwise_oracle,\n"
           "    transformation_groupoid)\n"
           "APPLY = lambda t, x: x if x == 0 else None\n")


def check_outcome(code):
    """The error that running one CHECKS entry raises, as text."""
    scope = {}
    exec(PRELUDE, scope)
    try:
        exec(code, scope)
    except scope["GpdError"] as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


@pytest.mark.parametrize("code, want", CHECKS)
def test_input_check_raises_a_typed_error(code, want):
    assert check_outcome(code) == want


def test_input_checks_hold_under_O():
    code = "\n".join([f"PRELUDE = {PRELUDE!r}",
                      inspect.getsource(check_outcome),
                      f"for code in {[code for code, _ in CHECKS]!r}:",
                      "    print(check_outcome(code))"])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert (proc.stdout, proc.stderr) == \
        ("".join(want + "\n" for _, want in CHECKS), "")

"""The propagating action searches against their brute-force oracles.

Every answer must be identical to the oracle's, in the same order.
"""

from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gpdcorr.diagram
import gpdcorr.model
import oracles
from corpus import space_correspondences
from gpdcorr.cgx import (GroupPresentation, count_homs, fundamental_group,
                         isotropy_at_infinity, presentation_model)
from gpdcorr.corr import space_correspondence
from gpdcorr.diagram import (FAction, _equivariant_bijections, _iso_key,
                             _left_actions, _propagated_maps,
                             action_from_theta, actions_isomorphic, actions_on,
                             discrete_diagram, enumerate_actions,
                             equivariant_maps, from_generators,
                             singleton_thetas, validate_action)
from gpdcorr.errors import Mismatch
from gpdcorr.fincat import PresentedShape
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.mn import make_emn
from gpdcorr.model import (_invariance_witness, _natural, _representatives,
                           _table,
                           _translate, model_discrete_shape,
                           model_group_shape, verify_model)

from test_cgx import CORPUS as COMPLEXES, cx_loop
from test_corr_oracle import cyclic_hom_corr, hom_exponents
from test_diagram import broken_graph_diagram, point_diagram, swap_diagram
from test_model import graded_diagram, zpres


def one_generator(c):
    shape = PresentedShape.free_monoid(("t",), length_bound=2)
    return from_generators(shape, {"t": c})


def cases():
    """name -> (diagram, largest carrier size)."""
    out = {
        "swap": (swap_diagram(), 4),
        "disc-z2": (discrete_diagram(
            {"x": FinGroupoid.from_group(Group.cyclic(2))}), 4),
        # both groups have an arrow "1", so labels alone do not fix parts
        "disc-z2-z3": (discrete_diagram(
            {"x": FinGroupoid.from_group(Group.cyclic(2)),
             "y": FinGroupoid.from_group(Group.cyclic(3))}), 3),
        "broken-graph": (broken_graph_diagram()[0], 4),
        "emn-1-3": (make_emn(1, 3), 4),
    }
    for key, c in space_correspondences().items():
        out["space-" + key] = (one_generator(c), 3)
    return out


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_actions_round_trip_through_their_thetas(name):
    d = CASES[name][0]
    for k in range(4):
        for a in actions_on(d, list(range(k))):
            back = action_from_theta(d, a.part, a.anchor,
                                     singleton_thetas(d, a))
            assert back.table() == a.table()


def frames(d, n):
    """Every carrier of size <= n with its parts and anchors."""
    for k in range(n + 1):
        carrier = list(range(k))
        for parts in product(d.shape.objects, repeat=k):
            part = dict(zip(carrier, parts))
            for anchors in product(*(d.gr[part[y]].objects
                                     for y in carrier)):
                yield carrier, part, dict(zip(carrier, anchors))


def groupoid_actions(d, pieces, anchor):
    """Every groupoid action on a frame, over all objects at once."""
    per_object = [list(_left_actions(d.gr[x], pieces[x], anchor))
                  for x in d.shape.objects]
    for acts in product(*per_object):
        gact = {}
        for act in acts:
            gact.update(act)
        yield gact


def labelled_actions(d, n):
    return [a for k in range(n + 1) for a in actions_on(d, list(range(k)))]


def items(maps):
    """Dicts as item lists, so that key order is compared too."""
    return [list(f.items()) for f in maps]


def as_data(a):
    return a.carrier, a.part, a.anchor, a.gact, a.alph


@pytest.mark.parametrize("name", sorted(CASES))
def test_alpha_tables_match_oracle(name):
    d, n = CASES[name]
    for carrier, part, anchor in frames(d, n):
        pieces = {x: [y for y in carrier if part[y] == x]
                  for x in d.shape.objects}
        for gact in groupoid_actions(d, pieces, anchor):
            for g in d.gen_arrows():
                args = (d.X(g), gact, pieces[d.shape.s(g)],
                        pieces[d.shape.r(g)], anchor)
                assert items(_equivariant_bijections(*args)) == \
                    items(oracles.equivariant_bijections(*args))


@pytest.mark.parametrize("name", sorted(CASES))
def test_left_actions_match_oracle(name):
    d, _ = CASES[name]
    for gpd in d.gr.values():
        objects = sorted(gpd.objects, key=repr)
        for k in range(6):
            ys = list(range(k))
            for anchors in product(objects, repeat=k):
                anchor = dict(zip(ys, anchors))
                assert items(_left_actions(gpd, ys, anchor)) == \
                    items(oracles.left_actions(gpd, ys, anchor))


def renamed(gpd, names):
    """gpd with every arrow g called names[g]."""
    return FinGroupoid(
        gpd.objects, {names[g]: ends for g, ends in gpd.arrows.items()},
        {(names[g], names[h]): names[gh]
         for (g, h), gh in gpd.compose.items()},
        {x: names[u] for x, u in gpd.identities.items()},
        {names[g]: names[gi] for g, gi in gpd.inv.items()})


def z4_on_two_points():
    """Z/4 acting on two objects through Z/2: a connected groupoid whose
    vertex groups are Z/2."""
    z4 = Group.cyclic(4)
    return FinGroupoid.transformation(
        z4, (0, 1), {(g, v): (v + i) % 2
                     for i, g in enumerate(z4.elements) for v in (0, 1)})


# groupoid -> largest carrier size, so that the oracle walks at most a
# few hundred tables
SMALL_GROUPOIDS = [(FinGroupoid.from_group(Group.cyclic(2)), 5),
                   (FinGroupoid.from_group(Group.cyclic(3)), 4),
                   (FinGroupoid.from_group(Group.cyclic(4)), 3),
                   (z4_on_two_points(), 5)]


@given(st.data())
def test_left_actions_match_oracle_on_random_groupoids(data):
    # renaming the arrows reorders them, and with them the search
    gpd, n = data.draw(st.sampled_from(SMALL_GROUPOIDS))
    ids = gpd.arrow_ids()
    names = dict(zip(ids, data.draw(st.permutations(range(len(ids))))))
    gpd = renamed(gpd, {g: f"g{i}" for g, i in names.items()})
    k = data.draw(st.integers(0, n))
    ys = list(range(k))
    anchor = dict(zip(ys, data.draw(st.lists(
        st.sampled_from(sorted(gpd.objects)), min_size=k, max_size=k))))
    assert items(_left_actions(gpd, ys, anchor)) == \
        items(oracles.left_actions(gpd, ys, anchor))


@pytest.mark.parametrize("order, count", [(5, 1), (4, 16)])
def test_cyclic_group_actions_on_four_points(order, count):
    # Z/5 has no orbit of size 2..4, and Z/4 -> S_4 sends the generator
    # to one of the 16 permutations whose order divides 4
    gpd = FinGroupoid.from_group(Group.cyclic(order))
    ys = list(range(4))
    acts = _left_actions(gpd, ys, {y: "*" for y in ys})
    assert len(acts) == count
    assert len({tuple(act.items()) for act in acts}) == count


@pytest.mark.parametrize("name", sorted(CASES))
def test_equivariant_maps_match_oracle(name):
    d, n = CASES[name]
    acts = labelled_actions(d, n)
    for a1, a2 in product(acts, repeat=2):
        assert items(equivariant_maps(a1, a2)) == \
            items(oracles.equivariant_maps(a1, a2))
        assert actions_isomorphic(a1, a2) == \
            oracles.actions_isomorphic(a1, a2)


def edge_diagram():
    """The tight one-edge path diagram: two shape objects, each with a
    groupoid on two objects."""
    shape = PresentedShape.path_category(("L", "R"), {"e": ("L", "R")},
                                         length_bound=2)
    edge = space_correspondence(("a", "b"), ("m", "w"), {0: "a", 1: "b"},
                                {0: "m", 1: "w"}, carrier=(0, 1))
    return from_generators(shape, {"e": edge})


def enumerated():
    """name -> (diagram, largest carrier size) for the dedupe checks."""
    out = dict(CASES)
    out.update({
        # product order and the order of the ranks disagree here: the
        # frame (x, b), (x, b) comes before (x, a), (y, *)
        "disc-ab-z2": (discrete_diagram(
            {"x": FinGroupoid.space(("a", "b")),
             "y": FinGroupoid.from_group(Group.cyclic(2))}), 3),
        "edge": (edge_diagram(), 4),
        "emn-2-3": (make_emn(2, 3), 4),
        "graded-1": (graded_diagram("1"), 4),
        "graded-a": (graded_diagram("a"), 4),
        "point": (point_diagram(2), 4),
        "swap": (swap_diagram(), 5)})
    for order in (3, 4):
        for j in hom_exponents(order, order):
            out[f"endo-z{order}-a^{j}"] = (
                one_generator(cyclic_hom_corr(order, order, j)), 3)
    return out


ENUMERATED = enumerated()


@pytest.mark.parametrize("name", sorted(ENUMERATED))
def test_enumerate_actions_matches_oracle_dedupe(name):
    # the same labelled representatives as the pairwise dedupe over
    # every frame, in the same order
    d, n = ENUMERATED[name]
    got = enumerate_actions(d, n)
    want = oracles.enumerate_actions(d, n)
    assert [as_data(a) for a in got] == [as_data(a) for a in want]


@pytest.mark.parametrize("name", ["disc-ab-z2", "edge", "graded-a", "swap"])
def test_enumerate_actions_in_one_bucket_matches_oracle(monkeypatch, name):
    # the key only narrows the exact search: with every table of a size
    # in one bucket, that search alone tells the classes apart
    monkeypatch.setattr(gpdcorr.diagram, "_iso_key",
                        lambda table, ids: len(table[0]))
    d, n = ENUMERATED[name]
    got = enumerate_actions(d, n)
    want = oracles.enumerate_actions(d, n)
    assert [as_data(a) for a in got] == [as_data(a) for a in want]


def relabel(a, names, order):
    """A copy of a with point y renamed names[y], listed in the given order."""
    def move(table):
        return {(label, names[y]): names[z] for (label, y), z in table.items()}
    return FAction(a.diagram, [names[a.carrier[i]] for i in order],
                   {names[y]: x for y, x in a.part.items()},
                   {names[y]: u for y, u in a.anchor.items()},
                   move(a.gact), {g: move(t) for g, t in a.alph.items()})


def pools():
    """Labelled actions grouped by diagram and carrier size, keeping only
    the groups that hold two non-isomorphic actions."""
    out = {}
    for name in ("swap", "disc-z2", "broken-graph", "space-r01-s01"):
        d, n = CASES[name]
        for a in labelled_actions(d, n):
            out.setdefault((name, len(a.carrier)), []).append(a)
    return {key: acts for key, acts in sorted(out.items())
            if not all(oracles.actions_isomorphic(acts[0], b) for b in acts)}


POOLS = pools()


def draw_relabelled(data, a):
    """a with its points renamed and reordered as hypothesis draws."""
    k = len(a.carrier)
    names = dict(zip(a.carrier, (f"p{i}" for i in
                                 data.draw(st.permutations(range(k))))))
    return relabel(a, names, data.draw(st.permutations(range(k))))


@given(st.data())
def test_relabelled_action_is_isomorphic(data):
    acts = POOLS[data.draw(st.sampled_from(sorted(POOLS)))]
    a = data.draw(st.sampled_from(acts))
    r = draw_relabelled(data, a)
    assert actions_isomorphic(a, r) and actions_isomorphic(r, a)
    others = [b for b in acts if not oracles.actions_isomorphic(a, b)]
    b = data.draw(st.sampled_from(others))
    assert actions_isomorphic(r, b) == oracles.actions_isomorphic(r, b)
    assert not actions_isomorphic(r, b)


@given(st.data())
def test_iso_key_is_invariant_and_the_bucket_search_is_exact(data):
    acts = POOLS[data.draw(st.sampled_from(sorted(POOLS)))]
    a, b = data.draw(st.sampled_from(acts)), data.draw(st.sampled_from(acts))
    r = draw_relabelled(data, a)
    ids = {}
    key = _iso_key(r.table(), ids)
    assert key == _iso_key(a.table(), ids)
    # enumerate_actions keeps b apart from r exactly when they are not
    # isomorphic: their keys differ, or the exact search in their
    # bucket finds no isomorphism
    same = key == _iso_key(b.table(), ids) and next(
        _propagated_maps(r.table(), b.table(), injective=True),
        None) is not None
    assert same == oracles.actions_isomorphic(r, b)


class Swapped:
    """A model whose translation swaps the points 0 and 1 at sizes >= 2:
    still a bijection on actions, but not natural."""

    def __init__(self, model):
        self.model = model

    def enumerate_on(self, carrier):
        return self.model.enumerate_on(carrier)

    def to_faction(self, ua):
        a = self.model.to_faction(ua)
        if len(a.carrier) < 2:
            return a
        names = {y: y for y in a.carrier}
        names[0], names[1] = 1, 0
        return relabel(a, names, (1, 0, *range(2, len(a.carrier))))


class Exchanged:
    """A model whose translation exchanges those of the i-th and j-th
    actions on carriers of one size: still a bijection on actions, but
    not natural."""

    def __init__(self, model, size, i, j):
        self.model, self.size, self.swap = model, size, {i: j, j: i}

    def enumerate_on(self, carrier):
        return self.model.enumerate_on(carrier)

    def to_faction(self, ua):
        if len(ua[0]) == self.size:
            uas = self.enumerate_on(list(ua[0]))
            k = uas.index(ua)
            ua = uas[self.swap.get(k, k)]
        return self.model.to_faction(ua)


class Flipped:
    """A model of a two-part discrete diagram whose translation moves
    every point that an action fixes to the other part; with ``beside``,
    only in actions that move a point too.  Either is a bijection on
    actions that keeps the orbits, but not natural: maps onto a fixed
    point differ.  Without ``beside`` every restriction to an orbit is
    translated alike and only connected actions of different sizes show
    it; with it the restriction to a fixed point beside a moved one is
    not the fixed point's translation."""

    def __init__(self, model, beside):
        self.model, self.beside = model, beside

    def enumerate_on(self, carrier):
        return self.model.enumerate_on(carrier)

    def to_faction(self, ua):
        anchor, act = ua
        moved = {y for (_, y), z in act.items() if z != y}
        if self.beside and not moved:
            return self.model.to_faction(ua)
        other = dict(zip(self.model.tags, reversed(self.model.tags)))
        want = {y: a if y in moved else (other[a[0]], a[1])
                for y, a in anchor.items()}
        twin = next(v for v in self.enumerate_on(list(anchor))
                    if v[0] == want and all(v[1].get(key) == z for key, z
                                            in act.items() if key[1] in moved))
        return self.model.to_faction(twin)


class Misplaced:
    """A model whose translation puts point 0 of every action on one
    point into a part that is not a shape object: an invalid action."""

    def __init__(self, model):
        self.model = model

    def enumerate_on(self, carrier):
        return self.model.enumerate_on(carrier)

    def to_faction(self, ua):
        a = self.model.to_faction(ua)
        if len(a.carrier) == 1:
            a.part[0] = "nowhere"
        return a


class Collapsed:
    """A model whose translation sends every action on two points to the
    first one's: valid actions, but the translation is not injective."""

    def __init__(self, model):
        self.model = model

    def enumerate_on(self, carrier):
        return self.model.enumerate_on(carrier)

    def to_faction(self, ua):
        if len(ua[0]) == 2:
            ua = self.enumerate_on(list(ua[0]))[0]
        return self.model.to_faction(ua)


def models():
    """name -> (diagram, model); every model is checked up to size 3,
    and against the all-pairs oracle up to size 4."""
    disc = CASES["disc-z2-z3"][0]
    disc_z2 = CASES["disc-z2"][0]
    point = point_diagram(2)
    graded = graded_diagram("a")
    out = {"disc-z2-z3": (disc, model_discrete_shape(disc)),
           "graded-a": (graded, model_group_shape(graded)),
           "zpres": (point, zpres(point)),
           "zpres-T2": (point, zpres(point, [(("T", 1), ("T", 1))])),
           "swapped-disc-z2-z3": (disc, Swapped(model_discrete_shape(disc))),
           "swapped-zpres": (point, Swapped(zpres(point))),
           # the trivial and the free Z/2 action on two points: the
           # exchange commutes with relabelling, so the connected stage
           # runs on representatives, and fails
           "exchanged-disc-z2": (disc_z2, Exchanged(
               model_discrete_shape(disc_z2), 2, 0, 1)),
           # two actions on three points that are not the first of their
           # class: every representative passes, the full scan fails
           "crossed-disc-z2": (disc_z2, Exchanged(
               model_discrete_shape(disc_z2), 3, 2, 3)),
           # the free Z/2 orbit maps onto a fixed point only on the
           # model side: connected actions of sizes 2 and 1
           "fixed-flipped-disc-z2-z3": (disc, Flipped(
               model_discrete_shape(disc), False)),
           # connected actions are translated as by the plain model, so
           # only the restriction of x2 + x1 to its fixed point fails
           "beside-flipped-disc-z2-z3": (disc, Flipped(
               model_discrete_shape(disc), True)),
           "misplaced-disc-z2-z3": (disc, Misplaced(
               model_discrete_shape(disc))),
           "collapsed-disc-z2-z3": (disc, Collapsed(
               model_discrete_shape(disc)))}
    for make in COMPLEXES:
        out["cgx-" + make.__name__] = presentation_model(make())
    return out


MODELS = models()


def verdict(verify, d, model, n=3):
    try:
        return verify(d, model, n)
    except Mismatch as e:
        return e.witness


@pytest.mark.parametrize("name", ["zpres"] + [
    "cgx-" + make.__name__ for make in COMPLEXES])
def test_presentation_actions_match_oracle(name):
    _, model = MODELS[name]
    for k in range(5):
        carrier = list(range(k))
        assert [(list(anchor.items()), list(act.items()))
                for anchor, act in model.enumerate_on(carrier)] == \
            [(list(anchor.items()), list(act.items()))
             for anchor, act in oracles.presentation_actions_on(model,
                                                                carrier)]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_verify_model_matches_oracle_scan(name):
    d, model = MODELS[name]
    assert verdict(verify_model, d, model) == \
        verdict(oracles.verify_model, d, model)


# at n = 5 the all-pairs scan of disc-z2-z3 and cgx-cx_free_product
# takes tens of seconds, so they are left out there
AT_FIVE = ["graded-a", "zpres", "cgx-cx_loop", "crossed-disc-z2",
           "exchanged-disc-z2", "swapped-disc-z2-z3", "swapped-zpres"]


# the diagrams of CASES and of the models that the library builds
ACTING = {**CASES, **{name: (d, 3) for name, (d, model) in MODELS.items()
                      if not hasattr(model, "model")}}


@pytest.mark.parametrize("name", sorted(ACTING))
def test_every_action_on_a_carrier_validates(name):
    # on a valid diagram; verify_model still validates every translation,
    # as gpdcorr model also verifies diagrams that do not validate, where
    # actions_on may build invalid actions with the same tables
    d, n = ACTING[name]
    for k in range(n + 1):
        for a in actions_on(d, list(range(k))):
            assert validate_action(d, a) == [], (k, a.table())


@pytest.mark.parametrize("name, witness", [
    ("misplaced-disc-z2-z3",
     "translated action invalid at size 1: 0 not assigned to a shape object"),
    ("collapsed-disc-z2-z3", "translation not injective at size 2")])
def test_broken_translation_is_refused(name, witness):
    d, model = MODELS[name]
    assert verdict(verify_model, d, model) == \
        verdict(oracles.verify_model, d, model) == witness


@pytest.mark.parametrize("name, n", [
    (name, n) for n in (3, 4) for name in sorted(MODELS)] + [
    (name, 5) for name in AT_FIVE])
def test_verify_model_matches_all_pairs_oracle(name, n):
    d, model = MODELS[name]
    assert verdict(verify_model, d, model, n) == \
        verdict(oracles.verify_model_all_pairs, d, model, n)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_representatives_match_the_unbucketed_oracle(name):
    # the same representatives, or None, as comparing every labelled
    # action with every representative kept so far
    _, model = MODELS[name]
    for k in range(5):
        tables = [(_table(ua), model.to_faction(ua).table())
                  for ua in model.enumerate_on(list(range(k)))]
        assert _representatives(tables) == oracles.representatives(tables)


def faction_items(a):
    """An FAction item for item, in the order of its dicts."""
    return (a.diagram, a.carrier, list(a.part.items()),
            list(a.anchor.items()), list(a.gact.items()),
            [(g, list(t.items())) for g, t in a.alph.items()])


@pytest.mark.parametrize("name", sorted(MODELS) + ["cgx-cx_loop-z3"])
def test_translate_matches_the_per_class_translators(name):
    # the test models wrap a finite model and enumerate its actions; over
    # Z/3 the closure adds alpha entries in an order that Z/2 cannot show
    if name in MODELS:
        model = MODELS[name][1]
        model = getattr(model, "model", model)
    else:
        model = presentation_model(cx_loop(3))[1]
    translate = oracles.TO_FACTION[type(model)]
    for k in range(5):
        for ua in model.enumerate_on(list(range(k))):
            assert faction_items(_translate(model, ua)) == \
                faction_items(translate(model, ua))


@pytest.mark.parametrize("name, scans", [
    ("disc-z2-z3", ["connected"]),
    ("exchanged-disc-z2", ["connected", "all"]),
    ("crossed-disc-z2", ["all"]),
    ("swapped-disc-z2-z3", ["all"]), ("swapped-zpres", ["all"]),
    ("fixed-flipped-disc-z2-z3", ["connected", "all"]),
    ("beside-flipped-disc-z2-z3", ["connected", "all"])] + [
    (name, ["connected"]) for name in ["graded-a", "zpres"] + [
        "cgx-" + make.__name__ for make in COMPLEXES]])
def test_verify_model_falls_back_to_the_full_scan(monkeypatch, name, scans):
    # a model whose isomorphisms differ from the diagram's, or that fails
    # the connected stage, is scanned in full; a model that verifies
    # passes the connected stage alone
    d, model = MODELS[name]
    labelled = {k: len(model.enumerate_on(list(range(k)))) for k in range(4)}
    natural, connected = gpdcorr.model._natural, gpdcorr.model._connected
    seen = []

    def spy_connected(*args):
        seen.append("connected")
        return connected(*args)

    def spy(per_size):
        assert {k: len(t) for k, t in per_size.items()} == labelled
        seen.append("all")
        return natural(per_size)

    monkeypatch.setattr(gpdcorr.model, "_connected", spy_connected)
    monkeypatch.setattr(gpdcorr.model, "_natural", spy)
    assert verdict(verify_model, d, model) == \
        verdict(oracles.verify_model_all_pairs, d, model)
    assert seen == scans


@pytest.mark.parametrize("name, sizes", [
    ("swapped-disc-z2-z3", "1 and 2"), ("swapped-zpres", "1 and 3"),
    ("exchanged-disc-z2", "1 and 2")])
def test_non_natural_model_is_refused(name, sizes):
    assert verdict(verify_model, *MODELS[name]) == \
        f"naturality fails for {{0: 0}} between sizes {sizes}"


def test_full_scan_passes_a_model_that_verifies(monkeypatch):
    # the connected stage decides every model that verifies, so the scan's
    # own pass is reached by refusing that stage
    monkeypatch.setattr(gpdcorr.model, "_connected", lambda *args: False)
    assert verify_model(*MODELS["disc-z2-z3"], 3) is True


def test_full_scan_compares_orbits_when_the_maps_agree():
    # one table moves 0 to 1, the other fixes both points: their only
    # self-map is the identity, but their orbits differ
    frame = {0: "x", 1: "y"}
    joined, apart = (frame, {0: {"t": 1}, 1: {}}), (frame, {0: {}, 1: {}})
    with pytest.raises(Mismatch) as exc:
        _natural({2: [(joined, apart)]})
    assert exc.value.witness == "invariant maps differ for {0: 0, 1: 1} " \
        "at size 2"


def partitions(k):
    """A partition of range(k), as item -> least member of its class."""
    return st.lists(st.integers(0, max(k - 1, 0)), min_size=k,
                    max_size=k).map(
        lambda labels: {y: labels.index(labels[y]) for y in range(k)})


@given(st.integers(0, 5).flatmap(
    lambda k: st.tuples(st.just(k), partitions(k), partitions(k))))
def test_invariance_witness_matches_scan(case):
    k, c1, c2 = case
    want = oracles.invariance_witness(k, c1, c2)
    if c1 == c2:
        assert want is None
    else:
        assert _invariance_witness(k, c1, c2) == want


@pytest.mark.parametrize("make", COMPLEXES, ids=lambda m: m.__name__)
def test_count_homs_matches_oracle_on_complexes(make):
    c = make()
    for p in (fundamental_group(c), isotropy_at_infinity(c)):
        for n in range(5):
            assert count_homs(p, n) == oracles.count_homs(p, n)


GENS = ("s", "t", "u", "v")


@st.composite
def presentations(draw):
    """At most 4 generators and 3 relators of length <= 5, with n <= 4
    (n <= 3 on 4 generators, so the oracle walks at most 24**3 leaves
    when nothing prunes)."""
    gens = GENS[:draw(st.integers(0, 4))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    rels = draw(st.lists(st.lists(letter, max_size=5), max_size=3)) \
        if gens else []
    n = draw(st.integers(0, 4 if len(gens) <= 3 else 3))
    return GroupPresentation(gens, rels), n


def pres(gens, *rels):
    return GroupPresentation(gens, [[(s, e) for s, e in zip(r[::2], r[1::2])]
                                    for r in rels])


@given(presentations())
@example((pres("stu", ("t", 1, "t", -1), ("u", -1),
               ("s", 1, "s", 1, "u", 1, "s", 1)), 4))
@example((pres("stuv", ("s", 1, "s", 1), ("u", 1, "t", -1, "u", 1)), 3))
@example((pres("st", ("s", 1, "t", 1, "s", -1, "t", -1)), 4))
# each relator uses each generator it names twice, so Tietze reduction
# eliminates none: one component of two generators, and one of three
@example((pres("st", ("s", 1, "s", 1, "t", 1, "t", 1),
               ("s", 1, "t", 1, "s", 1, "t", 1)), 4))
@example((pres("stu", ("s", 1, "s", 1, "t", 1, "t", 1),
               ("t", 1, "t", 1, "u", -1, "u", -1),
               ("s", 1, "t", 1, "u", 1, "s", 1, "t", 1, "u", 1)), 4))
# generator names that do not compare with each other
@example((pres((1, "a"), (1, 1, "a", 1, 1, 1, "a", 1),
               (1, 1, 1, 1, "a", 1, "a", 1)), 4))
def test_count_homs_matches_oracle_on_random_presentations(case):
    p, n = case
    assert count_homs(p, n) == oracles.count_homs(p, n)

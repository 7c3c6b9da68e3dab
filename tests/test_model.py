import pytest

import oracles
from corpus import e1, e2
from gpdcorr.diagram import (Diagram, discrete_diagram, from_complex,
                             from_generators, validate_diagram)
from gpdcorr.errors import Mismatch, NotEquivalence, NotTight
from gpdcorr.fincat import PresentedShape, groupoid_completion
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.model import (
    OreUniversal, PresentationModel, check_terminal, model_discrete_shape,
    model_group_shape, pair_from_nf, pair_groupoid_model, rho,
    tight_universal_action, tighten, verify_model)
from gpdcorr.selfsim import act_on_word, germ_equal, iterate, nf, nf_mul

from test_diagram import (e1_diagram, point_diagram, swap_action,
                          swap_diagram)


def z2_shape_category():
    from gpdcorr.fincat import FinCategory
    return FinCategory(
        ("*",), {"1": ("*", "*"), "c": ("*", "*")},
        {("1", "1"): "1", ("1", "c"): "c", ("c", "1"): "c", ("c", "c"): "1"},
        {"*": "1"})


def graded_diagram(twist):
    z2 = Group.cyclic(2)
    cat = z2_shape_category()
    homs = {a: {"1": "1", "a": "a"} for a in cat.arrow_ids()}
    twists = {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()}
    twists[("c", "c")] = twist
    return from_complex(cat, {"*": z2}, homs, twists)


def e2_diagram(bound=3):
    shape = PresentedShape.free_monoid(("t",), length_bound=bound)
    d = from_generators(shape, {"t": iterate(e2(), 1)})
    d.selfsim = e2()
    return d


def test_disjoint_union_model_counts():
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2)),
                          "y": FinGroupoid.from_group(Group.cyclic(3))})
    m = model_discrete_shape(d)
    assert len(m.groupoid.objects) == 2
    assert len(m.groupoid) == 5


def test_single_groupoid_discrete_model():
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(3))})
    m = model_discrete_shape(d)
    assert len(m.groupoid) == 3


def test_verify_discrete_model():
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2)),
                          "y": FinGroupoid.space(("p",))})
    assert verify_model(d, model_discrete_shape(d), 3)


def element_orders(gpd):
    orders = []
    for a in gpd.arrow_ids():
        k, power = 1, a
        while not gpd.is_unit(power):
            power = gpd.mul(power, a)
            k += 1
        orders.append(k)
    return sorted(orders)


def test_graded_model_klein_vs_z4():
    klein = model_group_shape(graded_diagram("1"))
    z4 = model_group_shape(graded_diagram("a"))
    assert len(klein.groupoid) == len(z4.groupoid) == 4
    assert element_orders(klein.groupoid) == [1, 2, 2, 2]
    assert element_orders(z4.groupoid) == [1, 2, 4, 4]


def test_graded_model_trivial_shape_is_the_group():
    from gpdcorr.fincat import FinCategory
    cat = FinCategory(("*",), {"1": ("*", "*")}, {("1", "1"): "1"},
                      {"*": "1"})
    d = from_complex(cat, {"*": Group.cyclic(3)},
                     {"1": {g: g for g in Group.cyclic(3)}},
                     {("1", "1"): "1"})
    m = model_group_shape(d)
    assert len(m.groupoid) == 3
    assert element_orders(m.groupoid) == [1, 3, 3]


def test_group_extension_round_trip():
    # Z/4 as an extension of Z/2 by Z/2 with transversal {1, a}
    z4 = Group.cyclic(4)
    kernel = {"1": "1", "a": "a2"}          # Z/2 -> Z/4
    cat = z2_shape_category()
    phi = {"1": "1", "a": "a"}              # conjugation is trivial
    u_cc = "a"                              # t(c)^2 == a2, named 'a' in Z/2
    z2 = Group.cyclic(2)
    homs = {aid: dict(phi) for aid in cat.arrow_ids()}
    twists = {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()}
    twists[("c", "c")] = u_cc
    d = from_complex(cat, {"*": z2}, homs, twists)
    m = model_group_shape(d)
    assert element_orders(m.groupoid) == element_orders(
        FinGroupoid.from_group(z4))


def test_graded_model_rejects_non_equivalence():
    d = graded_diagram("1")
    bad = Diagram(d.shape, d.gr, dict(d.corr), dict(d.mu))
    gen = d.gen_arrows()[0]
    bad.corr[gen] = iterate(e1(), 1)
    with pytest.raises(NotEquivalence):
        model_group_shape(bad)


def test_verify_graded_model():
    d = graded_diagram("a")
    assert verify_model(d, model_group_shape(d), 3)


def test_tight_universal_action_valid_and_terminal():
    from gpdcorr.diagram import validate_action
    corpus = [swap_diagram(2), graded_diagram("1"),
              discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))})]
    for d in corpus:
        omega = tight_universal_action(d)
        assert validate_action(d, omega) == []
        assert check_terminal(d, omega, 3)


def test_tight_universal_action_rejects_non_tight():
    with pytest.raises(NotTight):
        tight_universal_action(e1_diagram(2))


def zpres(d, relators=()):
    t = d.gen_arrows()[0]
    xi = d.X(t).carrier[0]
    return PresentationModel(d, list(d.gr["*"].objects), {"T": ("*", "*")},
                             relators, {"T": ("alph", t, xi)})


def test_verify_point_diagram_vs_Z():
    d = point_diagram(2)
    assert verify_model(d, zpres(d), 3)


def test_verify_point_diagram_vs_Z2_fails():
    d = point_diagram(2)
    wrong = zpres(d, relators=[(("T", 1), ("T", 1))])
    with pytest.raises(Mismatch):
        verify_model(d, wrong, 3)


def test_ore_universal_levels_e1():
    d = e1_diagram()
    om = OreUniversal(d, depth=3)
    assert om.status == "rational(3)"
    assert [len(level) for level in om.levels] == [1, 2, 4, 8]
    # thread compatibility: projections restrict along prefixes
    for n, proj in enumerate(om.projections, start=1):
        assert set(proj) == set(om.levels[n])
        assert set(proj.values()) <= set(om.levels[n - 1])
    for z in om.points(1, 1):
        for n in range(1, 3):
            assert om.thread(z, n)[: n - 1] == om.thread(z, n - 1)


def test_ore_universal_finite_cases():
    assert OreUniversal(point_diagram(2)).finite
    om = OreUniversal(swap_diagram(2))
    assert om.finite
    assert len(om.points()) == 2


def test_rho_compatibility():
    d = swap_diagram(2)
    a = swap_action(d)
    t = ("*", "*", ("t",))
    tt = ("*", "*", ("t", "t"))
    for y in a.carrier:
        r1 = rho(d, a, t, y)
        r2 = rho(d, a, tt, y)
        assert d.X(t).p(r2[:1]) == r1


def test_tighten_swap_is_tight_graph_on_two_points():
    d = swap_diagram(2)
    om = OreUniversal(d)
    td = tighten(d, om)
    assert validate_diagram(td) == []
    assert td.is_tight()
    gen = td.gen_arrows()[0]
    assert len(td.X(gen)) == 2
    assert len(td.gr["*"].objects) == 2


def test_tighten_point_diagram():
    d = point_diagram(2)
    td = tighten(d, OreUniversal(d))
    assert td.is_tight()
    assert len(td.X(td.gen_arrows()[0])) == 1


def test_tighten_e1_rational_scan():
    d = e1_diagram()
    scan = tighten(d, OreUniversal(d))
    assert scan.scan_tight(2, 2)


def test_pair_model_point_diagram_is_Z():
    d = point_diagram(2)
    m = pair_groupoid_model(d)
    om = OreUniversal(d)
    arrows = m.arrows_over(om.points(), word_len=2)
    assert len(arrows) == 5
    assert sorted(p.grade() for p in arrows) == [-2, -1, 0, 1, 2]
    for p in arrows:
        assert m.is_unit(p) == (p.grade() == 0)
    one = next(p for p in arrows if p.grade() == 1)
    two = m.mult(one, one)
    assert two.grade() == 2


def test_pair_model_swap_two_arrows_per_grade():
    d = swap_diagram(2)
    m = pair_groupoid_model(d)
    arrows = m.arrows_over(OreUniversal(d).points(), word_len=2)
    by_grade = {}
    for p in arrows:
        by_grade.setdefault(p.grade(), []).append(p)
    assert set(by_grade) == {-2, -1, 0, 1, 2}
    assert all(len(v) == 2 for v in by_grade.values())


def test_pair_model_group_shape_delegates_to_graded():
    d = graded_diagram("a")
    m = pair_groupoid_model(d)
    assert len(m.groupoid) == 4


def test_pair_model_matches_germ_calculus():
    for data, maker in ((e1(), e1_diagram), (e2(), e2_diagram)):
        d = maker(3)
        m = pair_groupoid_model(d)
        points = [data.ev((), ("0",)), data.ev((), ("1",)),
                  data.ev(("0",), ("1",)), data.ev((), ("0", "1"))]
        nfs = []
        paths = [w for n in range(2) for w in data.paths(n)]
        for w1 in paths:
            for g in data.group:
                for w2 in paths:
                    nfs.append(nf(data, w1.edges, g, w2.edges,
                                  rv1=w1.rv, rv2=w2.rv))
        for z in points:
            usable = [t for t in nfs if data.ev_starts_with(z, t.w2)]
            for t1 in usable:
                for t2 in usable:
                    # the model decides by germ_equal: check it on the walk
                    p, q = pair_from_nf(data, t1, z), pair_from_nf(data, t2, z)
                    assert m.equal(p, q) == oracles.pair_equal(p, q)


def test_pair_model_composition_matches_nf_mul():
    data = e1()
    d = e1_diagram(3)
    m = pair_groupoid_model(d)
    z = data.ev((), ("0",))
    t2 = nf(data, ("1",), "a", ())
    t1 = nf(data, (), "a", ("1",))
    mid = act_on_word(t2, z)
    p = pair_from_nf(data, t1, mid)
    q = pair_from_nf(data, t2, z)
    prod = m.mult(p, q)
    expected = pair_from_nf(data, nf_mul(t1, t2), z)
    assert m.equal(prod, expected)


def test_pair_model_e2_isotropy():
    # [a, 0^inf] is a nonunit in the pair model, but its germ is trivial
    data = e2()
    d = e2_diagram(3)
    m = pair_groupoid_model(d)
    z = data.ev((), ("0",))
    t = nf(data, (), "a", ())
    p = pair_from_nf(data, t, z)
    assert not m.is_unit(p)
    assert p.source() == p.target()
    # the pointwise germ is the identity
    assert act_on_word(t, z) == z
    assert germ_equal(t, nf(data, (), "1", ()), z) is False


def test_grading_functor():
    d = point_diagram(2)
    m = pair_groupoid_model(d)
    om = OreUniversal(d)
    comp = groupoid_completion(d.shape, bound=4)
    theta = m.grading_functor(comp)
    arrows = m.arrows_over(om.points(), word_len=2)
    for p in arrows:
        for q in arrows:
            if p.source() != q.target():
                continue
            if abs(p.grade() + q.grade()) > 2:
                continue
            assert theta(m.mult(p, q)) == comp.mul(theta(p), theta(q))
        assert theta(p.inverse()) == comp.inv(theta(p))


def test_constructed_model_groupoids_satisfy_axioms():
    from gpdcorr.groupoid import validate_groupoid
    for twist in ("1", "a"):
        m = model_group_shape(graded_diagram(twist))
        assert validate_groupoid(m.groupoid) == []
    from gpdcorr.diagram import discrete_diagram
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(3))})
    assert validate_groupoid(model_discrete_shape(d).groupoid) == []


def test_tightened_base_groupoid_valid():
    from gpdcorr.groupoid import validate_groupoid
    d = swap_diagram(2)
    td = tighten(d, OreUniversal(d))
    assert validate_groupoid(td.gr["*"]) == []

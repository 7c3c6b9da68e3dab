"""Acceptance suite: one test per criterion, exact assertions throughout.

Every check is bit-level; the only bounds are the stated depth and size
truncations.  Each test prints a single pass line on success.
"""

import subprocess
import sys

import pytest

from corpus import e1, e2, ep_graph
from gpdcorr import cli
from gpdcorr.cgx import count_homs, fundamental_group, isotropy_at_infinity
from gpdcorr.corr import (associator, classify, compose, from_group_hom,
                          identity_correspondence, inner_product,
                          space_correspondence, validate_correspondence)
from gpdcorr.diagram import (action_from_theta, enumerate_actions,
                             singleton_thetas, validate_action)
from gpdcorr.errors import ConditionFailed, Mismatch
from gpdcorr.fincat import (IS_ORE, NOT_ORE, PresentedShape,
                            groupoid_completion, ore_check)
from gpdcorr.groupoid import (FinGroupoid, Group, PartialBijection,
                              germ_groupoid, transformation_groupoid)
from gpdcorr.mn import (check_conditions, make_emn, mn_to_faction,
                        omega_depth, restrict_config, to_partial_action,
                        validate_mn_action)
from gpdcorr.model import (check_terminal, model_discrete_shape,
                           model_group_shape, pair_from_nf,
                           pair_groupoid_model, tight_universal_action,
                           verify_model)
from gpdcorr.selfsim import (act_on_word, germ_equal, iterate, nf, nf_mul,
                             nf_unit)

from test_cgx import CORPUS as CGX_CORPUS
from test_cgx import cx_single_arrow
from test_diagram import (broken_graph_diagram, e1_diagram, graph_thetas,
                          point_diagram, swap_correspondence, swap_diagram)
from test_model import e2_diagram, graded_diagram, zpres
from test_selfsim import all_nfs, rational_points


def corr_corpus():
    z3 = FinGroupoid.from_group(Group.cyclic(3))
    pq = FinGroupoid.space(("p", "q"))
    e1c = iterate(e1(), 1)
    epc = iterate(ep_graph(), 1)
    hom24 = from_group_hom(Group.cyclic(2), Group.cyclic(4),
                           {"1": "1", "a": "a2"})
    return [identity_correspondence(z3), identity_correspondence(pq),
            e1c, epc, hom24, swap_correspondence(), compose(e1c, e1c)]


def test_criterion_1_correspondence_algebra():
    corpus = corr_corpus()
    assert len(corpus) >= 5
    assert all(len(c) <= 16 for c in corpus)
    for c in corpus:
        assert validate_correspondence(c) == []
        gp = c.right
        # all four clauses of the inner-product proposition
        for x1 in c.carrier:
            assert inner_product(c, x1, x1) == gp.unit(c.smap[x1])
            for x2 in c.carrier:
                if c.p(x1) != c.p(x2):
                    continue
                g = inner_product(c, x1, x2)
                assert gp.dst(g) == c.smap[x1] and gp.src(g) == c.smap[x2]
                assert c.ract[(x1, g)] == x2
                assert inner_product(c, x2, x1) == gp.invert(g)
                for h in c.left.arrow_ids():
                    if (h, x1) in c.lact and (h, x2) in c.lact:
                        assert inner_product(c, c.lact[(h, x1)],
                                             c.lact[(h, x2)]) == g
        # unitor identities, element-wise on both sides
        right_unit = compose(c, identity_correspondence(c.right))
        iso = {i: c.ract[right_unit.pairs[i]] for i in right_unit.carrier}
        assert sorted(map(repr, iso.values())) == sorted(map(repr, c.carrier))
        for (i, g), j in right_unit.ract.items():
            assert c.ract[(iso[i], g)] == iso[j]
        left_unit = compose(identity_correspondence(c.left), c)
        iso2 = {i: c.lact[left_unit.pairs[i]] for i in left_unit.carrier}
        assert sorted(map(repr, iso2.values())) == sorted(map(repr, c.carrier))
        for (h, i), j in left_unit.lact.items():
            assert c.lact[(h, iso2[i])] == iso2[j]
    # associativity of composition on all composable corpus triples
    triples = 0
    for c1 in corpus:
        for c2 in corpus:
            if c1.right.arrows != c2.left.arrows:
                continue
            for c3 in corpus:
                if c2.right.arrows != c3.left.arrows:
                    continue
                if len(c1) * len(c3) > 64:
                    continue
                left, right, iso = associator(c1, c2, c3)
                triples += 1
                assert sorted(iso) == list(left.carrier)
                assert sorted(iso.values()) == list(right.carrier)
                for (h, i), k in left.lact.items():
                    assert right.lact[(h, iso[i])] == iso[k]
                for (i, g), k in left.ract.items():
                    assert right.ract[(iso[i], g)] == iso[k]
    assert triples >= 5
    # tight . tight == tight
    hom42 = from_group_hom(Group.cyclic(4), Group.cyclic(2),
                           {"1": "1", "a": "a", "a2": "1", "a3": "a"})
    tights = [(corr_corpus()[4], hom42),
              (swap_correspondence(), swap_correspondence())]
    for t1, t2 in tights:
        assert classify(t1)["tight"] and classify(t2)["tight"]
        assert classify(compose(t1, t2))["tight"]
    print("criterion 1: PASS")


def action_corpus():
    out = []
    swap_d = swap_diagram(2)
    out.extend((swap_d, a) for a in enumerate_actions(swap_d, 6))
    graph_d, _ = broken_graph_diagram()
    out.extend((graph_d, a) for a in enumerate_actions(graph_d, 4))
    from gpdcorr.diagram import discrete_diagram
    disc = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))})
    out.extend((disc, a) for a in enumerate_actions(disc, 4))
    return out


def test_criterion_2_theta_round_trip():
    corpus = action_corpus()
    assert len(corpus) >= 10
    for d, a in corpus:
        assert len(a.carrier) <= 6
        assert validate_action(d, a) == []
        thetas = singleton_thetas(d, a)
        back = action_from_theta(d, dict(a.part), dict(a.anchor), thetas)
        assert back.part == a.part and back.anchor == a.anchor
        assert back.gact == a.gact and back.alph == a.alph
    # the four injections each trip their own condition
    d, shape = broken_graph_diagram()
    part = {0: "L", 1: "L", 2: "R"}
    with pytest.raises(ConditionFailed) as exc:
        action_from_theta(d, part, {0: "p", 1: "q", 2: "m"}, graph_thetas(
            d, shape, part, {0: "p", 1: "q", 2: "m"},
            {(0,): PartialBijection({2: 0}), (1,): PartialBijection({2: 0})}))
    assert exc.value.which == ".4"
    from test_diagram import (test_action_from_theta_condition1,
                              test_action_from_theta_condition2,
                              test_action_from_theta_condition3_image_dropped)
    test_action_from_theta_condition1()
    test_action_from_theta_condition2()
    test_action_from_theta_condition3_image_dropped()
    print("criterion 2: PASS")


def test_criterion_3_tight_model_terminality():
    from gpdcorr.diagram import discrete_diagram, from_generators
    edge = space_correspondence(("a", "b"), ("m", "w"),
                                {0: "a", 1: "b"}, {0: "m", 1: "w"},
                                carrier=(0, 1))
    shape = PresentedShape.path_category(("L", "R"), {"e": ("L", "R")},
                                         length_bound=2)
    corpus = [swap_diagram(2), graded_diagram("1"), graded_diagram("a"),
              discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))}),
              from_generators(shape, {"e": edge})]
    assert len(corpus) >= 3
    for d in corpus:
        omega = tight_universal_action(d)
        assert validate_action(d, omega) == []
        assert check_terminal(d, omega, 4)
    print("criterion 3: PASS")


def test_criterion_4_model_defining_bijection():
    from gpdcorr.diagram import discrete_diagram
    disc = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2)),
                             "y": FinGroupoid.from_group(Group.cyclic(3))})
    assert verify_model(disc, model_discrete_shape(disc), 4)
    graded = graded_diagram("a")
    assert verify_model(graded, model_group_shape(graded), 4)
    pt = point_diagram(2)
    assert verify_model(pt, zpres(pt), 4)
    with pytest.raises(Mismatch):
        verify_model(pt, zpres(pt, relators=[(("T", 1), ("T", 1))]), 4)
    print("criterion 4: PASS")


def test_criterion_5_pair_model_vs_germ_calculus():
    for data, maker in ((e1(), e1_diagram), (e2(), e2_diagram)):
        d = maker(3)
        pm = pair_groupoid_model(d)
        points = rational_points(data, 1, 2)
        nfs = all_nfs(data, 1)
        unit = nf_unit(data)
        tg = transformation_groupoid(
            nfs, nf_mul,
            lambda t, z: _try_act(t, z),
            lambda t1, t2, z: germ_equal(t1, t2, z),
            points, lambda z: unit)
        for z in points:
            usable = [t for t in nfs if data.ev_starts_with(z, t.w2)]
            arrows = {tg.arrow(t, z) for t in usable}
            pairs = []
            for t in usable:
                p = pair_from_nf(data, t, z)
                if not any(pm.equal(p, q) for q in pairs):
                    pairs.append(p)
            assert len(arrows) == len(pairs)
            for t1 in usable:
                for t2 in usable:
                    same_tg = tg.arrow(t1, z) == tg.arrow(t2, z)
                    same_pm = pm.equal(pair_from_nf(data, t1, z),
                                       pair_from_nf(data, t2, z))
                    assert same_tg == same_pm
                p = pair_from_nf(data, t1, z)
                assert p.source() == z
                assert p.target() == tg.r((t1, z))
    # the E2 isotropy phenomenon: a nonunit arrow with trivial germ
    data = e2()
    d = e2_diagram(3)
    pm = pair_groupoid_model(d)
    z = data.ev((), ("0",))
    t = nf(data, (), "a", ())
    p = pair_from_nf(data, t, z)
    assert not pm.is_unit(p) and p.source() == p.target()
    theta = {str(u): PartialBijection(
        {w: act_on_word(u, w) for w in data.paths(3)
         if _try_act(u, w) is not None})
        for u in all_nfs(data, 1) if not u.zero}
    gg = germ_groupoid(theta, data.paths(3))
    moved = act_on_word(t, data.path(("0", "0", "0")))
    assert moved == data.path(("0", "0", "0"))
    assert gg.is_unit(gg.arrow(moved, moved))
    print("criterion 5: PASS")


def _try_act(t, z):
    from gpdcorr.errors import Undefined
    try:
        return act_on_word(t, z)
    except Undefined:
        return None


def test_criterion_6_normal_form_faithfulness():
    from test_selfsim import word_map
    for data in (e1(), ep_graph()):
        nfs2 = all_nfs(data, 2)
        for t in nfs2:
            assert nf_mul(nf_mul(t, t.star()), t) == t
            assert t.star().star() == t
        nfs1 = all_nfs(data, 1)
        for t1 in nfs1:
            for t2 in nfs1:
                assert nf_mul(t1, t2).star() == nf_mul(t2.star(), t1.star())
                for t3 in nfs1:
                    assert nf_mul(nf_mul(t1, t2), t3) == \
                        nf_mul(t1, nf_mul(t2, t3))
        # representation on words of length <= 5: the product acts as
        # the composite partial map wherever the horizon decides both
        for t1 in nfs1:
            for t2 in nfs1:
                prod = nf_mul(t1, t2)
                m1 = word_map(t1, 6)
                m2 = word_map(t2, 5)
                mp = word_map(prod, 5)
                for n in range(6):
                    for z in data.paths(n):
                        inner = m2.get(z)
                        composite = m1.get(inner) if inner is not None \
                            else None
                        assert mp.get(z) == composite
    print("criterion 6: PASS")


def test_criterion_7_complexes_of_groups():
    assert len(CGX_CORPUS) >= 4
    for maker in CGX_CORPUS:
        c = maker()
        p1 = fundamental_group(c)
        p2 = isotropy_at_infinity(c)
        assert p1 == p2
        for n in (2, 3, 4, 5):
            assert count_homs(p1, n) == count_homs(p2, n)
    assert count_homs(fundamental_group(cx_single_arrow()), 3) == 6
    print("criterion 7: PASS")


def test_criterion_8_ore_machinery():
    for k in (1, 2, 3):
        gens = tuple(f"a{i}" for i in range(k))
        assert ore_check(PresentedShape.free_commutative(gens)).status == IS_ORE
    from test_fincat import idempotent_monoid, z2_category
    assert ore_check(PresentedShape.group_shape(z2_category())).status == IS_ORE
    res = ore_check(PresentedShape.free_monoid(("a", "b")), 4)
    assert res.status == NOT_ORE
    assert {w[2] for w in res.witness} == {("a",), ("b",)}
    zz = groupoid_completion(PresentedShape.free_monoid(("t",), 5), bound=5)
    assert len(zz.classes) == 11
    zz2 = groupoid_completion(PresentedShape.finite(idempotent_monoid()),
                              bound=2)
    assert len(zz2.classes) == 1
    print("criterion 8: PASS")


def test_criterion_9_mn_systems():
    for (m, n) in ((1, 2), (1, 3), (2, 3)):
        acts = enumerate_actions(make_emn(m, n), 6)
        assert len(acts) == 1 and acts[0].carrier == ()
    d11 = make_emn(1, 1)
    from test_mn import candidates_11
    for k in range(5):
        for a in candidates_11(k):
            mn_ok = validate_mn_action(a) == []
            assert mn_ok == (check_conditions(to_partial_action(a)) == [])
            assert mn_ok == (validate_action(d11, mn_to_faction(d11, a)) == [])
    for (m, n, d) in ((1, 1, 2), (1, 2, 2)):
        deep = omega_depth(m, n, d)
        shallow = omega_depth(m, n, d - 1)
        assert {restrict_config(c, d - 1) for c in deep} == set(shallow)
    print("criterion 9: PASS")


def test_criterion_10_cli_determinism(tmp_path):
    docs = {
        "e1.json": cli.envelope("selfsimilar", cli.selfsimilar_payload(e1())),
        "e2.json": cli.envelope("selfsimilar", cli.selfsimilar_payload(e2())),
        "cx.json": cli.envelope("complex_of_groups",
                                cli.complex_payload(cx_single_arrow())),
        "pt.json": cli.envelope("diagram", cli.diagram_payload(point_diagram(2))),
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(cli.dumps(doc), encoding="utf-8")
    commands = [
        ("validate", str(tmp_path / "e1.json"), "--json"),
        ("selfsim", str(tmp_path / "e1.json"), "nf-mul", "e:a:e", "0:1:e"),
        ("selfsim", str(tmp_path / "e2.json"), "effective", "--json"),
        ("cgx", str(tmp_path / "cx.json"), "homs", "-n", "3"),
        ("mn", "1", "1", "--depth", "2", "--json"),
        ("model", str(tmp_path / "pt.json"), "--verify", "2", "--depth", "2"),
    ]

    def run(cmd):
        proc = subprocess.run([sys.executable, "-m", "gpdcorr.cli", *cmd],
                              capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr

    sequential = [run(cmd) for cmd in commands]
    again = [run(cmd) for cmd in commands]
    assert sequential == again
    procs = [[subprocess.Popen([sys.executable, "-m", "gpdcorr.cli", *cmd],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
              for cmd in commands] for _ in range(4)]
    for lane in procs:
        outs = []
        for proc in lane:
            out, err = proc.communicate()
            outs.append((proc.returncode, out, err))
        assert outs == sequential
    print("criterion 10: PASS")

import os
import subprocess
import sys

import pytest

from corpus import e1, e2, ep_graph, trivial_alphabet
import gpdcorr
from gpdcorr.corr import compose, validate_correspondence
from gpdcorr.errors import DepthInsufficient, ParseError, Undefined
from gpdcorr.groupoid import Group
from gpdcorr.selfsim import (
    SelfSimilarData, act_on_word, effective_check, germ_equal, iterate, nf,
    nf_mul, nf_restrict, nf_star, nf_unit, nf_zero, slice_intersections)


def all_nfs(data, max_len):
    """Every normal form with both words of length <= max_len."""
    paths = [p for n in range(max_len + 1) for p in data.paths(n)]
    out = []
    for w1 in paths:
        for g in data.group:
            for w2 in paths:
                if data.ps(w1) == data.vact[(g, data.ps(w2))]:
                    out.append(nf(data, w1.edges, g, w2.edges,
                                  rv1=w1.rv, rv2=w2.rv))
    return out


def word_map(t, max_len):
    """Independent oracle: the graph of a normal form on short paths.

    Computed directly from the letter action and the cocycle, without
    going through act_on_word.
    """
    data = t.data
    out = {}
    if t.zero:
        return out
    for n in range(max_len + 1):
        for z in data.paths(n):
            if data.pr(z) != data.pr(t.w2):
                continue
            k = len(t.w2.edges)
            if z.edges[:k] != t.w2.edges:
                continue
            h, moved = t.g, []
            for e in z.edges[k:]:
                moved.append(data.eact[(h, e)])
                h = data.cocycle[(h, e)]
            out[z] = data.path(t.w1.edges + tuple(moved), data.pr(t.w1))
    return out


def test_corpus_data_valid():
    for data in (e1(), e2(), ep_graph(), trivial_alphabet()):
        assert data.validate() == []


def test_nf_mul_e1_frozen_example():
    data = e1()
    t1 = nf(data, (), "a", ())
    t2 = nf(data, ("0",), "1", ())
    assert nf_mul(t1, t2) == nf(data, ("1",), "a", ())


def test_nf_mul_matches_partial_map_composition():
    for data in (e1(), ep_graph()):
        nfs = all_nfs(data, 1)
        for t1 in nfs:
            for t2 in nfs:
                prod = nf_mul(t1, t2)
                m1, m2 = word_map(t1, 4), word_map(t2, 4)
                composite = {z: m1[w] for z, w in m2.items() if w in m1}
                expected = word_map(prod, 4)
                short = {z: w for z, w in composite.items()
                         if len(z.edges) <= 4 - len(t1.w1.edges)}
                for z, w in expected.items():
                    if z in composite:
                        assert composite[z] == w
                for z, w in short.items():
                    assert expected.get(z) == w


def test_idempotents():
    data = e1()
    t = nf(data, ("0", "1"), "1", ("0", "1"))
    assert nf_mul(t, t) == t


def test_disjoint_prefixes_give_zero():
    data = e1()
    t1 = nf(data, ("0",), "1", ("0",))
    t2 = nf(data, ("1",), "1", ())
    assert nf_mul(t1, t2) == nf_zero(data)


def test_nf_star():
    data = e1()
    assert nf_star(nf(data, (), "a", ())) == nf(data, (), "a", ())
    assert nf_star(nf(data, ("0",), "a", ("1",))) == nf(data, ("1",), "a", ("0",))


def test_inverse_semigroup_axioms():
    for data in (e1(), ep_graph()):
        nfs = all_nfs(data, 2) + [nf_zero(data)]
        for t in nfs:
            assert nf_star(nf_star(t)) == t
            assert nf_mul(nf_mul(t, nf_star(t)), t) == t
        sample = all_nfs(data, 1) + [nf_zero(data)]
        for t1 in sample:
            for t2 in sample:
                assert nf_star(nf_mul(t1, t2)) == \
                    nf_mul(nf_star(t2), nf_star(t1))
                for t3 in sample:
                    assert nf_mul(nf_mul(t1, t2), t3) == \
                        nf_mul(t1, nf_mul(t2, t3))


def test_act_on_word_identity():
    data = e1()
    t = nf_unit(data)
    z = data.path(("0", "1", "0"))
    assert act_on_word(t, z) == z


def test_act_on_infinite_word_flips_everything():
    data = e1()
    t = nf(data, (), "a", ())
    z = data.ev((), ("0",))
    assert act_on_word(t, z) == data.ev((), ("1",))


def test_act_on_infinite_word_prefix_insertion():
    data = e1()
    t = nf(data, ("0",), "1", ())
    z = data.ev((), ("1",))
    assert act_on_word(t, z) == data.ev(("0",), ("1",))


def test_act_undefined_outside_domain():
    data = e1()
    t = nf(data, (), "1", ("0",))
    with pytest.raises(Undefined):
        act_on_word(t, data.ev((), ("1",)))


def test_representation_on_infinite_words():
    data = e1()
    points = [data.ev((), ("0",)), data.ev((), ("1",)),
              data.ev(("0",), ("1", "0")), data.ev((), ("0", "1"))]
    nfs = all_nfs(data, 1)
    for t1 in nfs:
        for t2 in nfs:
            for z in points:
                try:
                    inner = act_on_word(t2, z)
                    both = act_on_word(t1, inner)
                except Undefined:
                    continue
                assert act_on_word(nf_mul(t1, t2), z) == both


def test_germ_equal_identical():
    data = e1()
    t = nf(data, ("0",), "a", ("1",))
    z = data.ev(("1",), ("0",))
    assert germ_equal(t, t, z)


def test_germ_e2_nontrivial_at_zero_tail():
    data = e2()
    t = nf(data, (), "a", ())
    u = nf_unit(data)
    assert not germ_equal(t, u, data.ev((), ("0",)))


def test_germ_e1_extension_rule():
    data = e1()
    t = nf(data, ("0",), "a", ("1",))
    ext = nf_restrict(t, data.path(("0",)))
    assert ext == nf(data, ("0", "1"), "a", ("1", "0"))
    z = data.ev(("1",), ("0",))
    assert germ_equal(t, ext, z)


def test_effective_check():
    assert effective_check(e1()) == (True, None)
    assert effective_check(e2()) == (False, "a")
    assert effective_check(trivial_alphabet()) == (True, None)
    assert effective_check(ep_graph()) == (True, None)


def test_slice_intersections_self():
    data = e1()
    t = nf(data, ("0",), "a", ("1",))
    assert slice_intersections(t, t) == [t]


def test_slice_intersections_unit_vs_flip_empty():
    data = e1()
    assert slice_intersections(nf_unit(data), nf(data, (), "a", ())) == []


def test_slice_intersections_e2_unit_vs_a_empty():
    data = e2()
    assert slice_intersections(nf_unit(data), nf(data, (), "a", ())) == []


def test_slice_intersections_disjoint_prefixes():
    data = e1()
    t1 = nf(data, ("0",), "1", ("0",))
    t2 = nf(data, ("1",), "1", ("1",))
    assert slice_intersections(t1, t2) == []


def rational_points(data, pre_len, per_len):
    out = []
    for np in range(pre_len + 1):
        for pre in data.paths(np):
            for k in range(1, per_len + 1):
                for per in data.paths(k):
                    if data.ps(pre) != data.pr(per):
                        continue
                    if data.ps(per) != data.pr(per):
                        continue
                    z = data.ev(pre.edges, per.edges, pre.rv)
                    if z not in out:
                        out.append(z)
    return out


def test_slice_intersections_agree_with_germ_oracle():
    # z lies under some piece of the decomposition exactly when the two
    # normal forms are germ-equal at z
    for data in (e1(), e2()):
        nfs = all_nfs(data, 1)
        points = rational_points(data, 2, 2)
        for t1 in nfs:
            for t2 in nfs:
                pieces = slice_intersections(t1, t2)
                # soundness: each piece is a common restriction
                for sigma in pieces:
                    m = word_map(sigma, 3)
                    for z, w in m.items():
                        assert word_map(t1, 3).get(z) == w
                        assert word_map(t2, 3).get(z) == w
                for z in points:
                    if not (data.ev_starts_with(z, t1.w2)
                            and data.ev_starts_with(z, t2.w2)):
                        continue
                    in_pieces = any(data.ev_starts_with(z, s.w2)
                                    for s in pieces)
                    assert in_pieces == germ_equal(t1, t2, z)


def test_slice_intersections_depth_bound():
    data = e1()
    t1 = nf_unit(data)
    t2 = nf(data, (), "a", ())
    with pytest.raises(DepthInsufficient):
        slice_intersections(t1, t2, depth=0)


def test_iterate_zero_is_identity_correspondence():
    data = ep_graph()
    c = iterate(data, 0)
    assert validate_correspondence(c) == []
    base = c.left
    iso = {(p, g): (g, data.vact[(data.group.inv[g], p.rv)])
           for (p, g) in c.carrier}
    assert sorted(iso.values()) == sorted(base.arrow_ids())
    for (h, v) in base.arrow_ids():
        for x in c.carrier:
            if ((h, v), x) in c.lact:
                assert iso[c.lact[((h, v), x)]] == \
                    base.mul((h, v), iso[x])


def test_iterate_e1_square():
    data = e1()
    c = iterate(data, 2)
    assert len(c) == 8
    assert validate_correspondence(c) == []
    arrow_a = ("a", "*")
    x = (data.path(("0", "0")), "1")
    moved = c.lact[(arrow_a, x)]
    assert moved[0].edges == ("1", "1") and moved[1] == "a"


def test_iterate_matches_compose_oracle():
    data = e1()
    c3 = iterate(data, 3)
    c12 = compose(iterate(data, 1), iterate(data, 2))
    iso = {}
    for i in c12.carrier:
        (p1, g1), (p2, g2) = c12.pairs[i]
        moved, res = data.act_path(g1, p2)
        target = (data.path(p1.edges + moved.edges, p1.rv),
                  data.group.op(res, g2))
        iso[i] = target
    assert sorted(iso, key=repr) == sorted(c12.carrier, key=repr)
    assert sorted(map(repr, iso.values())) == sorted(map(repr, c3.carrier))
    for (h, i), j in c12.lact.items():
        assert c3.lact[(h, iso[i])] == iso[j]
    for (i, g), j in c12.ract.items():
        assert c3.ract[(iso[i], g)] == iso[j]


def test_graph_case_with_one_vertex_is_group_case():
    z2 = Group.cyclic(2)
    eact = {("1", "0"): "0", ("1", "1"): "1", ("a", "0"): "1", ("a", "1"): "0"}
    coc = {("1", "0"): "a", ("1", "1"): "a"}
    coc = {("1", "0"): "1", ("1", "1"): "1", ("a", "0"): "a", ("a", "1"): "a"}
    as_graph = SelfSimilarData(
        z2, ("*",), ("0", "1"), {"0": "*", "1": "*"}, {"0": "*", "1": "*"},
        {(g, "*"): "*" for g in z2}, eact, coc)
    as_group = e1()
    nfs_a = all_nfs(as_graph, 2)
    nfs_b = all_nfs(as_group, 2)
    assert [t.key() for t in nfs_a] == [t.key() for t in nfs_b]
    for ta, tb in zip(nfs_a, nfs_b):
        for ua, ub in zip(nfs_a, nfs_b):
            assert nf_mul(ta, ua).key() == nf_mul(tb, ub).key()


def test_incomplete_table_is_refused_when_built():
    eact = {("1", "0"): "0", ("1", "1"): "1", ("a", "0"): "1"}
    coc = {(g, x): g for g in ("1", "a") for x in ("0", "1")}
    with pytest.raises(ParseError) as exc:
        SelfSimilarData.group_alphabet(Group.cyclic(2), ("0", "1"), eact, coc)
    assert str(exc.value) == "eact has no valid entry for ('a', '1')"
    eact[("a", "1")] = "2"
    with pytest.raises(ParseError) as exc:
        SelfSimilarData.group_alphabet(Group.cyclic(2), ("0", "1"), eact, coc)
    assert str(exc.value) == "eact has no valid entry for ('a', '1')"


def test_undefined_text_is_built_when_read():
    data = e1()
    t = nf(data, (), "1", ("0",))
    z = data.ev((), ("1",))
    with pytest.raises(Undefined) as exc:
        act_on_word(t, z)
    assert exc.value.args == ("{!r} does not start with {!r}", z, t.w2)
    assert str(exc.value) == f"{z!r} does not start with {t.w2!r}"
    assert str(Undefined("plain {text}")) == "plain {text}"


def test_nf_zero_is_shared():
    data = e1()
    assert nf_zero(data) is nf_zero(data)
    assert nf_mul(nf_zero(data), nf_unit(data)) is nf_zero(data)


# Each snippet breaks one operation's domain check and prints the error;
# under python -O an assert would have let the operation run on.
OUTSIDE_DOMAIN = {
    "nf_mul": ("nf_mul(nf_unit(e1()), nf_unit(e1()))",
               "ParseError: operands over different data"),
    "nf_restrict": ("nf_restrict(nf(g, (), '1', (), rv1='q', rv2='q'), "
                    "g.path(('x',)))",
                    "Undefined: Path(rv='p', edges=('x',)) does not start "
                    "at the source of nf<e@q,1,e@q>"),
    "pair_from_nf": ("pair_from_nf(d, nf(d, (), '1', ('0',)), "
                     "d.ev((), ('1',)))",
                     "Undefined: point outside the domain"),
}


@pytest.mark.parametrize("op", sorted(OUTSIDE_DOMAIN))
def test_domain_checks_raise_typed_errors_under_O(op):
    call, want = OUTSIDE_DOMAIN[op]
    code = ("from corpus import e1, ep_graph\n"
            "from gpdcorr.errors import GpdError\n"
            "from gpdcorr.model import pair_from_nf\n"
            "from gpdcorr.selfsim import nf, nf_mul, nf_restrict, nf_unit\n"
            "d, g = e1(), ep_graph()\n"
            "try:\n"
            f"    {call}\n"
            "except GpdError as exc:\n"
            "    print(f'{type(exc).__name__}: {exc}')\n")
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(gpdcorr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, src]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")


def ep_graph_with(table, key, value):
    """ep_graph with one entry of one table changed: still total, so the
    constructor takes it, and validate reports what breaks."""
    d = ep_graph()
    tables = {name: dict(getattr(d, name))
              for name in ("er", "es", "vact", "eact", "cocycle")}
    tables[table][key] = value
    return SelfSimilarData(d.group, d.vertices, d.edges, tables["er"],
                           tables["es"], tables["vact"], tables["eact"],
                           tables["cocycle"])


@pytest.mark.parametrize("table, key, value, first", [
    ("vact", ("1", "p"), "q", "identity moves vertex 'p'"),
    ("eact", ("1", "x"), "y", "identity moves edge 'x'"),
    ("cocycle", ("1", "x"), "a", "1|_'x' != 1"),
    ("vact", ("a", "p"), "q", "vertex action fails at ('a','a','p')"),
    ("eact", ("a", "z"), "x", "edge action fails at ('a','a','z')"),
    ("cocycle", ("a", "x"), "a", "cocycle fails at ('a','a','x')"),
    ("es", "y", "q", "s(g.e) != (g|_e).s(e) at ('a','x')"),
    ("er", "y", "q", "r(g.e) != g.r(e) at ('a','x')")],
    ids=["identity-vertex", "identity-edge", "identity-cocycle",
         "vertex-action", "edge-action", "cocycle", "source", "range"])
def test_every_validate_report_line_is_reached(table, key, value, first):
    # the CLI refuses these tables before validate when their documents
    # are read, so the data is built here
    assert ep_graph().validate() == []
    assert ep_graph_with(table, key, value).validate()[0] == first

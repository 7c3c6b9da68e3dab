"""The unchecked self-similar joins against the checked walk.

``oracles.CheckedWalk`` and the functions next to it build every path
with the checked constructor, as the library did before it trusted its
own joins; on valid data and on operands made by the checked
constructors both must give the same answers, in the same order, and
raise the same errors with the same texts.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import e1, e2, ep_graph
from gpdcorr.errors import GpdError, ParseError, Undefined
from gpdcorr.model import pair_from_nf
from gpdcorr.selfsim import (act_on_word, germ_equal, nf, nf_mul,
                             nf_restrict, nf_star, nf_zero,
                             slice_intersections)

DATAS = {"e1": e1(), "e2": e2(), "graph": ep_graph()}


@lru_cache(maxsize=None)
def words(name, max_len=3):
    data = DATAS[name]
    return tuple(p for n in range(max_len + 1) for p in data.paths(n))


@lru_cache(maxsize=None)
def points(name):
    """Rational points pre.per^infinity with pre of length <= 2 and per
    of length <= 3, made by the checked ev."""
    data = DATAS[name]
    out = []
    for pre in words(name, 2):
        for per in words(name, 3):
            if per.edges and data.ps(pre) == per.rv and \
                    data.ps(per) == per.rv:
                z = data.ev(pre.edges, per.edges, pre.rv)
                if z not in out:
                    out.append(z)
    return tuple(out)


@st.composite
def normal_forms(draw, name):
    """A normal form with words of length <= 3, now and then zero."""
    data = DATAS[name]
    if draw(st.integers(0, 15)) == 0:
        return nf_zero(data)
    g = draw(st.sampled_from(data.group.elements))
    w2 = draw(st.sampled_from(words(name)))
    v = data.vact[(g, data.ps(w2))]
    w1 = draw(st.sampled_from([w for w in words(name) if data.ps(w) == v]))
    return nf(data, w1.edges, g, w2.edges, rv1=w1.rv, rv2=w2.rv)


names = st.sampled_from(sorted(DATAS))


def outcome(fn, *args):
    """The answer of fn, or the type and text of the error it raised."""
    try:
        return ("ok", fn(*args))
    except GpdError as exc:
        return (type(exc), str(exc))


def keyed(value):
    if isinstance(value, list):
        return [keyed(v) for v in value]
    return value.key() if hasattr(value, "key") else value


@pytest.mark.parametrize("name", sorted(DATAS))
def test_paths_match_checked_walk(name):
    data = DATAS[name]
    walk = oracles.CheckedWalk(data)
    for n in range(5):
        assert data.paths(n) == walk.paths(n)


@settings(max_examples=150, deadline=None)
@given(st.data(), names)
def test_nf_mul_and_restrict_match_checked_walk(draw, name):
    data = DATAS[name]
    walk = oracles.CheckedWalk(data)
    t1 = draw.draw(normal_forms(name))
    t2 = draw.draw(normal_forms(name))
    c1, c2 = oracles.checked_nf(walk, t1), oracles.checked_nf(walk, t2)
    assert nf_mul(t1, t2).key() == oracles.nf_mul(c1, c2).key()
    assert nf_star(nf_mul(t1, t2)).key() == \
        oracles.nf_mul(oracles.checked_nf(walk, nf_star(t2)),
                       oracles.checked_nf(walk, nf_star(t1))).key()
    if t1.zero:
        return
    x = draw.draw(st.sampled_from(words(name, 2)))
    if x.rv == data.ps(t1.w2):
        assert nf_restrict(t1, x).key() == oracles.nf_restrict(c1, x).key()
    else:
        with pytest.raises(Undefined):
            nf_restrict(t1, x)


@settings(max_examples=150, deadline=None)
@given(st.data(), names)
def test_act_on_word_matches_checked_walk(draw, name):
    walk = oracles.CheckedWalk(DATAS[name])
    t = draw.draw(normal_forms(name))
    z = draw.draw(st.sampled_from(points(name) + words(name)))
    # the error texts are compared too: Undefined builds its text late
    assert outcome(act_on_word, t, z) == \
        outcome(oracles.act_on_word, oracles.checked_nf(walk, t), z)


@settings(max_examples=150, deadline=None)
@given(st.data(), names)
def test_germ_equal_matches_checked_walk(draw, name):
    walk = oracles.CheckedWalk(DATAS[name])
    t1 = draw.draw(normal_forms(name))
    t2 = draw.draw(normal_forms(name))
    z = draw.draw(st.sampled_from(points(name)))
    got = outcome(germ_equal, t1, t2, z)
    assert got == outcome(oracles.germ_equal, oracles.checked_nf(walk, t1),
                          oracles.checked_nf(walk, t2), z)
    assert got[0] in ("ok", ParseError)


@settings(max_examples=100, deadline=None)
@given(st.data(), names, st.sampled_from([None, 0, 1, 2]))
def test_slice_intersections_match_checked_walk(draw, name, depth):
    walk = oracles.CheckedWalk(DATAS[name])
    t1 = draw.draw(normal_forms(name))
    t2 = draw.draw(normal_forms(name))
    got = outcome(slice_intersections, t1, t2, depth)
    want = outcome(oracles.slice_intersections, oracles.checked_nf(walk, t1),
                   oracles.checked_nf(walk, t2), depth)
    assert (got[0], keyed(got[1])) == (want[0], keyed(want[1]))


@settings(max_examples=100, deadline=None)
@given(st.data(), names)
def test_group_act_ev_matches_checked_walk(draw, name):
    data = DATAS[name]
    walk = oracles.CheckedWalk(data)
    g = draw.draw(st.sampled_from(data.group.elements))
    z = draw.draw(st.sampled_from(points(name)))
    assert data.group_act_ev(g, z) == walk.group_act_ev(g, z)


@settings(max_examples=100, deadline=None)
@given(st.data(), names)
def test_pair_arrows_match_checked_walk(draw, name):
    data = DATAS[name]
    walk = oracles.CheckedWalk(data)
    t = draw.draw(normal_forms(name).filter(lambda t: not t.zero))
    domain = [z for z in points(name) if data.ev_starts_with(z, t.w2)]
    if not domain:
        return
    p = pair_from_nf(data, t, draw.draw(st.sampled_from(domain)))
    c = oracles.coords(p)
    checked = oracles.CheckedPairArrow(walk, c.w1, c.g1, c.w2, c.g2, c.z)
    assert (p.source(), p.target()) == (checked.source(), checked.target())


@settings(max_examples=150, deadline=None)
@given(st.data(), names)
def test_ev_prepend_matches_ev_canon(draw, name):
    data = DATAS[name]
    z = draw.draw(st.sampled_from(points(name)))
    w = draw.draw(st.sampled_from(
        [w for w in words(name) if data.ps(w) == z.rv]))
    assert data.ev_prepend(w.edges, z) == \
        data.ev_canon(w.edges + z.pre, z.per)

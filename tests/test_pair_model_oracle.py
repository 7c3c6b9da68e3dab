"""The pair model against its oracles.

``SelfSimPairModel.arrows_over`` compares a candidate arrow only with the
arrows kept for its (source, grade); ``oracles.arrows_over`` compares it
with every arrow kept so far.  Both must keep the same arrows in the
same order, which holds because equal arrows never differ in source or
grade.  Equality and products come from the normal-form germ calculus;
``oracles.pair_equal`` decides equality by the residual walk over
extensions of coordinate arrows and ``oracles.pair_mult`` multiplies by
common refinement within a depth.  Twisted and extended arrows are
built in coordinates and reach the model through ``oracles.germ``.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from gpdcorr.diagram import from_generators
from gpdcorr.errors import DepthInsufficient
from gpdcorr.fincat import PresentedShape
from gpdcorr.model import OreUniversal, SelfSimPairModel, pair_from_nf
from gpdcorr.selfsim import iterate, nf

from test_diagram import point_diagram, swap_diagram
from test_selfsim_oracle import DATAS, points, words


def selfsim_diagram(data, bound):
    shape = PresentedShape.free_monoid(("t",), length_bound=bound)
    d = from_generators(shape, {"t": iterate(data, 1)})
    d.selfsim = data
    return d


DIAGRAMS = {
    "e1": lambda bound: selfsim_diagram(DATAS["e1"], bound),
    "e2": lambda bound: selfsim_diagram(DATAS["e2"], bound),
    "graph": lambda bound: selfsim_diagram(DATAS["graph"], bound),
    "point": point_diagram,
    "swap": swap_diagram,
}


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("word_len", [1, 2])
@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_arrows_over_matches_pairwise_oracle(name, word_len, depth):
    d = DIAGRAMS[name](depth)
    m = SelfSimPairModel(d)
    # the sample points of `gpdcorr model --depth <depth>`
    pts = OreUniversal(d, depth).points(1, 1)
    got = m.arrows_over(pts, word_len)
    want = oracles.arrows_over(m, pts, word_len)
    assert len(got) == len(want)
    assert [(p.z, p.t) for p in got] == [(q.z, q.t) for q in want]


def twisted(p, h):
    """The same class, twisted on the right by the group element h."""
    data, G = p.data, p.data.group
    return oracles.PairCoords(data, p.w1, G.op(p.g1, h), p.w2, G.op(p.g2, h),
                              data.group_act_ev(G.inv[h], p.z))


@st.composite
def candidate_arrows(draw, name, at=None):
    """A coordinate arrow from a normal form at a point of its domain, at
    ``at`` when given, now and then extended along its tail or twisted by
    a group element."""
    data = DATAS[name]
    z = draw(st.sampled_from(points(name))) if at is None else at
    w2 = draw(st.sampled_from(
        [w for w in words(name) if data.ev_starts_with(z, w)]))
    g = draw(st.sampled_from(data.group.elements))
    v = data.vact[(g, data.ps(w2))]
    w1 = draw(st.sampled_from([w for w in words(name) if data.ps(w) == v]))
    t = nf(data, w1.edges, g, w2.edges, rv1=w1.rv, rv2=w2.rv)
    p = oracles.pair_extend(pair_from_nf(data, t, z),
                            draw(st.integers(0, 2)))
    return twisted(p, draw(st.sampled_from(data.group.elements)))


def same_class(draw, p):
    """An extension of p twisted by a group element: the same arrow."""
    return twisted(oracles.pair_extend(p, draw.draw(st.integers(0, 2))),
                   draw.draw(st.sampled_from(p.data.group.elements)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(DATAS)))
def test_equal_arrows_share_normalised_source_and_grade(draw, name):
    m = SelfSimPairModel(DIAGRAMS[name](2))
    p = draw.draw(candidate_arrows(name))
    if draw.draw(st.booleans()):
        q = same_class(draw, p)
        assert m.equal(oracles.germ(p), oracles.germ(q))
    else:
        q = draw.draw(candidate_arrows(name))
    if m.equal(oracles.germ(p), oracles.germ(q)):
        assert p.normalised().source() == q.normalised().source()
        assert p.grade() == q.grade()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(DATAS)), st.integers(0, 2))
def test_equal_matches_the_residual_walk(draw, name, how):
    m = SelfSimPairModel(DIAGRAMS[name](2))
    p = draw.draw(candidate_arrows(name))
    # the same arrow, an arrow at the same source, or any arrow
    q = same_class(draw, p) if how == 0 else draw.draw(
        candidate_arrows(name, p.source() if how == 1 else None))
    gp, gq = oracles.germ(p), oracles.germ(q)
    assert m.equal(gp, gq) == oracles.pair_equal(p, q)
    assert m.equal(gq, gp) == oracles.pair_equal(q, p)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(sorted(DATAS)))
def test_mult_matches_the_common_refinement(draw, name):
    m = SelfSimPairModel(DIAGRAMS[name](2))
    q = draw.draw(candidate_arrows(name))
    p = draw.draw(candidate_arrows(name, q.target()))
    got = m.mult(oracles.germ(p), oracles.germ(q))
    assert (got.source(), got.target()) == (q.source(), p.target())
    try:
        want = oracles.pair_mult(p, q)
    except DepthInsufficient:
        event("the common refinement needs more than depth 4")
        return
    assert m.equal(got, oracles.germ(want)) and oracles.pair_equal(got, want)


@pytest.mark.parametrize("name", sorted(DATAS))
def test_mult_matches_the_common_refinement_on_every_pair(name):
    # every composable pair of the arrows that `gpdcorr model --depth 2`
    # counts: the refinement answers within depth 4 on all of them
    d = DIAGRAMS[name](2)
    m = SelfSimPairModel(d)
    arrows = m.arrows_over(OreUniversal(d, 2).points(1, 1), 1)
    products = out_of_depth = 0
    for p in arrows:
        for q in arrows:
            if p.source() != q.target():
                continue
            got = m.mult(p, q)
            try:
                want = oracles.pair_mult(p, q)
            except DepthInsufficient:
                out_of_depth += 1
                continue
            assert m.equal(got, oracles.germ(want))
            products += 1
    assert out_of_depth == 0 and products >= 320


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_pair_arrows_satisfy_the_groupoid_laws(name):
    # inverses on both sides and associativity on every composable
    # triple of the arrows that `gpdcorr model --depth 2` counts
    d = DIAGRAMS[name](2)
    m = SelfSimPairModel(d)
    arrows = m.arrows_over(OreUniversal(d, 2).points(1, 1), 1)
    for p in arrows:
        assert m.is_unit(m.mult(p.inverse(), p))
        assert m.is_unit(m.mult(p, p.inverse()))
    triples = 0
    for q in arrows:
        after = [p for p in arrows if p.source() == q.target()]
        for r in arrows:
            if q.source() != r.target():
                continue
            qr = m.mult(q, r)
            for p in after:
                assert m.equal(m.mult(m.mult(p, q), r), m.mult(p, qr))
                triples += 1
    assert triples > 0

"""The pair model's bucketed arrow dedupe against the pairwise oracle.

``SelfSimPairModel.arrows_over`` compares a candidate arrow only with the
arrows kept for its (normalised source, grade); ``oracles.arrows_over``
compares it with every arrow kept so far.  Both must keep the same
arrows in the same order, which holds because equal arrows never differ
in normalised source or grade.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gpdcorr.diagram import from_generators
from gpdcorr.fincat import PresentedShape
from gpdcorr.model import (OreUniversal, PairArrow, SelfSimPairModel,
                           pair_from_nf)
from gpdcorr.selfsim import iterate

from test_diagram import point_diagram, swap_diagram
from test_selfsim_oracle import DATAS, normal_forms, points


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
    m = SelfSimPairModel(d, depth)
    # the sample points of `gpdcorr model --depth <depth>`
    pts = OreUniversal(d, depth).points(1, 1)
    got = m.arrows_over(pts, word_len)
    want = oracles.arrows_over(m, pts, word_len)
    assert len(got) == len(want)
    assert [p.key() for p in got] == [q.key() for q in want]


def twisted(p, h):
    """The same class, twisted on the right by the group element h."""
    G = p.data.group
    return PairArrow(p.data, p.w1, G.op(p.g1, h), p.w2, G.op(p.g2, h),
                     p.data.group_act_ev(G.inv[h], p.z))


@st.composite
def candidate_arrows(draw, name):
    """A pair arrow from a normal form at a point of its domain, now and
    then extended along its tail or twisted by a group element."""
    data = DATAS[name]
    t = draw(normal_forms(name).filter(
        lambda t: not t.zero
        and any(data.ev_starts_with(z, t.w2) for z in points(name))))
    z = draw(st.sampled_from(
        [z for z in points(name) if data.ev_starts_with(z, t.w2)]))
    p = pair_from_nf(data, t, z).extend(draw(st.integers(0, 2)))
    return twisted(p, draw(st.sampled_from(data.group.elements)))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(DATAS)))
def test_equal_arrows_share_normalised_source_and_grade(draw, name):
    m = SelfSimPairModel(DIAGRAMS[name](2))
    p = draw.draw(candidate_arrows(name))
    # an extension or twist of p is the same arrow, so equal pairs occur
    if draw.draw(st.booleans()):
        q = twisted(p.extend(draw.draw(st.integers(0, 2))),
                    draw.draw(st.sampled_from(p.data.group.elements)))
        assert m.equal(p, q)
    else:
        q = draw.draw(candidate_arrows(name))
    if m.equal(p, q):
        assert p.normalised().source() == q.normalised().source()
        assert p.grade() == q.grade()

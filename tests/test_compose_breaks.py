"""Block composition against the transversal one on broken actions.

``oracles.transversal_compose`` reads the composite off the transversal
of the free right action one fibre pair at a time, as the library did
before it composed block by block.  With one action entry dropped or
pointed at another point, both must return the same composite, field
for field and in the same dict order, or raise the same error with the
same text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import space_correspondences
from gpdcorr.corr import Correspondence, compose
from gpdcorr.errors import GpdError
from test_corr_oracle import (FIELDS, _anchor_breakers, cyclic_hom_corr,
                              hom_exponents)

SPACES = list(space_correspondences().values())
TABLES = (("c1", "ract"), ("c1", "lact"), ("c2", "lact"), ("c2", "ract"))


def outcome(c1, c2, fn):
    """Every field of the composite in order, or the error's type and text."""
    try:
        c = fn(c1, c2)
    except (GpdError, LookupError) as exc:
        return type(exc), str(exc)
    fields = (getattr(c, f) for f in FIELDS)
    return [list(v.items()) if isinstance(v, dict) else v for v in fields]


def broken(c, table, key, value):
    """c with ``table[key]`` dropped (value None) or set to value."""
    tables = {"lact": dict(c.lact), "ract": dict(c.ract)}
    if value is None:
        del tables[table][key]
    else:
        tables[table][key] = value
    return Correspondence(c.left, c.right, c.carrier, c.rmap, c.smap,
                          tables["lact"], tables["ract"])


@st.composite
def composable_pairs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(SPACES)), draw(st.sampled_from(SPACES))
    m, n, k = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    return (cyclic_hom_corr(m, n, draw(st.sampled_from(hom_exponents(m, n)))),
            cyclic_hom_corr(n, k, draw(st.sampled_from(hom_exponents(n, k)))))


@settings(max_examples=400, deadline=None)
@given(composable_pairs(), st.sampled_from(TABLES), st.data())
def test_one_broken_entry_gives_the_transversal_answer(pair, where, data):
    factors = dict(zip(("c1", "c2"), pair))
    which, table = where
    c = factors[which]
    key = data.draw(st.sampled_from(list(getattr(c, table))))
    old = getattr(c, table)[key]
    value = data.draw(st.sampled_from(
        [None] + [z for z in c.carrier if z != old]))
    factors[which] = broken(c, table, key, value)
    c1, c2 = factors["c1"], factors["c2"]
    assert outcome(c1, c2, compose) == \
        outcome(c1, c2, oracles.transversal_compose)


@pytest.mark.parametrize("case", list(_anchor_breakers()))
def test_anchor_breakers_give_the_transversal_text(case):
    c1, c2, _ = _anchor_breakers()[case]
    got = outcome(c1, c2, compose)
    assert isinstance(got, tuple)
    assert got == outcome(c1, c2, oracles.transversal_compose)

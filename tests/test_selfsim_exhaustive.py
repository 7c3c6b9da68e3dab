"""Every short case of the normal-form product and the word action
against the checked walk.

``tests/test_selfsim_oracle.py`` samples these cases; here every pair of
normal forms with words of length <= 1 (zero included) and every path
of length <= 3 is compared with ``oracles.nf_mul`` and
``oracles.act_on_word``.  The graph data has two vertices, so its empty
words check that the zero and ``Undefined`` tests compare the range
vertex as well as the prefix.  Both kernels build their paths with
``tuple.__new__``, so every path they return must still be a ``Path``.
"""

import pytest

import oracles
from gpdcorr.errors import ParseError
from gpdcorr.selfsim import Path, act_on_word, nf_mul, nf_star, nf_zero
from test_selfsim import all_nfs
from test_selfsim_oracle import DATAS, outcome, words


def short_nfs(name):
    data = DATAS[name]
    return all_nfs(data, 1) + [nf_zero(data)]


@pytest.mark.parametrize("name", sorted(DATAS))
def test_every_short_product_matches_checked_walk(name):
    walk = oracles.CheckedWalk(DATAS[name])
    nfs = short_nfs(name)
    checked = {t: oracles.checked_nf(walk, t) for t in nfs}
    starred = {t: oracles.checked_nf(walk, nf_star(t)) for t in nfs}
    zeros = unequal = 0
    for t1 in nfs:
        for t2 in nfs:
            got = nf_mul(t1, t2)
            assert got.key() == oracles.nf_mul(checked[t1], checked[t2]).key()
            assert nf_star(got).key() == \
                oracles.nf_mul(starred[t2], starred[t1]).key()
            zeros += got.zero
            if not got.zero:
                assert type(got.w1) is Path and type(got.w2) is Path
            elif not t1.zero and not t2.zero and t1.w2 != t2.w1 and \
                    len(t1.w2.edges) == len(t2.w1.edges):
                unequal += 1
    assert 0 < zeros < len(nfs) ** 2
    assert unequal > 0


@pytest.mark.parametrize("name", sorted(DATAS))
def test_every_short_word_action_matches_checked_walk(name):
    walk = oracles.CheckedWalk(DATAS[name])
    undefined = 0
    for t in short_nfs(name):
        c = oracles.checked_nf(walk, t)
        for z in words(name, 3):
            got = outcome(act_on_word, t, z)
            assert got == outcome(oracles.act_on_word, c, z)
            undefined += got[0] != "ok"
            if got[0] == "ok":
                assert type(got[1]) is Path
                if len(z.edges) == len(t.w2.edges):
                    assert got[1] == t.w1
    assert undefined > 0


@pytest.mark.parametrize("name", sorted(DATAS))
def test_normal_forms_equal_only_normal_forms_over_their_data(name):
    """Equal keys over other data (e1 and e2 share their short words) are
    not equal, and such operands have no product."""
    other = "e2" if name == "e1" else "e1"
    for t in short_nfs(name):
        assert t == nf_star(nf_star(t))
        assert t != t.key() and not t == t.key()
        for u in short_nfs(other):
            assert not t == u
            with pytest.raises(ParseError, match="different data"):
                nf_mul(t, u)

"""Transversal composition against the union-find oracle.

``oracles.compose`` joins the fibre pairs along every middle arrow and
names each class by its key-least pair, as the library did before it
read the classes off a transversal of the free right action.  On valid
correspondences both must give the same composite, field for field and
in the same dict order (``cls``, which the library reads off its rows,
pair for pair); on a right action that is not free the library raises
``ParseError``.
"""

import subprocess
import sys
from functools import lru_cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import (e1, e2, ep_graph, space_correspondences,
                    z2_fixed_point)
from gpdcorr.corr import (Correspondence, associator, compose,
                          from_group_hom, identity_correspondence)
from gpdcorr.errors import ParseError
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.selfsim import iterate

FIELDS = ("carrier", "rmap", "smap", "lact", "ract", "pairs")
DATAS = {"e1": e1(), "e2": e2(), "graph": ep_graph()}
NOT_A_POINT = ("not a point",)


def assert_same(got, want, c1, c2):
    """Field for field and in dict order, but ``cls``: the library reads
    it off its rows, so it has no order, and it must give the oracle's
    point on every fibre pair of c1 and c2, through [] and get,
    and nothing on the other pairs or on keys that are not pairs."""
    for field in FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a == b, field
        if isinstance(a, dict):
            assert list(a) == list(b), f"{field} order"
    for pair, point in want.cls.items():
        assert got.cls[pair] == got.cls.get(pair) == point, pair
    outside = [(x, y) for x in c1.carrier for y in c2.carrier
               if c1.smap[x] != c2.rmap[y]]
    outside += [(x, NOT_A_POINT) for x in c1.carrier[:1]] + \
        [(NOT_A_POINT, y) for y in c2.carrier[:1]]
    outside += [pair + (y,) for pair, y in zip(want.cls, c2.carrier)] + \
        [0, None, ()]
    for pair in outside:
        with pytest.raises(KeyError):
            got.cls[pair]
        assert got.cls.get(pair) is None


def assert_composes_like_oracle(c1, c2):
    got = compose(c1, c2)
    assert_same(got, oracles.compose(c1, c2), c1, c2)
    return got


@lru_cache(maxsize=None)
def its(name, k):
    return iterate(DATAS[name], k)


@pytest.mark.parametrize("name", DATAS)
def test_iterate_pairs_match_oracle(name):
    for a, b in product(range(1, 8), repeat=2):
        if a + b <= 8:
            assert_composes_like_oracle(its(name, a), its(name, b))


@pytest.mark.parametrize("name", DATAS)
def test_composites_composed_again_match_oracle(name):
    one = its(name, 1)
    for a, b in product(range(1, 5), repeat=2):
        if a + b <= 5:
            c = compose(its(name, a), its(name, b))
            assert_composes_like_oracle(c, one)
            assert_composes_like_oracle(one, c)


def test_space_correspondences_match_oracle():
    corrs = list(space_correspondences().values())
    assert len(corrs) ** 2 == 256
    for c1, c2 in product(corrs, repeat=2):
        assert_composes_like_oracle(c1, c2)


def cyclic_hom_corr(m, n, j):
    """The correspondence of Z/m -> Z/n, a -> a^j."""
    zm, zn = Group.cyclic(m), Group.cyclic(n)
    phi = {zm.elements[i]: zn.elements[i * j % n] for i in range(m)}
    return from_group_hom(zm, zn, phi)


def hom_exponents(m, n):
    """Every j with a -> a^j a homomorphism Z/m -> Z/n."""
    return [j for j in range(n) if j * m % n == 0]


def test_cyclic_hom_chains_match_oracle():
    for m, n, k in product(range(1, 5), repeat=3):
        assert len(hom_exponents(m, n)) == gcd(m, n)
        for i, j in product(hom_exponents(m, n), hom_exponents(n, k)):
            assert_composes_like_oracle(cyclic_hom_corr(m, n, i),
                                        cyclic_hom_corr(n, k, j))


@st.composite
def hom_chains(draw):
    """Z/a -> Z/b -> Z/c -> Z/d as three correspondences."""
    orders = draw(st.lists(st.integers(1, 6), min_size=4, max_size=4))
    return [cyclic_hom_corr(m, n, draw(st.sampled_from(hom_exponents(m, n))))
            for m, n in zip(orders, orders[1:])]


@settings(max_examples=30, deadline=None)
@given(hom_chains())
def test_compose_is_associative_up_to_the_associator(chain):
    c1, c2, c3 = chain
    assert_composes_like_oracle(c1, c2)
    assert_composes_like_oracle(c2, c3)
    assert_composes_like_oracle(compose(c1, c2), c3)
    assert_composes_like_oracle(c1, compose(c2, c3))
    left, right, iso = associator(c1, c2, c3)
    assert list(iso) == list(left.carrier)
    assert sorted(iso.values()) == list(right.carrier)
    for i, j in iso.items():
        assert (left.rmap[i], left.smap[i]) == (right.rmap[j], right.smap[j])
    assert {(h, iso[i]): iso[k] for (h, i), k in left.lact.items()} == \
        right.lact
    assert {(iso[i], g): iso[k] for (i, g), k in left.ract.items()} == \
        right.ract


def relabel(c, f, order):
    """c with each point x renamed f[x], its carrier listed in ``order``."""
    return Correspondence(
        c.left, c.right, order, {f[x]: r for x, r in c.rmap.items()},
        {f[x]: s for x, s in c.smap.items()},
        {(h, f[x]): f[y] for (h, x), y in c.lact.items()},
        {(f[x], g): f[y] for (x, g), y in c.ract.items()})


def induced(c, c_new, f1, f2):
    """The map c -> c_new of two composites, from maps of their factors:
    the class of (x, y) goes to the class of (f1[x], f2[y])."""
    return {i: c_new.cls[(f1[x], f2[y])] for i, (x, y) in c.pairs.items()}


@settings(max_examples=30, deadline=None)
@given(hom_chains(), st.data())
def test_associator_is_natural_in_relabelling(chain, data):
    fs, relabelled = [], []
    for c in chain:
        names = data.draw(st.permutations(range(len(c))))
        f = {x: ("p", k) for x, k in zip(c.carrier, names)}
        order = data.draw(st.permutations(sorted(f.values())))
        fs.append(f)
        relabelled.append(relabel(c, f, order))
    f1, f2, f3 = fs
    left, right, iso = associator(*chain)
    left2, right2, iso2 = associator(*relabelled)
    c12, c12_new = compose(*chain[:2]), compose(*relabelled[:2])
    c23, c23_new = compose(*chain[1:]), compose(*relabelled[1:])
    f12 = induced(c12, c12_new, f1, f2)
    f23 = induced(c23, c23_new, f2, f3)
    on_left = induced(left, left2, f12, f3)
    on_right = induced(right, right2, f1, f23)
    assert sorted(on_left.values()) == list(left2.carrier)
    assert sorted(on_right.values()) == list(right2.carrier)
    assert {i: iso2[on_left[i]] for i in left.carrier} == \
        {i: on_right[iso[i]] for i in left.carrier}


def test_non_free_right_action_is_refused():
    c = z2_fixed_point()
    with pytest.raises(ParseError, match="not free"):
        compose(c, identity_correspondence(c.right))


def test_orbit_member_two_arrows_away_is_refused():
    # y.a == x joins y to x's orbit, but no arrow takes x to y
    z2 = Group.cyclic(2)
    gpd = FinGroupoid.from_group(z2)
    c = Correspondence(gpd, gpd, ("x", "y"), {"x": "*", "y": "*"},
                       {"x": "*", "y": "*"}, {},
                       {("x", "1"): "x", ("y", "1"): "y", ("y", "a"): "x"})
    with pytest.raises(ParseError, match="not one arrow away"):
        compose(c, identity_correspondence(gpd))


def _anchor_breakers():
    # each case composes to a pair that is not in the fibre product
    two = FinGroupoid.space((0, 1))
    one = FinGroupoid.space((0,))
    ident = identity_correspondence(two)
    no_lact = Correspondence(two, two, ident.carrier, ident.rmap, ident.smap,
                             {}, ident.ract)
    # y0.u0 == y1, though r(y0) == 0 and r(y1) == 1
    bad_ract = Correspondence(
        two, one, ("y0", "y1"), {"y0": 0, "y1": 1}, {"y0": 0, "y1": 0},
        {(("u", 0), "y0"): "y0", (("u", 1), "y1"): "y1"},
        {("y0", ("u", 0)): "y1", ("y1", ("u", 0)): "y1"})
    # u0.x0 == x1, though s(x0) == 0 and s(x1) == 1
    bad_lact = Correspondence(
        one, two, ("x0", "x1"), {"x0": 0, "x1": 0}, {"x0": 0, "x1": 1},
        {(("u", 0), "x0"): "x1", (("u", 0), "x1"): "x1"},
        {("x0", ("u", 0)): "x0", ("x1", ("u", 1)): "x1"})
    return {
        "left action of Y missing": (
            ident, no_lact, "is not a point of the second factor"),
        "right action of Y moves r": (
            ident, bad_ract, r"r\('y0'.\('u', 0\)\) != r\('y0'\)"),
        "left action of X moves s": (
            bad_lact, ident, r"s\(\('u', 0\).'x0'\) != s\('x0'\)"),
    }


@pytest.mark.parametrize("case", list(_anchor_breakers()))
def test_action_leaving_the_fibre_product_is_refused(case):
    c1, c2, match = _anchor_breakers()[case]
    with pytest.raises(ParseError, match=match):
        compose(c1, c2)


def test_non_free_right_action_is_refused_under_O():
    code = ("from gpdcorr.corr import (Correspondence, compose,\n"
            "                          identity_correspondence)\n"
            "from gpdcorr.errors import ParseError\n"
            "from gpdcorr.groupoid import FinGroupoid, Group\n"
            "z2 = Group.cyclic(2)\n"
            "gpd = FinGroupoid.from_group(z2)\n"
            "c = Correspondence(gpd, gpd, ('x',), {'x': '*'}, {'x': '*'},\n"
            "                   {(g, 'x'): 'x' for g in z2},\n"
            "                   {('x', g): 'x' for g in z2})\n"
            "try:\n"
            "    compose(c, identity_correspondence(gpd))\n"
            "except ParseError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "right action is not free: '1' and 'a' both take 'x' to 'x'\n",
         "")

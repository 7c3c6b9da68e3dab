"""Germ classes built once per point against the per-call oracle.

``oracles.TransformationGroupoid`` finds the class of (t, x) by asking
the germ oracle about every element defined at x, on every call.  The
library partitions the elements defined at x once, comparing each
element only with the representatives found before it.  On oracles that
are equivalence relations both must give the same arrows in the same
order, the same composites and the same units, and raise the same
errors (except that a germ no element has is an ``OracleIncomplete``
where the per-call method hit an empty ``min``).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import e1, e2
from gpdcorr.errors import GpdError
from gpdcorr.groupoid import (PartialBijection, pointwise_oracle,
                              pseudogroup_closure, transformation_groupoid)
from gpdcorr.selfsim import germ_equal, nf_mul, nf_unit

from test_acceptance import _try_act
from test_selfsim import all_nfs, rational_points


def outcome(method, *args):
    """What a call returns, or the type and text of the error it raises;
    the per-call method's empty ``min`` reads as the library's error."""
    try:
        return ("value", method(*args))
    except GpdError as exc:
        return (type(exc).__name__, str(exc))
    except ValueError:
        return ("OracleIncomplete", None)


def same_outcome(got, want):
    if want == ("OracleIncomplete", None):
        return got[0] == "OracleIncomplete"
    return got == want


def assert_agree(args, probes):
    """Compare the library with the reference on one calculus: every
    arrow in order, then arrow, is_unit and compose on the probes."""
    tg = transformation_groupoid(*args)
    ref = oracles.TransformationGroupoid(*args)
    arrows = ref.arrows()
    assert tg.arrows() == arrows
    carrier = args[4]
    for t in probes:
        for x in carrier:
            want = outcome(ref.arrow, t, x)
            assert same_outcome(outcome(tg.arrow, t, x), want), (t, x)
            if want[0] == "value":
                assert outcome(tg.is_unit, (t, x)) == \
                    outcome(ref.is_unit, (t, x)), (t, x)
    for a2 in arrows:
        for a1 in arrows:
            assert same_outcome(outcome(tg.compose, a2, a1),
                                outcome(ref.compose, a2, a1)), (a2, a1)
    return tg


@st.composite
def pseudogroups(draw):
    """A random pseudogroup on at most four points, listed in a random
    order, possibly with some of its elements left out of the universe;
    with every member of the closure as a probe."""
    n = draw(st.integers(1, 4))
    carrier = tuple(range(n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        dom = draw(st.lists(st.sampled_from(carrier), unique=True))
        image = draw(st.permutations(carrier))[:len(dom)]
        gens.append(PartialBijection(dict(zip(dom, image))))
    closure = sorted(pseudogroup_closure(gens), key=repr)
    elements = draw(st.permutations(closure))
    keep = draw(st.integers(1, len(elements)))
    return carrier, closure, list(elements[:keep])


def apply(t, x):
    return t(x)


@settings(max_examples=150, deadline=None)
@given(pseudogroups(), st.booleans())
def test_pointwise_germ_classes_match_the_per_call_oracle(case, whole):
    carrier, closure, elements = case
    # the unit of a point: the identity on the carrier or on the point;
    # when it is not an element, is_unit has to ask the oracle
    identity = PartialBijection.identity(carrier)
    args = (elements, lambda a, b: a * b, apply, pointwise_oracle(apply),
            carrier, (lambda x: identity) if whole
            else (lambda x: PartialBijection({x: x})))
    assert_agree(args, closure)


def criterion_5_args(data):
    nfs = all_nfs(data, 1)
    unit = nf_unit(data)
    return (nfs, nf_mul, _try_act, germ_equal, rational_points(data, 1, 2),
            lambda z: unit)


def test_criterion_5_germ_classes_match_the_per_call_oracle():
    for data in (e1(), e2()):
        args = criterion_5_args(data)
        tg = assert_agree(args, args[0])
        assert len(tg.arrows()) == 80


def counting(oracle):
    asked = Counter()

    def counted(t, u, x):
        asked[(t, u, x)] += 1
        return oracle(t, u, x)

    return counted, asked


def test_each_point_asks_each_pair_at_most_once():
    for data in (e1(), e2()):
        nfs, mul, act, oracle, points, unit_of = criterion_5_args(data)
        counted, asked = counting(oracle)
        tg = transformation_groupoid(nfs, mul, act, counted, points, unit_of)
        arrows = tg.arrows()
        before = Counter(asked)
        for t in nfs:
            for z in points:
                if act(t, z) is not None:
                    tg.is_unit(tg.arrow(t, z))
        for a2 in arrows:
            for a1 in arrows:
                outcome(tg.compose, a2, a1)
        # arrows() built every point's classes and the unit is an
        # element, so nothing after it asks the oracle
        assert asked == before
        # each question pairs an element with an earlier representative,
        # and none is asked twice
        assert max(asked.values()) == 1
        for (t, u, z) in asked:
            cls = tg.classes(z)
            assert cls[u] is u and nfs.index(u) < nfs.index(t)


def test_a_declined_query_surfaces_when_the_point_is_built():
    carrier = (0, 1)
    f = PartialBijection({0: 1, 1: 0})
    e = PartialBijection.identity(carrier)
    counted, asked = counting(lambda t, u, x: None if x == 1 else t(x) == u(x))
    tg = transformation_groupoid([e, f], lambda a, b: a * b, apply, counted,
                                 carrier, lambda x: e)
    assert tg.arrow(f, 0) == (f, 0)
    for _ in range(2):
        assert outcome(tg.arrow, e, 1) == (
            "OracleIncomplete",
            f"germ query ({f!r},{e!r},1) declined")
    assert asked == Counter({(f, e, 0): 1, (f, e, 1): 2})
    assert outcome(tg.arrows) == (
        "OracleIncomplete", f"germ query ({f!r},{e!r},1) declined")


def test_a_germ_outside_the_universe():
    carrier = (0, 1)
    e, f = PartialBijection.identity(carrier), PartialBijection({0: 1, 1: 0})
    tg = transformation_groupoid([e], lambda a, b: a * b, apply,
                                 pointwise_oracle(apply), carrier,
                                 lambda x: e)
    assert tg.arrow(e.restrict({0}), 0) == (e, 0)
    assert outcome(tg.arrow, f, 0) == (
        "OracleIncomplete",
        f"the germ of {f!r} at 0 is not the germ of an element")

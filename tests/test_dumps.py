"""The CLI's document writer against json's own indenting encoder.

``cli.dumps`` writes the document grammar (str, int, list, dict) itself
and hands every other value to json; ``oracles.dumps`` is
``json.dumps(doc, indent=1) + "\\n"``.  Both must give the same bytes,
or raise the same error with the same text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import (e1, e2, ep_graph, space_correspondences,
                    trivial_alphabet, z2_fixed_point)
from gpdcorr import cli
from gpdcorr.corr import compose
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.selfsim import iterate

from test_cgx import cx_single_arrow
from test_diagram import (point_diagram, swap_action, swap_diagram,
                          z2_commutative_diagram)


def outcome(fn, doc):
    """The text fn writes for doc, or the type and text of its error."""
    try:
        return ("ok", fn(doc))
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))


# every character, lone surrogates and control characters included
texts = st.text(st.characters(exclude_categories=()), max_size=8)
ints = st.integers() | st.integers(-10 ** 400, 10 ** 400)
floats = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"),
                                        float("-inf")])
keys = texts | ints | floats | st.booleans() | st.none()
unsupported = st.sampled_from([set(), {1}, frozenset(), b"x"]) | \
    st.builds(object)
scalars = texts | ints | floats | st.booleans() | st.none()


def containers(children):
    return (st.lists(children, max_size=4) |
            st.lists(children, max_size=4).map(tuple) |
            st.dictionaries(texts, children, max_size=4) |
            st.dictionaries(keys, children, max_size=4))


documents = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_writer_matches_json_on_random_documents(doc):
    assert cli.dumps(doc) == oracles.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(st.recursive(scalars | unsupported, containers, max_leaves=20))
def test_writer_refuses_what_json_refuses(doc):
    assert outcome(cli.dumps, doc) == outcome(oracles.dumps, doc)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 600), st.lists(st.sampled_from("ltd"), min_size=1),
       scalars)
def test_writer_matches_json_at_any_depth(depth, kinds, leaf):
    # past about 500 levels the writer runs out of stack and json writes
    doc = leaf
    for i in range(depth):
        kind = kinds[i % len(kinds)]
        doc = [doc, i] if kind == "l" else (doc,) if kind == "t" else \
            {"k": doc, i: i}
    assert cli.dumps(doc) == oracles.dumps(doc)


def test_circular_document_raises_as_json_does():
    doc = {"a": []}
    doc["a"].append(doc)
    assert outcome(cli.dumps, doc) == outcome(oracles.dumps, doc)
    assert outcome(cli.dumps, doc)[0] is ValueError


@pytest.mark.parametrize("value", [set(), object(), {(1, 2): 3}])
def test_unsupported_value_is_the_same_type_error(value):
    got = outcome(cli.dumps, [1, {"x": value}])
    assert got[0] is TypeError
    assert got == outcome(oracles.dumps, [1, {"x": value}])


def corpus_documents():
    z3 = Group.cyclic(3)
    swap = swap_diagram(2)
    docs = [("groupoid", cli.groupoid_payload(FinGroupoid.from_group(z3))),
            ("category", cli.category_payload(FinGroupoid.from_group(z3))),
            ("complex_of_groups", cli.complex_payload(cx_single_arrow())),
            ("diagram", cli.diagram_payload(point_diagram(2))),
            ("diagram", cli.diagram_payload(z2_commutative_diagram())),
            ("action", cli.action_payload(swap, swap_action(swap))),
            ("mn", {"m": 2, "n": 3})]
    for data in (e1(), e2(), ep_graph(), trivial_alphabet()):
        docs.append(("selfsimilar", cli.selfsimilar_payload(data)))
        docs.append(("correspondence",
                     cli.correspondence_payload(iterate(data, 2))))
    for c in [*space_correspondences().values(), z2_fixed_point()]:
        docs.append(("correspondence", cli.correspondence_payload(c)))
    return docs


def test_writer_matches_json_on_every_document_kind():
    docs = corpus_documents()
    assert {kind for kind, _ in docs} == set(cli.KINDS)
    for kind, payload in docs:
        doc = cli.envelope(kind, payload)
        assert cli.dumps(doc) == oracles.dumps(doc), kind


def test_writer_matches_json_on_the_composite():
    c = iterate(e1(), 5)
    doc = cli.envelope("correspondence",
                       cli.correspondence_payload(compose(c, c)))
    assert cli.dumps(doc) == oracles.dumps(doc)

"""The document layouts of ``gpdcorr.cli`` against what they replaced.

``cli.payload_of`` (and each ``*_payload`` name) builds a document's JSON
value from its kind's layout, ``cli.write_document`` writes the text of
the same fields without building that value, and ``cli.value_of`` reads
them back.  ``oracles`` keeps the hand-written builders of each kind,
json's own indenting encoder and the per-kind readers: on every document
of ``corpus.documents`` the builders must give the same structure in the
same key order, and the writer the same bytes; on those documents and on
every single-node break of the fuzz documents the reader must give the
same value or the same error.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from corpus import documents, e1
from gpdcorr import cli
from gpdcorr.corr import compose, space_correspondence
from gpdcorr.diagram import discrete_diagram
from gpdcorr.errors import SchemaError
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.selfsim import iterate

from test_cli_fuzz import MALFORMED, broken_at, single_node_breaks
from test_diagram import e1_diagram

DOCUMENTS = documents()
KINDS = ["category", "groupoid", "correspondence", "group", "selfsimilar",
         "complex_of_groups", "diagram", "action"]


def of_kind(kind):
    return [value for k, value in DOCUMENTS if k == kind]


def builder(kind):
    """The library's *_payload name for kind, taking oracles' arguments."""
    name = {"complex_of_groups": "complex"}.get(kind, kind) + "_payload"
    build = getattr(cli, name)
    return (lambda da: build(*da)) if kind == "action" else build


def outcome(fn, *args):
    """What fn returns, or the type and text of its error; a
    RecursionError by its type only, as its text names the call that
    ran out of stack."""
    try:
        return ("ok", fn(*args))
    except RecursionError:
        return (RecursionError,)
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))


def test_corpus_has_every_kind():
    assert sorted({kind for kind, _ in DOCUMENTS}) == sorted(KINDS) \
        == sorted(cli.LAYOUTS)


@pytest.mark.parametrize("kind", KINDS)
def test_builders_match_the_hand_written_ones(kind):
    for value in of_kind(kind):
        want = oracles.PAYLOADS[kind](value)
        for got in (cli.payload_of(kind, value), builder(kind)(value)):
            assert got == want
            assert json.dumps(got) == json.dumps(want)   # key order too


@pytest.mark.parametrize("kind", KINDS)
def test_write_document_matches_dumps_of_the_hand_written_payload(kind):
    for value in of_kind(kind):
        want = oracles.dumps(cli.envelope(kind, oracles.PAYLOADS[kind](value)))
        assert cli.write_document(kind, value) == want


def read(reader, text):
    """What a reader (parse_document and value_of) makes of a document:
    the payload of the value read, or the type and text of its error."""
    try:
        kind, payload = reader.parse_document(text)
        value = reader.value_of(kind, payload)
        return ("ok", value if kind == "mn" else cli.payload_of(kind, value))
    except MALFORMED as exc:
        return (type(exc), str(exc))


def test_documents_read_back_field_by_field():
    # as the parent's per-kind readers read them; a group is only nested
    for kind, value in DOCUMENTS:
        text = oracles.dumps(cli.envelope(kind, oracles.PAYLOADS[kind](value)))
        got = read(cli, text)
        assert got == read(oracles, text), kind
        assert got == ((SchemaError, "unknown kind 'group'") if kind == "group"
                       else ("ok", json.loads(text)["payload"])), kind


def selfsimilar_field_breaks():
    """The single-node breaks of a diagram's selfsimilar field, which no
    fuzz document has."""
    doc = json.loads(cli.dumps(cli.envelope(
        "diagram", cli.diagram_payload(e1_diagram(2)))))
    return [(doc, at, change) for doc, at, change in single_node_breaks([doc])
            if at[:2] == ("payload", "selfsimilar")]


@pytest.mark.parametrize("breaks", [
    single_node_breaks, selfsimilar_field_breaks],
    ids=["fuzz-documents", "selfsimilar-field"])
def test_every_single_node_break_reads_as_the_parent_reads_it(breaks):
    # the same payload, or the same error and text: on all 11,475 breaks
    # of the fuzz documents, and on a diagram's optional selfsimilar field
    seen = set()
    for doc, at, change in breaks():
        text = json.dumps(broken_at(doc, at, change))
        got = read(cli, text)
        assert got == read(oracles, text), (doc["kind"], at, change)
        seen.add(got[0])
    assert {"ok", SchemaError} <= seen


def finite_diagram_with(**fields):
    z3 = FinGroupoid.from_group(Group.cyclic(3))
    payload = cli.diagram_payload(discrete_diagram({"x": z3}))
    return json.dumps(cli.envelope("diagram", {**payload, **fields}))


def test_a_finite_diagram_ignores_readable_optional_fields():
    text = finite_diagram_with(braidings=[],
                               selfsimilar=cli.selfsimilar_payload(e1()))
    assert read(cli, text) == read(oracles, text) == \
        read(cli, finite_diagram_with())


@pytest.mark.parametrize("key", cli.OPTIONAL)
def test_an_unreadable_optional_field_is_refused_on_any_diagram(key):
    # the parent read neither field of a finite diagram
    text = finite_diagram_with(**{key: "x"})
    assert read(oracles, text)[0] == "ok"
    assert read(cli, text)[0] is SchemaError


def test_compose_through_main_writes_the_hand_written_document(tmp_path):
    # the benchmark's heavy request: the 2,048-point composite
    c = iterate(e1(), 5)
    path = tmp_path / "c.json"
    path.write_text(oracles.dumps(cli.envelope(
        "correspondence", oracles.correspondence_payload(c))),
        encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compose", str(path), str(path)])
    want = oracles.dumps(cli.envelope(
        "correspondence", oracles.correspondence_payload(compose(c, c))))
    assert (code, err.getvalue()) == (0, "")
    assert len(want) == 1276179
    assert out.getvalue() == want


# every character, lone surrogates and control characters included
texts = st.text(st.characters(exclude_categories=()), max_size=6)
ints = st.integers() | st.integers(-10 ** 400, 10 ** 400)
floats = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"),
                                        float("-inf")])
leaves = texts | ints | floats | st.booleans() | st.none()
hashables = st.recursive(
    leaves, lambda c: st.lists(c, max_size=3).map(tuple) |
    st.frozensets(c, max_size=3), max_leaves=8)
values = st.recursive(
    leaves, lambda c: st.lists(c, max_size=4).map(tuple) |
    st.lists(c, max_size=4) | st.sets(hashables, max_size=3) |
    st.frozensets(hashables, max_size=3), max_leaves=25)
closings = st.sampled_from(["\n", "\n ", "\n" + " " * 7, "\n" + " " * 40])


def encoded_text(x, nl):
    return cli._write(cli._enc(x), nl)


@settings(max_examples=500, deadline=None)
@given(values, closings)
def test_value_text_matches_the_written_encoding(x, nl):
    assert outcome(cli._value_text, x, nl) == outcome(encoded_text, x, nl)


@pytest.mark.parametrize("x", [10 ** 4400, ("t", -10 ** 4400),
                               {1, 10 ** 4400}, ((), frozenset(), [])],
                         ids=["int", "tuple", "set", "empty"])
def test_value_text_refuses_what_the_encoding_refuses(x):
    # an int past the digits that repr may write is a ValueError
    assert outcome(cli._value_text, x, "\n") == outcome(encoded_text, x, "\n")


def nested(leaf, depth):
    for _ in range(depth):
        leaf = (leaf,)
    return leaf


def deep_correspondence(depth):
    """One point over a one-point space whose name is nested depth deep;
    composing it with itself keeps that space in both groupoids."""
    point = nested(0, depth)
    return space_correspondence((point,), (point,), {"x": point},
                                {"x": point}, carrier=["x"])


def parent_path(kind, value):
    return cli.dumps(cli.envelope(kind, oracles.PAYLOADS[kind](value)))


@pytest.mark.parametrize("depth", [1, 30, 120])
def test_deep_values_are_written_as_dumps_writes_them(depth):
    c = deep_correspondence(depth)
    assert cli.write_document("correspondence", c) == \
        parent_path("correspondence", c)
    x = nested("x", depth)
    assert cli._value_text(x, "\n") + "\n" == cli.dumps(cli._enc(x))


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@contextlib.contextmanager
def recursion_limit(headroom):
    """A recursion limit headroom frames above the caller's stack."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_nesting_past_the_recursion_limit_is_the_same_error():
    c = deep_correspondence(200)
    x = nested(0, 200)
    with recursion_limit(150):
        assert outcome(cli.write_document, "correspondence", c) == \
            outcome(parent_path, "correspondence", c) == (RecursionError,)
        assert outcome(cli._value_text, x, "\n") == \
            outcome(lambda: cli.dumps(cli._enc(x))) == (RecursionError,)


def test_walker_never_differs_from_dumps_where_dumps_writes():
    # near the limit the walker and the builders run out of stack within a
    # level of each other; where the walker gives up, dumps decides
    seen = set()
    for depth in range(100, 160, 2):
        c = deep_correspondence(depth)
        with recursion_limit(300):
            got = outcome(cli.write_document, "correspondence", c)
            want = outcome(parent_path, "correspondence", c)
        if want[0] == "ok" or got[0] != "ok":
            assert got == want, depth
        seen.add((got[0], want[0]))
    assert {("ok", "ok"), (RecursionError, RecursionError)} <= seen


def test_compose_near_the_recursion_limit_prints_no_traceback(tmp_path):
    codes = set()
    for depth in range(100, 160, 5):
        c = deep_correspondence(depth)
        path = tmp_path / f"deep{depth}.json"
        path.write_text(oracles.dumps(cli.envelope(
            "correspondence", oracles.correspondence_payload(c))),
            encoding="utf-8")
        want = oracles.dumps(cli.envelope(
            "correspondence", oracles.correspondence_payload(compose(c, c))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), recursion_limit(300):
            code = cli.main(["compose", str(path), str(path)])
        assert (code, out.getvalue()) in ((0, want), (2, "")), depth
        assert code == 0 or err.getvalue().startswith("error: "), depth
        codes.add(code)
    assert codes == {0, 2}


@pytest.mark.parametrize("doc, message", [
    ({"format_version": "1", "kind": "groupoid"}, "missing payload"),
    ({"format_version": "1", "kind": ["groupoid"], "payload": {}},
     "unknown kind ['groupoid']"),
    ({"format_version": "1", "kind": {}, "payload": {}}, "unknown kind {}"),
])
def test_broken_envelope_is_a_schema_error(doc, message):
    with pytest.raises(SchemaError) as exc:
        cli.parse_document(json.dumps(doc))
    assert str(exc.value) == message

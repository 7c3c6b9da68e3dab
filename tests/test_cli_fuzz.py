"""Malformed documents through the CLI, in-process.

Each break takes a valid document and changes it at one node of its
JSON tree: it drops the node or puts a value of another JSON type in its
place.  ``validate`` refuses every such break of every document with
exit 1, 2 or 3 and raises nothing, which is checked on all of them;
``model`` returns an exit code of the contract on a sample.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corpus import e1
from gpdcorr import cli
from gpdcorr.corr import validate_correspondence
from gpdcorr.diagram import (discrete_diagram, validate_action,
                             validate_diagram)
from gpdcorr.errors import GpdError
from gpdcorr.fincat import validate_category
from gpdcorr.groupoid import FinGroupoid, Group, validate_groupoid

from test_cgx import cx_single_arrow
from test_diagram import (point_diagram, swap_action, swap_diagram,
                          swap_correspondence, z2_commutative_diagram)


def documents():
    """Valid documents, small enough to check in a few milliseconds."""
    z3 = FinGroupoid.from_group(Group.cyclic(3))
    swap = swap_diagram(2)
    docs = [("groupoid", cli.groupoid_payload(z3)),
            ("category", cli.category_payload(z3)),
            ("correspondence", cli.correspondence_payload(
                swap_correspondence())),
            ("selfsimilar", cli.selfsimilar_payload(e1())),
            ("complex_of_groups", cli.complex_payload(cx_single_arrow())),
            ("diagram", cli.diagram_payload(point_diagram(2))),
            ("diagram", cli.diagram_payload(discrete_diagram({"x": z3}))),
            ("diagram", cli.diagram_payload(z2_commutative_diagram())),
            ("mn", {"m": 1, "n": 2}),
            ("action", cli.action_payload(swap, swap_action(swap)))]
    return [json.loads(cli.dumps(cli.envelope(kind, payload)))
            for kind, payload in docs]


DOCS = documents()
# one value of each JSON type; a node is only replaced by another type
OTHERS = ["x", 7, None, [], {}]


def nodes(value, path=()):
    """The path to every node below the root of a JSON tree."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from nodes(child, path + (key,))


def kind_of(value):
    return type(value) if value is not None else "null"


@st.composite
def broken_documents(draw, depth=None, drop_items=True, docs=DOCS):
    """A document of ``docs`` broken at one node at most ``depth`` keys
    deep, with its kind before the break; list items are dropped only
    with ``drop_items``."""
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    kind = doc["kind"]
    *path, last = draw(st.sampled_from(
        [p for p in nodes(doc) if depth is None or len(p) <= depth]))
    parent = doc
    for key in path:
        parent = parent[key]
    old = parent[last]
    changes = [v for v in OTHERS if kind_of(v) != kind_of(old)]
    if drop_items or isinstance(parent, dict):
        changes.append("drop")
    change = draw(st.sampled_from(changes))
    if change == "drop":
        del parent[last]
    else:
        parent[last] = change
    return kind, doc


def run(doc, command="validate"):
    """main on the document: (exit code, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cli.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path])
    return code, err.getvalue()


# kinds that `gpdcorr model` reads as well
MODELLED = {"diagram", "complex_of_groups", "mn"}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(broken_documents(docs=[doc for doc in DOCS
                              if doc["kind"] in MODELLED]))
def test_broken_document_keeps_the_exit_contract(case):
    # model reads less than validate checks, so exit 0 is allowed here
    code, err = run(case[1], "model")
    assert code in (0, 1, 2, 3) and "Traceback" not in err


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(broken_documents(depth=3, drop_items=False))
def test_broken_envelope_is_refused(case):
    code, err = run(case[1])
    assert code in (1, 2, 3) and "Traceback" not in err


def broken_at(doc, path, change):
    """A copy of doc with the node at path dropped or replaced."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if change == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = change
    return doc


def single_node_breaks(docs=DOCS):
    """Every (document, path, change) that breaks one node of docs."""
    for doc in docs:
        for path in nodes(doc):
            old = doc
            for key in path:
                old = old[key]
            for change in OTHERS + ["drop"]:
                if change == "drop" or kind_of(change) != kind_of(old):
                    yield doc, path, change


# breaks that validate answers with "malformed input" (exit 2) instead of
# a report; the bound keeps reports from slipping back to exit 2
MALFORMED_BOUND = 177


def test_every_single_node_break_is_refused(tmp_path):
    # 11,475 breaks: run's temporary directory and indented writer per
    # break would take as long as validate itself
    path = str(tmp_path / "doc.json")
    accepted, malformed = [], 0
    for doc, at, change in single_node_breaks():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(broken_at(doc, at, change)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["validate", path])
        if code not in (1, 2, 3) or "Traceback" in err.getvalue():
            accepted.append((at, change, code))
        malformed += "malformed input" in err.getvalue()
    assert accepted == []
    assert malformed <= MALFORMED_BOUND


def test_every_envelope_break_is_a_schema_error():
    # a dropped payload and a kind that is an array or an object are
    # refused by parse_document with a message, not as malformed input
    for doc in DOCS:
        for key in ("format_version", "kind", "payload"):
            for change in OTHERS + ["drop"]:
                if change == "drop" or kind_of(change) != kind_of(doc[key]):
                    code, err = run(broken_at(doc, (key,), change))
                    assert code == 2 and err.startswith("error: ") and \
                        "malformed input" not in err, (key, change, err)


# what main reports as malformed input
MALFORMED = (GpdError, LookupError, TypeError, ValueError)


def correspondences(doc, broken=False):
    """The correspondences that validate checks in a document: none when
    it does not parse, and only those whose groupoids validate, or with
    ``broken`` only those with a groupoid that does not."""
    try:
        kind, payload = cli.parse_document(json.dumps(doc))
        value = cli.value_of(kind, payload)
    except MALFORMED:
        return
    if kind == "correspondence":
        candidates = [value]
    elif kind in ("diagram", "action"):
        d = value[0] if kind == "action" else value
        candidates = list((d.gen_data or {}).values())
        for g in d.arrows():
            try:
                candidates.append(d.X(g))
            except MALFORMED:
                pass
    else:
        return
    for c in candidates:
        try:
            valid = not (validate_groupoid(c.left) or
                         validate_groupoid(c.right))
        except MALFORMED:
            continue
        if valid != broken:
            yield c


def test_every_parsed_correspondence_break_gets_a_report():
    # broken action tables, r or s maps and carriers are reported, not
    # raised on; broken groupoids are left to their own validator
    checked = 0
    for doc, at, change in single_node_breaks():
        for c in correspondences(broken_at(doc, at, change)):
            assert isinstance(validate_correspondence(c), list), (at, change)
            checked += 1
    assert checked > 1000


def test_every_correspondence_with_a_broken_groupoid_gets_a_report():
    # the action checks read both groupoids; where one cannot be read
    # that way, the groupoid's own report is returned without them
    checked = 0
    for doc, at, change in single_node_breaks():
        for c in correspondences(broken_at(doc, at, change), broken=True):
            report = validate_correspondence(c)
            assert isinstance(report, list) and report, (at, change)
            checked += 1
    assert checked > 1000


def categories(doc):
    """The categories and groupoids that a document parses into: its
    own, and the two sides of its correspondences and the groupoids of
    its diagram."""
    try:
        kind, payload = cli.parse_document(json.dumps(doc))
        value = cli.value_of(kind, payload)
    except MALFORMED:
        return []
    if kind in ("category", "groupoid"):
        return [value]
    if kind == "correspondence":
        return [value.left, value.right]
    if kind in ("diagram", "action"):
        d = value[0] if kind == "action" else value
        return list(d.gr.values()) + [gpd for c in (d.gen_data or {}).values()
                                      for gpd in (c.left, c.right)]
    return []


def test_every_parsed_groupoid_break_gets_a_report():
    # unreadable arrow records, objects, identities, composites and
    # inverses are reported, not raised on
    checked = 0
    for doc, at, change in single_node_breaks():
        for cat in categories(broken_at(doc, at, change)):
            validate = validate_groupoid if isinstance(cat, FinGroupoid) \
                else validate_category
            assert isinstance(validate(cat), list), (at, change)
            checked += 1
    assert checked > 1000


def test_every_parsed_action_break_gets_a_report():
    # keys that are not pairs and points that are not hashable are
    # reported by validate_action, not raised on
    checked = 0
    for doc, at, change in single_node_breaks():
        if doc["kind"] != "action":
            continue
        try:
            d, a = cli.value_of(*cli.parse_document(
                json.dumps(broken_at(doc, at, change))))
            if validate_diagram(d):
                continue
        except MALFORMED:
            continue
        assert isinstance(validate_action(d, a), list), (at, change)
        checked += 1
    assert checked > 100


NAMED = {"point": DOCS[5], "commutative": DOCS[7]}
BRAIDING = ("payload", "braidings", 0, 1)
# every single-node break that validate once accepted: the point diagram's
# generator loses its carrier point, and an entry of the commutative
# diagram's braiding is dropped or a component of its value is not a
# point ({} in the first two entries always failed, as unhashable)
ACCEPTED = [("point", ("payload", "generators", 0, 1, "carrier", 0), "drop")] \
    + [("commutative", BRAIDING + (i,), "drop") for i in range(4)] \
    + [("commutative", BRAIDING + (i, 1, 1, j), value)
       for i in range(4) for j in (0, 1) for value in (7, None, {})
       if i >= 2 or value != {}]


@pytest.mark.parametrize("name, path, change", ACCEPTED, ids=[
    "-".join(map(str, (name,) + path[1:] + (change,)))
    for name, path, change in ACCEPTED])
def test_once_accepted_break_is_refused(name, path, change):
    code, err = run(broken_at(NAMED[name], path, change))
    assert code in (1, 2, 3) and "Traceback" not in err

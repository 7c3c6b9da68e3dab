import json
import subprocess
import sys

import pytest

from corpus import e1, e2, ep_graph, space_correspondences, z2_fixed_point
from gpdcorr import cli
from gpdcorr.cgx import cone_extend
from gpdcorr.corr import (identity_correspondence, space_correspondence,
                          validate_correspondence)
from gpdcorr.diagram import discrete_diagram, from_generators
from gpdcorr.fincat import PresentedShape
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.selfsim import iterate

from test_cgx import cx_single_arrow
from test_diagram import (e1_diagram, point_diagram, swap_action,
                          swap_correspondence, swap_diagram,
                          z2_commutative_diagram)


def run_cli(*argv, flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "gpdcorr.cli", *argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_doc(tmp_path, name, kind, payload):
    path = tmp_path / name
    path.write_text(cli.dumps(cli.envelope(kind, payload)), encoding="utf-8")
    return str(path)


def test_commutative_diagram_document_keeps_its_braidings(tmp_path, capsys):
    # a two-letter commutative diagram needs its braidings to materialise
    d = z2_commutative_diagram()
    payload = cli.diagram_payload(d)
    assert cli._dec(payload["braidings"][0][0]) == ("a", "b")
    path = write_doc(tmp_path, "comm.json", "diagram", payload)
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr() == ("OK\n", "")
    again = cli.value_of(*cli.load(path))
    assert again.sigma == d.sigma
    assert cli.diagram_payload(again) == payload


def test_diagram_document_without_braidings_has_no_braidings_key():
    assert "braidings" not in cli.diagram_payload(point_diagram(2))


def test_main_builds_one_parser_and_leaks_no_state(tmp_path, capsys):
    # the parser is built on the first call and reused; each request
    # still gets the defaults of its own subcommand
    path = write_doc(tmp_path, "cx.json", "complex_of_groups",
                     cli.complex_payload(cx_single_arrow()))
    requests = [["mn", "2", "2", "--depth", "5", "--json"], ["mn", "2", "2"],
                ["cgx", path, "homs", "-n", "4"], ["cgx", path, "homs"],
                ["validate", path, "--json"], ["validate", path],
                ["mn", "2"], ["nonsense"], ["model", path, "--verify", "2"]]

    def answer(argv):
        code = cli.main(argv)
        return code, capsys.readouterr()

    first = [answer(argv) for argv in requests]
    built = cli._parser
    assert built is not None
    assert [answer(argv) for argv in reversed(requests)] == first[::-1]
    assert cli._parser is built
    assert [code for code, _ in first] == [0, 0, 0, 0, 0, 0, 2, 2, 0]
    # the same answers as a fresh process, usage errors included
    for i in (1, 3, 6):
        code, (out, err) = first[i]
        assert run_cli(*requests[i]) == (code, out, err)


def z2_groupoid_doc(tmp_path, broken=False):
    gpd = FinGroupoid.from_group(Group.cyclic(2))
    payload = cli.groupoid_payload(gpd)
    if broken:
        compose = cli._read(cli.PAIRS, payload["category"]["compose"])
        compose[("a", "a")] = "a"
        payload["category"]["compose"] = cli._pairs(compose)
    return write_doc(tmp_path, "g.json", "groupoid", payload)


def test_round_trip_byte_identical(tmp_path):
    docs = {
        "groupoid": cli.groupoid_payload(FinGroupoid.from_group(Group.cyclic(3))),
        "correspondence": cli.correspondence_payload(iterate(e1(), 1)),
        "selfsimilar": cli.selfsimilar_payload(e2()),
        "complex_of_groups": cli.complex_payload(cx_single_arrow()),
        "diagram": cli.diagram_payload(point_diagram(2)),
    }
    for kind, payload in docs.items():
        text = cli.dumps(cli.envelope(kind, payload))
        kind2, payload2 = cli.parse_document(text)
        value = cli.value_of(kind2, payload2)
        again = {
            "groupoid": cli.groupoid_payload,
            "correspondence": cli.correspondence_payload,
            "selfsimilar": cli.selfsimilar_payload,
            "complex_of_groups": cli.complex_payload,
            "diagram": cli.diagram_payload,
        }[kind](value)
        assert cli.dumps(cli.envelope(kind, again)) == text


def test_validate_ok(tmp_path):
    code, out, _ = run_cli("validate", z2_groupoid_doc(tmp_path))
    assert code == 0
    assert out.strip() == "OK"


def test_validate_broken_groupoid(tmp_path):
    code, out, _ = run_cli("validate", z2_groupoid_doc(tmp_path, broken=True))
    assert code == 1
    assert "'a'" in out


def test_validate_category_with_undeclared_objects(tmp_path):
    payload = cli.category_payload(
        FinGroupoid.from_group(Group.cyclic(3)))
    payload["objects"] = []
    code, out, _ = run_cli("validate", write_doc(tmp_path, "c.json",
                                                 "category", payload))
    assert code == 1
    assert "source '*' of 'a2' is not an object" in out
    assert "identity key '*' is not an object" in out


def test_validate_correspondence_with_a_point_missing_from_the_carrier(
        tmp_path):
    payload = cli.correspondence_payload(swap_correspondence())
    payload["carrier"] = [x for x in payload["carrier"]
                          if cli._dec(x) != ("x", 1)]
    code, out, _ = run_cli("validate", write_doc(tmp_path, "c.json",
                                                 "correspondence", payload))
    assert code == 1
    for name in ("r", "s", "lact", "ract"):
        assert f"{name} names ('x', 1), which is not in the carrier" in out


def _part_outside(payload):
    payload["part"].append([99, "*"])


def _gact_outside(payload):
    payload["gact"][0][1] = 99


def _alph_outside(payload):
    payload["alph"][0][1].append([cli._enc(("zz", 0)), 1])


def _alph_unknown_arrow(payload):
    payload["alph"].append([cli._enc(("*", "*", ("q",))),
                            list(payload["alph"][0][1])])


SWAP_ARROW = ("*", "*", ("t",))


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("mutate, line", [
    (_part_outside, "part names 99, which is not in the carrier"),
    (_gact_outside, "gact names 99, which is not in the carrier"),
    (_alph_outside, f"alpha({SWAP_ARROW!r}) names 'zz', which is not in "
                    f"X({SWAP_ARROW!r})"),
    (_alph_unknown_arrow, "alph names ('*', '*', ('q',)), which is not a "
                          "generator arrow")],
    ids=["part", "gact", "alph", "alph-arrow"])
def test_validate_action_reports_unknown_names(tmp_path, mutate, line, flags):
    d = swap_diagram(2)
    payload = cli.action_payload(d, swap_action(d))
    mutate(payload)
    path = write_doc(tmp_path, "act.json", "action", payload)
    assert run_cli("validate", path, flags=flags) == (1, line + "\n", "")


def _tag_not_t():
    payload = cli.groupoid_payload(FinGroupoid.from_group(Group.cyclic(3)))
    payload["category"]["arrows"][1][1][0] = 7      # the endpoints of "a"
    return "groupoid", payload


def _action_groupoid_without_an_inverse():
    d = swap_diagram(2)
    payload = cli.action_payload(d, swap_action(d))
    del payload["diagram"]["groupoids"][0][1]["inv"][0]
    return "action", payload


def _complex_shape_without_a_composite():
    payload = cli.complex_payload(cx_single_arrow())
    del payload["shape"]["compose"][0]
    return "complex_of_groups", payload


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("make, want", [
    (_tag_not_t, (2, "", "error: expected the tag 't' or 'l', got 7\n")),
    (_action_groupoid_without_an_inverse, (
        1, "X(('*', '*', ())): left groupoid: arrow ('u', 0) has no inverse\n"
           "X(('*', '*', ())): right groupoid: arrow ('u', 0) has no "
           "inverse\n", "")),
    (_complex_shape_without_a_composite, (
        1, "shape: missing composite ('g',('i', 'y'))\n", ""))],
    ids=["tag", "action-diagram", "cgx-shape"])
def test_validate_sees_a_break_below_the_first_level(tmp_path, make, want,
                                                     flags):
    path = write_doc(tmp_path, "doc.json", *make())
    assert run_cli("validate", path, flags=flags) == want


def _replace_endpoint(endpoints):
    endpoints[1][1] = "zz"


def _drop_endpoint(endpoints):
    del endpoints[1][0]


@pytest.mark.parametrize("change, gens", [
    (_replace_endpoint, "('*', 'zz')"), (_drop_endpoint, "('*',)")],
    ids=["replaced", "dropped"])
@pytest.mark.parametrize("make, others", [
    (lambda: point_diagram(2), ""),
    (z2_commutative_diagram, ", 'b': ('*', '*')")], ids=["point", "comm"])
def test_diagram_gens_must_be_the_shapes(tmp_path, make, others, change,
                                         gens):
    # the first generator's (target, source) pair, as diagram_payload
    # writes it, no longer matches the shape read from the document
    payload = cli.diagram_payload(make())
    first = payload["gens"][0]
    change(first[1])
    path = write_doc(tmp_path, "d.json", "diagram", payload)
    want = f"error: gens {{{first[0]!r}: {gens}{others}}} are not the " \
        "shape's\n"
    assert run_cli("validate", path) == (2, "", want)


def _rename_groupoid(groupoids):
    groupoids[0][0] = "zz"


def _drop_groupoids(groupoids):
    groupoids.clear()


def _add_groupoid(groupoids):
    groupoids.append(["zz", groupoids[0][1]])


@pytest.mark.parametrize("change, keys", [
    (_rename_groupoid, ["zz"]), (_drop_groupoids, []),
    (_add_groupoid, ["*", "zz"])], ids=["renamed", "empty", "added"])
def test_diagram_groupoids_must_be_on_the_shapes_objects(tmp_path, change,
                                                         keys):
    # each of these documents used to validate: a groupoid that is not
    # on a shape object was ignored, and a missing one was taken from
    # the generators
    payload = cli.diagram_payload(point_diagram(2))
    change(payload["groupoids"])
    path = write_doc(tmp_path, "d.json", "diagram", payload)
    want = f"error: groupoids on {keys!r} are not on the shape's objects\n"
    assert run_cli("validate", path) == (2, "", want)


def test_validate_correspondence_checks_its_groupoids(tmp_path):
    # a composite of two arrows that do not compose: the actions never
    # use it, so only the groupoid check sees it
    c = swap_correspondence()
    c.right.compose[(("u", 0), ("u", 1))] = ("u", 0)
    code, out, _ = run_cli("validate", write_doc(
        tmp_path, "c.json", "correspondence", cli.correspondence_payload(c)))
    assert code == 1
    assert out.splitlines() == [
        "right groupoid: compose(('u', 0),('u', 1)) defined but "
        "src(g) != dst(h)",
        "right groupoid: compose(('u', 0),('u', 1)) = ('u', 0) has wrong "
        "endpoints"]


def test_validate_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": "1", "kind": "nope", "payload": {}}',
                    encoding="utf-8")
    code, _, err = run_cli("validate", str(path))
    assert code == 2
    assert "unknown kind" in err


def test_every_document_kind_has_a_validator():
    assert cli.VALIDATORS.keys() == cli.KINDS.keys()


def test_unreadable_path_is_a_usage_error(tmp_path):
    # a directory is no document; a missing file keeps its OSError text
    assert_usage_error(*run_cli("validate", str(tmp_path)))
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli("validate", missing)
    assert_usage_error(code, out, err)
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_deeply_nested_document_is_a_usage_error(tmp_path):
    # json.loads gives up on deep nesting with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"format_version": "1", "kind": "groupoid", "payload": '
                    + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    code, out, err = run_cli("validate", str(path))
    assert_usage_error(code, out, err)
    assert "maximum recursion depth exceeded" in err


def test_compose_correspondences(tmp_path):
    c = iterate(e1(), 1)
    p1 = write_doc(tmp_path, "c1.json", "correspondence",
                   cli.correspondence_payload(c))
    p2 = write_doc(tmp_path, "c2.json", "correspondence",
                   cli.correspondence_payload(c))
    code, out, _ = run_cli("compose", p1, p2)
    assert code == 0
    kind, payload = cli.parse_document(out)
    composed = cli.value_of(kind, payload)
    assert len(composed.carrier) == 8


def test_model_point_diagram_with_verify(tmp_path):
    path = write_doc(tmp_path, "pt.json", "diagram",
                     cli.diagram_payload(point_diagram(2)))
    code, out, _ = run_cli("model", path, "--verify", "3", "--depth", "2")
    assert code == 0
    assert "verify(3): OK" in out
    assert "universal action: tight" in out


def test_model_selfsim_diagram(tmp_path):
    shape = PresentedShape.free_monoid(("t",), length_bound=2)
    d = from_generators(shape, {"t": iterate(e1(), 1)})
    d.selfsim = e1()
    path = write_doc(tmp_path, "e1.json", "diagram", cli.diagram_payload(d))
    code, out, _ = run_cli("model", path, "--depth", "2")
    assert code == 0
    assert "rational(2)" in out


def test_model_discrete_diagram(tmp_path):
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))})
    path = write_doc(tmp_path, "disc.json", "diagram", cli.diagram_payload(d))
    code, out, _ = run_cli("model", path, "--verify", "2")
    assert code == 0
    assert "disjoint union groupoid" in out


def test_model_cgx_document(tmp_path):
    path = write_doc(tmp_path, "cx.json", "complex_of_groups",
                     cli.complex_payload(cx_single_arrow()))
    code, out, _ = run_cli("model", path, "--verify", "2")
    assert code == 0
    assert "fundamental group" in out
    assert "verify(2): OK" in out


def non_ore_tight_diagram():
    shape = PresentedShape.free_monoid(("a", "b"), length_bound=2)
    swap = swap_correspondence()
    ident = space_correspondence(
        (0, 1), (0, 1), {("y", v): v for v in (0, 1)},
        {("y", v): v for v in (0, 1)}, carrier=[("y", 0), ("y", 1)])
    return from_generators(shape, {"a": swap, "b": ident})


def test_model_non_ore_fallback(tmp_path):
    d = non_ore_tight_diagram()
    path = write_doc(tmp_path, "f2.json", "diagram", cli.diagram_payload(d))
    code, _, err = run_cli("model", path)
    assert code == 2
    assert "effective-quotient" in err
    code, out, _ = run_cli("model", path, "--effective-quotient")
    assert code == 0
    assert "germ groupoid" in out and "warning" in out


def test_selfsim_effective(tmp_path):
    path = write_doc(tmp_path, "e2.json", "selfsimilar",
                     cli.selfsimilar_payload(e2()))
    code, out, _ = run_cli("selfsim", path, "effective")
    assert code == 0
    assert out.strip() == "NOT EFFECTIVE witness=a"
    path1 = write_doc(tmp_path, "e1.json", "selfsimilar",
                      cli.selfsimilar_payload(e1()))
    code, out, _ = run_cli("selfsim", path1, "effective")
    assert out.strip() == "EFFECTIVE"


def test_selfsim_nf_mul(tmp_path):
    path = write_doc(tmp_path, "e1.json", "selfsimilar",
                     cli.selfsimilar_payload(e1()))
    code, out, _ = run_cli("selfsim", path, "nf-mul", "e:a:e", "0:1:e")
    assert code == 0
    assert out.strip() == "1:a:e"


def test_selfsim_act_and_germ(tmp_path):
    path = write_doc(tmp_path, "e1.json", "selfsimilar",
                     cli.selfsimilar_payload(e1()))
    code, out, _ = run_cli("selfsim", path, "act", "e:a:e", "e|0")
    assert code == 0
    assert out.strip() == "e|1"
    code, out, _ = run_cli("selfsim", path, "germ", "e:1:e", "e:a:e", "e|0")
    assert out.strip() == "DISTINCT"


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.strip() != "error:"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("germ", "e:a", "e:a:e", "e|0"),
    ("nf-mul", "q:1:e", "0:1:e"),
    ("act", "0:1:e", "q|0"),
    ("germ", "0:zz:0", "0:1:0", "0|0"),
    ("nf-mul", "0:1:e"),
    ("nf-mul", "e@zz:1:e", "0:1:e"),
], ids=["short-nf", "unknown-letter", "unknown-letter-in-point",
        "unknown-element", "missing-argument", "unknown-vertex"])
def test_selfsim_bad_argument_is_a_usage_error(tmp_path, argv):
    path = write_doc(tmp_path, "e1.json", "selfsimilar",
                     cli.selfsimilar_payload(e1()))
    assert_usage_error(*run_cli("selfsim", path, *argv))


@pytest.mark.parametrize("argv, message", [
    (("nf-mul", "z.z:1:e@p", "e:1:e@p"), "path breaks at 'z','z'"),
    (("act", "e@p:1:e@p", "e@q|z"), "period does not loop"),
    (("act", "e@p:1:e@p", "x|e@p"), "period must be nonempty"),
    (("nf-mul", "e@q:1:x", "e@p:1:e@p"), "incompatible normal form"),
], ids=["broken-path", "period-does-not-loop", "empty-period",
        "incompatible-nf"])
def test_selfsim_bad_path_is_a_usage_error_under_O(tmp_path, argv, message):
    # input checks must not be asserts, which python -O strips
    path = write_doc(tmp_path, "graph.json", "selfsimilar",
                     cli.selfsimilar_payload(ep_graph()))
    code, out, err = run_cli("selfsim", path, *argv, flags=("-O",))
    assert_usage_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("table, key", [
    ("er", "0"), ("es", "1"), ("vact", ("a", "*")), ("eact", ("a", "0")),
    ("cocycle", ("a", "1"))], ids=["er", "es", "vact", "eact", "cocycle"])
@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
def test_incomplete_selfsimilar_table_is_a_usage_error(tmp_path, table, key,
                                                       flags):
    # the tables are checked for totality when the data is built, so
    # neither validate nor the arithmetic meets a missing entry
    payload = cli.selfsimilar_payload(e1())
    entries = cli._read(cli.PAIRS, payload[table])
    del entries[key]
    payload[table] = cli._pairs(entries)
    path = write_doc(tmp_path, "e1.json", "selfsimilar", payload)
    for argv in (("validate", path),
                 ("selfsim", path, "act", "1:a:1", "e|1")):
        code, out, err = run_cli(*argv, flags=flags)
        assert_usage_error(code, out, err)
        assert err == f"error: {table} has no valid entry for {key!r}\n"


@pytest.mark.parametrize("table", ["er", "vact", "eact", "cocycle"])
def test_unhashable_selfsimilar_entry_is_a_usage_error(tmp_path, table):
    # a JSON array decodes to a list, which is no vertex, edge or element
    payload = cli.selfsimilar_payload(e1())
    payload[table][0][1] = ["l", []]
    path = write_doc(tmp_path, "e1.json", "selfsimilar", payload)
    code, out, err = run_cli("validate", path)
    assert_usage_error(code, out, err)
    assert err == ("error: malformed selfsimilar payload: "
                   "unhashable type: 'list'\n")


def broken_graph():
    """ep_graph with a swapping p and q, so that r(g.e) != g.r(e)."""
    payload = cli.selfsimilar_payload(ep_graph())
    vact = cli._read(cli.PAIRS, payload["vact"])
    vact[("a", "p")], vact[("a", "q")] = "q", "p"
    payload["vact"] = cli._pairs(vact)
    return payload


def test_invalid_selfsimilar_data_is_refused(tmp_path):
    # selfsim and model validate the data once and print validate's
    # report, which validate also gives for a diagram that carries it
    path = write_doc(tmp_path, "graph.json", "selfsimilar", broken_graph())
    shape = PresentedShape.free_monoid(("t",), length_bound=2)
    d = from_generators(shape, {"t": iterate(ep_graph(), 1)})
    d.selfsim = ep_graph()
    payload = cli.diagram_payload(d)
    payload["selfsimilar"] = broken_graph()
    diagram = write_doc(tmp_path, "d.json", "diagram", payload)
    code, report, err = run_cli("validate", path)
    assert code == 1 and err == ""
    assert "r(g.e) != g.r(e) at ('a','x')" in report
    for argv in (("selfsim", path, "act", "e@p:1:e@p", "x|x"),
                 ("selfsim", path, "effective"),
                 ("model", diagram, "--depth", "2"),
                 ("validate", diagram)):
        assert run_cli(*argv) == (1, report, "")
    code, out, _ = run_cli("selfsim", path, "effective", "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False,
                               "report": report.splitlines()}


def not_a_group_payload():
    """e1 with a.a == a, so that a has no inverse."""
    payload = cli.selfsimilar_payload(e1())
    mul = cli._read(cli.PAIRS, payload["group"]["mul"])
    mul[("a", "a")] = "a"
    payload["group"]["mul"] = cli._pairs(mul)
    return payload


def group_without_identity_payload():
    """e1 with "1" dropped from its group, though the table still uses it."""
    payload = cli.selfsimilar_payload(e1())
    payload["group"]["elements"].remove("1")
    return payload


def on_docs(command, docs, *rest):
    """argv for command on documents written at test time; docs are
    (kind, payload maker) pairs, passed in order before the rest."""
    def argv(tmp_path):
        paths = [write_doc(tmp_path, f"doc{i}.json", kind, payload())
                 for i, (kind, payload) in enumerate(docs)]
        return (command, *paths, *rest)
    return argv


@pytest.mark.parametrize("argv, message", [
    (on_docs("validate", [("selfsimilar", not_a_group_payload)]),
     "not a group: missing inverses"),
    (on_docs("validate", [("selfsimilar", group_without_identity_payload)]),
     "not a group: no element '1'"),
    (on_docs("selfsim",
             [("selfsimilar", lambda: cli.selfsimilar_payload(e1()))],
             "germ", "e:1:0", "e:a:e", "1|1"), "z outside a domain"),
    (on_docs("compose", [
        ("correspondence", lambda: cli.correspondence_payload(
            space_correspondences()["r00-s00"])),
        ("correspondence", lambda: cli.correspondence_payload(
            iterate(e1(), 1)))]), "middle groupoids differ"),
], ids=["not-a-group", "group-without-identity", "germ-outside-domain",
        "middle-groupoids-differ"])
def test_bad_input_is_a_usage_error_under_O(tmp_path, argv, message):
    argv = argv(tmp_path)
    for flags in ((), ("-O",)):
        code, out, err = run_cli(*argv, flags=flags)
        assert_usage_error(code, out, err)
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, doc", [
    (("mn", "0", "1"), None),
    (("mn", "1", "1", "--depth", "-1"), None),
    (("validate",), {"m": "x"}),
    (("validate",), {"m": "x", "n": 1}),
    (("validate",), {"m": 0, "n": 1}),
    (("model",), {"m": 0, "n": 1}),
    (("model", "--depth", "-1"), {"m": 1, "n": 1}),
], ids=["mn-m0", "mn-negative-depth", "validate-missing-n",
        "validate-string-m", "validate-m0", "model-m0",
        "model-negative-depth"])
def test_mn_bad_argument_is_a_usage_error(tmp_path, argv, doc):
    if doc is not None:
        path = write_doc(tmp_path, "mn.json", "mn", doc)
        argv = argv[:1] + (path,) + argv[1:]
    assert_usage_error(*run_cli(*argv))


def test_mn_command():
    code, out, _ = run_cli("mn", "1", "1", "--depth", "2")
    assert code == 0
    assert "configurations: 2" in out


# Captured from the enumerating implementation, before the counts came
# from a fold over the configuration tree.
MN_GOLDEN = {
    (1, 1, 2): (2, 10), (1, 1, 3): (2, 14), (1, 2, 2): (4, 28),
    (1, 2, 3): (6, 70), (2, 1, 2): (4, 28), (2, 2, 2): (20, 180),
    (2, 2, 3): (272, 4176)}


@pytest.mark.parametrize("m, n, depth", sorted(MN_GOLDEN))
@pytest.mark.parametrize("flag", [(), ("--json",)], ids=["text", "json"])
def test_mn_output_bytes_unchanged(capsys, m, n, depth, flag):
    configs, arrows = MN_GOLDEN[m, n, depth]
    expected = (f'{{\n "configs": {configs},\n "arrows": {arrows}\n}}\n'
                if flag else
                f"configurations: {configs}\narrows: {arrows}\n")
    assert cli.main(["mn", str(m), str(n), "--depth", str(depth), *flag]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("argv, expected", [
    (("--depth", "2"), "configurations at depth 2: 4\narrows at depth 2: 28\n"),
    (("--depth", "2", "--json"),
     '{\n "ok": true,\n "configs": 4,\n "arrows": 28\n}\n'),
    (("--depth", "3"), "configurations at depth 3: 6\narrows at depth 3: 70\n"),
], ids=["depth2", "depth2-json", "depth3"])
def test_model_mn_output_bytes_unchanged(tmp_path, capsys, argv, expected):
    path = write_doc(tmp_path, "mn.json", "mn", {"m": 1, "n": 2})
    assert cli.main(["model", path, *argv]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("flag, expected", [
    ((), "configurations: 67174400\narrows: 3427074048\n"),
    (("--json",), '{\n "configs": 67174400,\n "arrows": 3427074048\n}\n'),
], ids=["text", "json"])
def test_mn_counts_without_listing(flag, expected):
    assert run_cli("mn", "2", "2", "--depth", "5", *flag) == (0, expected, "")


@pytest.mark.parametrize("n", ["-1", "-5"])
def test_cgx_negative_n_is_a_usage_error(tmp_path, n):
    path = write_doc(tmp_path, "cx.json", "complex_of_groups",
                     cli.complex_payload(cx_single_arrow()))
    code, out, err = run_cli("cgx", path, "homs", f"-n={n}")
    assert_usage_error(code, out, err)
    assert err == f"error: n must be an integer >= 0, got {int(n)}\n"


def test_cgx_homs_into_s0_is_one(tmp_path):
    path = write_doc(tmp_path, "cx.json", "complex_of_groups",
                     cli.complex_payload(cx_single_arrow()))
    assert run_cli("cgx", path, "homs", "-n", "0") == (0, "1\n", "")


def test_cgx_commands(tmp_path):
    path = write_doc(tmp_path, "cx.json", "complex_of_groups",
                     cli.complex_payload(cx_single_arrow()))
    code, out, _ = run_cli("cgx", path, "homs", "-n", "3")
    assert code == 0
    assert out.strip() == "6"
    code, out1, _ = run_cli("cgx", path, "pi1")
    code, out2, _ = run_cli("cgx", path, "isotropy")
    assert out1 == out2


def test_cgx_isotropy_of_a_cone_is_a_usage_error(tmp_path):
    path = write_doc(tmp_path, "cone.json", "complex_of_groups",
                     cli.complex_payload(cone_extend(cx_single_arrow())))
    code, out, err = run_cli("cgx", path, "isotropy")
    assert_usage_error(code, out, err)
    assert err == ("error: cannot cone-extend: the complex already has an "
                   "object 'inf'\n")


def test_cli_outputs_deterministic(tmp_path):
    path = write_doc(tmp_path, "e1.json", "selfsimilar",
                     cli.selfsimilar_payload(e1()))
    runs = [run_cli("selfsim", path, "nf-mul", "e:a:e", "0:1:e", "--json")
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_action_document_validates(tmp_path):
    d = swap_diagram(2)
    a = swap_action(d)
    path = write_doc(tmp_path, "act.json", "action",
                     cli.action_payload(d, a))
    code, out, _ = run_cli("validate", path)
    assert code == 0 and out.strip() == "OK"
    bad = cli.action_payload(d, a)
    gact = cli._read(cli.PAIRS, bad["gact"])
    gact[(("u", 0), 0)] = 1
    bad["gact"] = cli._pairs(gact)
    path2 = write_doc(tmp_path, "bad.json", "action", bad)
    code, out, _ = run_cli("validate", path2)
    assert code == 1


def test_model_json_embeds_groupoid(tmp_path):
    d = discrete_diagram({"x": FinGroupoid.from_group(Group.cyclic(2))})
    path = write_doc(tmp_path, "disc.json", "diagram", cli.diagram_payload(d))
    code, out, _ = run_cli("model", path, "--json")
    assert code == 0
    doc = __import__("json").loads(out)
    gpd = cli.value_of("groupoid", doc["groupoid"])
    assert len(gpd) == 2


def test_compose_mismatched_groupoids_is_usage_error(tmp_path):
    c1 = iterate(e1(), 1)
    gpd = FinGroupoid.from_group(Group.cyclic(3))
    c2 = identity_correspondence(gpd)
    p1 = write_doc(tmp_path, "c1.json", "correspondence",
                   cli.correspondence_payload(c1))
    p2 = write_doc(tmp_path, "c2.json", "correspondence",
                   cli.correspondence_payload(c2))
    code, _, err = run_cli("compose", p1, p2)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("flags, extra, bad_first", [
    ((), (), True), ((), ("--json",), False), (("-O",), (), True)],
    ids=["plain", "json", "O"])
def test_compose_refuses_an_invalid_correspondence(tmp_path, flags, extra,
                                                   bad_first):
    # a point fixed by Z/2 on the right: compose validates both documents
    # and exits 1 with validate's report instead of printing a quotient
    fixed = z2_fixed_point()
    report = validate_correspondence(fixed)
    assert report == ["right action not basic, witness ('x', 'a')"]
    bad = write_doc(tmp_path, "fixed.json", "correspondence",
                    cli.correspondence_payload(fixed))
    good = write_doc(tmp_path, "id.json", "correspondence",
                     cli.correspondence_payload(
                         identity_correspondence(fixed.right)))
    paths = (bad, good) if bad_first else (good, bad)
    code, out, err = run_cli("compose", *paths, *extra, flags=flags)
    assert (code, err) == (1, "")
    if extra:
        assert json.loads(out) == {"ok": False, "report": report}
    else:
        assert out == "".join(line + "\n" for line in report)


@pytest.mark.parametrize("flags, extra", [
    ((), ()), ((), ("--json",)), (("-O",), ())], ids=["plain", "json", "O"])
def test_validate_diagram_with_a_non_free_generator(tmp_path, flags, extra):
    # the coherence checks do not compose X(g) that failed validation;
    # the parsed generator is reported first, under its name
    shape = PresentedShape.free_monoid(("t",), length_bound=2)
    d = from_generators(shape, {"t": z2_fixed_point()})
    path = write_doc(tmp_path, "fixed.json", "diagram",
                     cli.diagram_payload(d))
    code, out, err = run_cli("validate", path, *extra, flags=flags)
    report = ["generator 't': right action not basic, witness ('x', 'a')",
              f"X(('*', '*', ('t',))): right action not basic, "
              f"witness (('x',), 'a')",
              f"X(('*', '*', ('t', 't'))): right action not basic, "
              f"witness (('x', 'x'), 'a')"]
    assert (code, err) == (1, "")
    if extra:
        assert json.loads(out) == {"ok": False, "report": report,
                                   "flags": []}
    else:
        assert out == "".join(line + "\n" for line in report)


def test_germ_outside_domain_is_usage_error(tmp_path):
    path = write_doc(tmp_path, "e1.json", "selfsimilar",
                     cli.selfsimilar_payload(e1()))
    code, _, err = run_cli("selfsim", path, "germ", "e:1:0", "e:a:e", "1|1")
    assert code == 2


def _two_loose_generators():
    """A free-monoid diagram on two generators that is not tight: each
    generator's two points lie over one object of the left space."""
    c = space_correspondences()["r00-s01"]
    shape = PresentedShape.free_monoid(("a", "b"), length_bound=1)
    return from_generators(shape, {"a": c, "b": c})


DOCUMENTS = {
    "e1": ("selfsimilar", lambda: cli.selfsimilar_payload(e1())),
    "corr": ("correspondence",
             lambda: cli.correspondence_payload(swap_correspondence())),
    "cx": ("complex_of_groups",
           lambda: cli.complex_payload(cx_single_arrow())),
    "e1-diagram": ("diagram", lambda: cli.diagram_payload(e1_diagram(2))),
    "loose": ("diagram", lambda: cli.diagram_payload(_two_loose_generators())),
}
# requests that reach a branch of main or a command that no other test
# runs: (command, documents, arguments, exit code, stdout, stderr)
BRANCHES = {
    "depth-too-small": (
        "selfsim", ["e1"], ["slices", "e:1:e", "e:a:e", "--depth", "0"], 3,
        "", "bound exceeded: intersection of nf<e,1,e> and nf<e,a,e> needs "
        "depth > 0\n"),
    "slices": ("selfsim", ["e1"], ["slices", "0:a:1", "e:a:e"], 0,
               "0:a:1\n", ""),
    "slices-empty": ("selfsim", ["e1"], ["slices", "e:1:e", "e:a:e"], 0,
                     "EMPTY\n", ""),
    "act-undefined": ("selfsim", ["e1"], ["act", "e:1:0", "1|0"], 0,
                      "undefined\n", ""),
    "cgx-not-a-complex": (
        "cgx", ["e1"], ["pi1"], 2, "",
        "error: cgx expects a complex_of_groups document\n"),
    "cgx-unknown-subcommand": (
        "cgx", ["cx"], ["pi2"], 2, "", "error: unknown cgx subcommand 'pi2'\n"),
    "compose-not-correspondences": (
        "compose", ["corr", "e1"], [], 2, "",
        "error: compose expects two correspondence documents\n"),
    "model-unsupported-kind": (
        "model", ["corr"], [], 2, "",
        "error: model does not handle kind 'correspondence'\n"),
    "model-verify-skipped": (
        "model", ["e1-diagram"], ["--verify", "2"], 0,
        "universal action: rational(2)\nsample points: 4\n"
        "pair arrows per grade: -1: 8, 0: 16, 1: 16\n"
        "verify(2): skipped (no finite presentation at this depth)\n", ""),
    "no-model-construction": (
        "model", ["loose"], [], 2, "",
        "error: no model construction for shape kind 'free'\n"),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_each_cli_branch_keeps_the_exit_contract(tmp_path, capsys, name):
    command, docs, rest, *want = BRANCHES[name]
    paths = [write_doc(tmp_path, f"{doc}.json", DOCUMENTS[doc][0],
                       DOCUMENTS[doc][1]()) for doc in docs]
    code = cli.main([command, *paths, *rest])
    assert (code, *capsys.readouterr()) == tuple(want)

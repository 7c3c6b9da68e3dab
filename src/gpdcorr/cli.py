"""Command-line entry point and the document file format.

Documents are JSON with a fixed key order per kind, so serialisation is
byte-stable: finite maps are arrays of pairs, tuples are encoded as
arrays and decoded back.  Each kind's layout is written once, in
LAYOUTS, as its ordered fields (key, encoding, reader).  Three walkers
read it: payload_of (and the *_payload names) builds a document's JSON
value for dumps, write_document writes the same text straight from the
library object without building that value, and value_of reads a
document back field by field in the same order and hands the fields to
its kind's constructor in KINDS.  Every command is deterministic; --seed
is accepted for interface stability but nothing here is randomised.

Exit codes: 0 ok, 1 violation found, 2 usage or parse error, 3 bound
exceeded.
"""

import argparse
import json
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _escape
from operator import attrgetter, itemgetter

from . import cgx as cgxmod
from . import mn as mnmod
from .corr import Correspondence, compose, validate_correspondence
from .diagram import (FAction, discrete_diagram, from_generators,
                      singleton_thetas, validate_action, validate_diagram)
from .errors import (BoundExceeded, DepthInsufficient, GpdError,
                     HexagonViolation, Mismatch, NotSupported, ParseError,
                     SchemaError, Undefined)
from .fincat import FinCategory, PresentedShape, validate_category
from .groupoid import FinGroupoid, Group, germ_groupoid, validate_groupoid
from .model import (OreUniversal, PresentationModel, model_discrete_shape,
                    model_group_shape, pair_groupoid_model,
                    tight_universal_action, verify_model)
from .selfsim import (SelfSimilarData, act_on_word, effective_check,
                      germ_equal, nf, nf_mul, slice_intersections)

FORMAT_VERSION = "1"


def _enc(value):
    if type(value) is str or type(value) is int:
        return value
    if isinstance(value, tuple):
        return ["t", [_enc(v) for v in value]]
    if isinstance(value, (list, frozenset, set)):
        return ["l", [_enc(v) for v in sorted(value, key=repr)]]
    return value


def _dec(value):
    if isinstance(value, list):
        tag, items = value
        if tag not in ("t", "l"):
            raise SchemaError(f"expected the tag 't' or 'l', got {tag!r}")
        decoded = [_dec(v) for v in _array(items)]
        return tuple(decoded) if tag == "t" else decoded
    return value


def _array(value):
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {value!r}")
    return value


def _key_repr(item):
    return repr(item[0])


def _pairs(mapping):
    return [[_enc(k), _enc(v)] for k, v in
            sorted(mapping.items(), key=_key_repr)]


# -- document layouts ----------------------------------------------------------
# A kind's layout is its fields in order: (key, encoding) reads the value's
# attribute key, (key, encoding, reader) reads reader(value), a reader that
# returns OMIT drops its field, and the reader itself writes the value as
# the nested kind, read back as that kind's fields.  Encodings: RAW (as
# is), ENC (_enc), LIST (_enc of each item), PAIRS (_pairs), a kind (a
# nested document) and (BY_KEY, encoding), [[_enc(k), encoded v]] over the
# (k, v) items sorted by repr.  payload_of builds a document's JSON value,
# write_document its text and value_of reads it back.

RAW, ENC, LIST, PAIRS, BY_KEY = "raw", "enc", "list", "pairs", "by key"
OMIT = object()


def itself(value):
    return value


LAYOUTS = {
    "category": [("objects", LIST), ("arrows", PAIRS), ("compose", PAIRS),
                 ("identities", PAIRS)],
    "groupoid": [("category", "category", itself), ("inv", PAIRS)],
    "correspondence": [("left", "groupoid"), ("right", "groupoid"),
                       ("carrier", LIST), ("r", PAIRS, attrgetter("rmap")),
                       ("s", PAIRS, attrgetter("smap")), ("lact", PAIRS),
                       ("ract", PAIRS)],
    "group": [("elements", LIST), ("mul", PAIRS), ("identity", ENC)],
    "selfsimilar": [("group", "group"), ("vertices", LIST), ("edges", LIST),
                    ("er", PAIRS), ("es", PAIRS), ("vact", PAIRS),
                    ("eact", PAIRS), ("cocycle", PAIRS)],
    "complex_of_groups": [("shape", "category"), ("groups", (BY_KEY, "group")),
                          ("homs", (BY_KEY, PAIRS)), ("twists", PAIRS)],
    "diagram": [
        ("shape_kind", RAW, attrgetter("shape.kind")),
        ("objects", LIST, attrgetter("shape.objects")),
        ("gens", PAIRS, lambda d: {g: (d.shape.gen_dst[g], d.shape.gen_src[g])
                                   for g in d.shape.gens}),
        ("bound", RAW), ("groupoids", (BY_KEY, "groupoid"), attrgetter("gr")),
        ("generators", (BY_KEY, "correspondence"), lambda d: d.gen_data or {
            g[2][0]: d.X(g) for g in d.gen_arrows()}),
        ("braidings", (BY_KEY, PAIRS), lambda d: d.sigma or OMIT),
        ("selfsimilar", "selfsimilar",
         lambda d: OMIT if d.selfsim is None else d.selfsim)],
    # an action document is written from the pair (diagram, action)
    "action": [("diagram", "diagram", itemgetter(0)),
               ("carrier", LIST, lambda da: da[1].carrier),
               ("part", PAIRS, lambda da: da[1].part),
               ("anchor", PAIRS, lambda da: da[1].anchor),
               ("gact", PAIRS, lambda da: da[1].gact),
               ("alph", (BY_KEY, PAIRS), lambda da: da[1].alph)],
}


def _fields(kind, value):
    for key, how, *read in LAYOUTS[kind]:
        x = read[0](value) if read else getattr(value, key)
        if x is not OMIT:
            yield key, how, x


def payload_of(kind, value):
    """The payload of value's document: what dumps writes for it."""
    return {key: _build(how, x) for key, how, x in _fields(kind, value)}


def _build(how, x):
    if how in LAYOUTS:
        return payload_of(how, x)
    if type(how) is tuple:
        return [[_enc(k), _build(how[1], v)]
                for k, v in sorted(x.items(), key=repr)]
    return x if how is RAW else _enc(x) if how is ENC else \
        [_enc(v) for v in x] if how is LIST else _pairs(x)


category_payload = partial(payload_of, "category")
groupoid_payload = partial(payload_of, "groupoid")
correspondence_payload = partial(payload_of, "correspondence")
group_payload = partial(payload_of, "group")
selfsimilar_payload = partial(payload_of, "selfsimilar")
complex_payload = partial(payload_of, "complex_of_groups")
diagram_payload = partial(payload_of, "diagram")


def action_payload(d, a):
    return payload_of("action", (d, a))


def _read(how, p):
    """The value of a field written as how: _build read back."""
    if how is PAIRS:
        return {_dec(k): _dec(v) for k, v in _array(p)}
    if how in LAYOUTS:
        return (Group if how == "group" else KINDS[how])(*_values(how, p))
    if type(how) is tuple:
        return {_dec(k): _read(how[1], v) for k, v in _array(p)}
    return p if how is RAW else _dec(p) if how is ENC else \
        [_dec(x) for x in _array(p)]


def _values(kind, payload):
    """A payload's fields in layout order, for its kind's constructor."""
    return [None if key in OPTIONAL and key not in payload else
            _values(how, payload[key]) if read and read[0] is itself else
            _read(how, payload[key]) for key, how, *read in LAYOUTS[kind]]


def _diagram(kind, objects, gens_ep, bound, groupoids, gens, braidings,
             selfsim):
    """The diagram of a document's fields, if they describe its shape."""
    at_least("bound", bound, 0)
    if kind == "free":
        shape = PresentedShape.free_monoid(sorted(gens_ep), bound)
    elif kind == "path":
        shape = PresentedShape.path_category(objects, gens_ep, bound)
    elif kind == "comm":
        shape = PresentedShape.free_commutative(sorted(gens_ep), bound)
    elif kind == "finite" and not gens_ep:
        d = discrete_diagram(groupoids)
        shape = d.shape
    else:
        raise SchemaError(f"unsupported shape kind {kind!r} in a diagram "
                          "document")
    if list(shape.objects) != objects:
        raise SchemaError(f"objects {objects!r} are not the shape's")
    if gens_ep != {g: (shape.gen_dst[g], shape.gen_src[g])
                   for g in shape.gens}:
        raise SchemaError(f"gens {gens_ep!r} are not the shape's")
    if set(groupoids) != set(objects):
        raise SchemaError(f"groupoids on {list(groupoids)!r} are not on the "
                          "shape's objects")
    if kind == "finite":
        return d
    d = from_generators(shape, gens, groupoids, braidings)
    d.selfsim = selfsim
    return d


def at_least(name, v, low):
    """v if it is an integer >= low; else exit 2."""
    if type(v) is not int or v < low:
        raise SchemaError(f"{name} must be an integer >= {low}, got {v!r}")
    return v


def mn_params(m, n, depth=0):
    """The (m, n) of an mn request, checked with its depth; else exit 2."""
    for name, v, low in (("m", m, 1), ("n", n, 1), ("depth", depth, 0)):
        at_least(name, v, low)
    return m, n


# top-level kind -> its constructor, taking _values; mn, which has no
# layout, reads its payload.  A group is only nested, and made by Group.
KINDS = {"category": FinCategory,
         "groupoid": lambda cat, inv: FinGroupoid(*cat, inv),
         "correspondence": Correspondence, "diagram": _diagram,
         "complex_of_groups": cgxmod.ComplexOfGroups,
         "selfsimilar": SelfSimilarData,
         "mn": lambda payload: mn_params(payload["m"], payload["n"]),
         "action": lambda d, *fields: (d, FAction(d, *fields))}
# fields that a document may leave out (read as None): the writer's OMIT
OPTIONAL = ("braidings", "selfsimilar")


def envelope(kind, payload):
    return {"format_version": FORMAT_VERSION, "kind": kind,
            "payload": payload}


def dumps(doc):
    """``json.dumps(doc, indent=1) + "\\n"``, byte for byte."""
    try:
        return _write(doc, "\n") + "\n"
    except RecursionError:   # circular, or deeper than _write can go
        return json.dumps(doc, indent=1) + "\n"


def _write(value, nl):
    """value as indented JSON closing at nl: the document grammar here,
    twice as fast as json's indenting encoder, and the rest by json."""
    if isinstance(value, str):
        return _escape(value)
    if type(value) is int:
        return repr(value)
    inner = nl + " "
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join(
            [_write(v, inner) for v in value]) + nl + "]"
    if isinstance(value, dict) and value and \
            all(isinstance(k, str) for k in value):
        return "{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _write(v, inner)
             for k, v in value.items()]) + nl + "}"
    return json.dumps(value, indent=1).replace("\n", nl)


def write_document(kind, value):
    """dumps(envelope(kind, payload_of(kind, value))), without the payload."""
    try:
        text = _text(kind, value, "\n ")
    except RecursionError:   # deeper than the walker goes: dumps decides
        return dumps(envelope(kind, payload_of(kind, value)))
    return (f'{{\n "format_version": {_escape(FORMAT_VERSION)},\n '
            f'"kind": {_escape(kind)},\n "payload": {text}\n}}\n')


def _text(how, x, nl):
    """_write(_build(how, x), nl), without _build."""
    if how is ENC:
        return _value_text(x, nl)
    inner = nl + " "
    deeper = inner + " "
    if how in LAYOUTS:
        return "{" + inner + ("," + inner).join(
            [f"{_escape(key)}: {_text(h, v, inner)}"
             for key, h, v in _fields(how, x)]) + nl + "}"
    if how is RAW:
        return _write(x, nl)
    if how is LIST:
        items = [_value_text(v, inner) for v in x]
    else:
        write = _value_text if how is PAIRS else partial(_text, how[1])
        items = [f"[{deeper}{_value_text(k, deeper)},{deeper}"
                 f"{write(v, deeper)}{inner}]" for k, v in
                 sorted(x.items(), key=_key_repr if how is PAIRS else repr)]
    return "[" + inner + ("," + inner).join(items) + nl + "]" if items \
        else "[]"


def _value_text(x, nl):
    """_write(_enc(x), nl), without _enc."""
    if type(x) is str:
        return _escape(x)
    if type(x) is int:
        return repr(x)
    if isinstance(x, tuple) and x:
        inner = nl + " "
        deeper = inner + " "
        items = [_escape(v) if type(v) is str else repr(v)
                 if type(v) is int else _value_text(v, deeper) for v in x]
        return (f'[{inner}"t",{inner}[{deeper}' + ("," + deeper).join(items)
                + f"{inner}]{nl}]")
    return _write(_enc(x), nl)


def parse_document(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(str(exc))
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise SchemaError("missing format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {doc['format_version']!r}")
    kind = doc.get("kind")
    if type(kind) is not str or kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    if "payload" not in doc:
        raise SchemaError("missing payload")
    return kind, doc["payload"]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise ParseError(str(exc))


def value_of(kind, payload):
    if kind not in KINDS:
        raise SchemaError(f"no loader for kind {kind!r}")
    try:
        return KINDS[kind](*_values(kind, payload)) if kind in LAYOUTS \
            else KINDS[kind](payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {kind} payload: {exc}")


# -- normal-form and word grammar for the selfsim commands --------------------

def parse_word(data, text):
    """A path: dot-separated edges, 'e' for empty, with '@v' if needed."""
    vertex = None
    if "@" in text:
        text, vtext = text.split("@", 1)
        vertex = vtext
    letters = () if text in ("e", "") else tuple(text.split("."))
    for e in letters:
        if e not in data.edges:
            raise ParseError(f"unknown letter {e!r}")
    if vertex is not None and vertex not in data.vertices:
        raise ParseError(f"unknown vertex {vertex!r}")
    return data.path(letters, vertex)


def parse_nf(data, text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"normal form must be w1:g:w2, got {text!r}")
    if parts[1] not in data.group.elements:
        raise ParseError(f"unknown group element {parts[1]!r} in {text!r}")
    w1 = parse_word(data, parts[0])
    w2 = parse_word(data, parts[2])
    return nf(data, w1.edges, parts[1], w2.edges, rv1=w1.rv, rv2=w2.rv)


def parse_point(data, text):
    if "|" not in text:
        raise ParseError(f"point must be pre|per, got {text!r}")
    pre_t, per_t = text.split("|", 1)
    pre = parse_word(data, pre_t)
    per = parse_word(data, per_t)
    return data.ev(pre.edges, per.edges, pre.rv)


def show_word(w):
    return ".".join(str(e) for e in w.edges) if w.edges else "e"


def show_nf(t):
    if t.zero:
        return "0"
    return f"{show_word(t.w1)}:{t.g}:{show_word(t.w2)}"


def show_point(z):
    return f"{'.'.join(map(str, z.pre)) if z.pre else 'e'}|" + \
        ".".join(map(str, z.per))


# -- commands ------------------------------------------------------------------

def emit(args, text_lines, json_obj):
    if args.json:
        sys.stdout.write(dumps(json_obj))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def refused(args, report):
    """Print a non-empty validation report; whether there was one."""
    if report:
        emit(args, report, {"ok": False, "report": report})
    return bool(report)


# kind -> its validator; a complex's gives (report, flags)
VALIDATORS = {
    "category": validate_category, "groupoid": validate_groupoid,
    "correspondence": validate_correspondence,
    "diagram": lambda d: validate_diagram(d) + (
        [] if d.selfsim is None else d.selfsim.validate()),
    "complex_of_groups": cgxmod.validate_cgx,
    "selfsimilar": SelfSimilarData.validate,
    "mn": lambda mn: validate_diagram(mnmod.make_emn(*mn)),
    "action": lambda da: validate_diagram(da[0]) or validate_action(*da)}


def cmd_validate(args):
    kind, payload = load(args.path)
    report, flags = VALIDATORS[kind](value_of(kind, payload)), {}
    if kind == "complex_of_groups":
        report, flags = report
    lines = ["OK"] if not report else report
    lines += [f"note: {k} = {v}" for k, v in sorted(flags.items())]
    emit(args, lines, {"ok": not report, "report": report,
                       "flags": _pairs(flags)})
    return 0 if not report else 1


def cmd_compose(args):
    kind1, p1 = load(args.path)
    kind2, p2 = load(args.path2)
    if kind1 != "correspondence" or kind2 != "correspondence":
        raise SchemaError("compose expects two correspondence documents")
    c1, c2 = value_of(kind1, p1), value_of(kind2, p2)
    if refused(args, validate_correspondence(c1)) or \
            refused(args, validate_correspondence(c2)):
        return 1
    sys.stdout.write(write_document("correspondence", compose(c1, c2)))
    return 0


# shape -> (model construction, first line of its report)
GROUPOID_MODELS = {
    "discrete": (model_discrete_shape,
                 "disjoint union groupoid: {} arrows, {} objects"),
    "group": (model_group_shape, "graded groupoid: {} arrows over {} objects"),
}


def cmd_model(args):
    kind, payload = load(args.path)
    if kind == "complex_of_groups":
        c = value_of(kind, payload)
        if refused(args, cgxmod.validate_cgx(c)[0]):
            return 1
        pres = cgxmod.model_presentation(c)
        pi1 = cgxmod.fundamental_group(c)
        lines = ["groupoid presentation:"]
        lines += [f"  object {x!r}" for x in pres.objects]
        lines += [f"  gen {sym!r}: {ep!r}"
                  for sym, ep in sorted(pres.generators.items(), key=repr)]
        lines += [f"  rel {r!r}" for r in pres.relators]
        lines.append("fundamental group:")
        lines += [f"  gen {sym!r}" for sym in pi1.generators]
        lines += [f"  rel {r!r}" for r in pi1.relators]
        if args.verify:
            d, pm = cgxmod.presentation_model(c)
            verify_model(d, pm, args.verify)
            lines.append(f"verify({args.verify}): OK")
        emit(args, lines, {"ok": True, "lines": lines})
        return 0
    if kind == "mn":
        return mn_report(args, *value_of(kind, payload),
                         at=f" at depth {args.depth}", head={"ok": True})
    if kind != "diagram":
        raise SchemaError(f"model does not handle kind {kind!r}")
    d = value_of(kind, payload)
    if d.selfsim is not None and refused(args, d.selfsim.validate()):
        return 1
    shape = d.shape
    groupoid_model = GROUPOID_MODELS.get(shape.kind if shape.gens
                                         else "discrete")
    if groupoid_model is not None:
        make, head = groupoid_model
        model = make(d)
        lines = [head.format(len(model.groupoid),
                             len(model.groupoid.objects))]
        if args.verify:
            verify_model(d, model, args.verify)
            lines.append(f"verify({args.verify}): OK")
        emit(args, lines, {"ok": True, "lines": lines,
                           "groupoid": groupoid_payload(model.groupoid)})
        return 0
    if shape.kind == "free" and len(shape.gens) == 1:
        om = OreUniversal(d, depth=args.depth)
        pm = pair_groupoid_model(d)
        points = om.points(1, 1)
        arrows = pm.arrows_over(points, word_len=1)
        grades = {}
        for p in arrows:
            grades[p.grade()] = grades.get(p.grade(), 0) + 1
        lines = [f"universal action: {om.status}",
                 f"sample points: {len(points)}",
                 "pair arrows per grade: " + ", ".join(
                     f"{k}: {grades[k]}" for k in sorted(grades))]
        if args.verify:
            if len(points) == 1 and len(d.X(d.gen_arrows()[0])) == 1:
                t = d.gen_arrows()[0]
                xi = d.X(t).carrier[0]
                zp = PresentationModel(
                    d, list(d.gr[shape.objects[0]].objects),
                    {"T": ("*", "*")}, [], {"T": ("alph", t, xi)})
                verify_model(d, zp, args.verify)
                lines.append(f"verify({args.verify}): OK "
                             "(free group on one generator)")
            else:
                lines.append(f"verify({args.verify}): skipped "
                             "(no finite presentation at this depth)")
        emit(args, lines, {"ok": True, "lines": lines})
        return 0
    if d.is_tight():
        if not args.effective_quotient:
            raise NotSupported(
                "no exact model for this shape; the diagram is tight, so "
                "pass --effective-quotient for the germ groupoid of the "
                "unit-space action")
        omega = tight_universal_action(d)
        thetas = singleton_thetas(d, omega)
        gg = germ_groupoid({repr(k): v for k, v in thetas.items()},
                           omega.carrier)
        lines = ["warning: non-Ore shape, emitting the effective quotient "
                 "of the unit-space action only",
                 f"germ groupoid: {len(gg.arrows())} arrows on "
                 f"{len(gg.carrier)} objects"]
        emit(args, lines, {"ok": True, "lines": lines})
        return 0
    raise NotSupported(f"no model construction for shape kind {shape.kind!r}")


# subcommand -> its operands in order: n a normal form, p a point
SELFSIM_OPERANDS = {"effective": "", "nf-mul": "nn", "act": "np",
                    "germ": "nnp", "slices": "nn"}


def cmd_selfsim(args):
    kind, payload = load(args.path)
    if kind != "selfsimilar":
        raise SchemaError("selfsim expects a selfsimilar document")
    data = value_of(kind, payload)
    operands = SELFSIM_OPERANDS.get(args.sub)
    if operands is not None and len(args.args) != len(operands):
        raise ParseError(f"selfsim {args.sub} takes {len(operands)} "
                         f"arguments, got {len(args.args)}")
    if refused(args, data.validate()):
        return 1
    if operands is None:
        raise SchemaError(f"unknown selfsim subcommand {args.sub!r}")
    ops = [(parse_nf if c == "n" else parse_point)(data, text)
           for c, text in zip(operands, args.args)]
    if args.sub == "effective":
        res = effective_check(data)
        if res.effective:
            emit(args, ["EFFECTIVE"], {"effective": True})
        else:
            emit(args, [f"NOT EFFECTIVE witness={res.witness}"],
                 {"effective": False, "witness": _enc(res.witness)})
    elif args.sub == "nf-mul":
        t = nf_mul(*ops)
        emit(args, [show_nf(t)], {"result": show_nf(t)})
    elif args.sub == "act":
        try:
            out = act_on_word(*ops)
        except Undefined:
            emit(args, ["undefined"], {"result": None})
            return 0
        emit(args, [show_point(out)], {"result": show_point(out)})
    elif args.sub == "germ":
        ans = germ_equal(*ops)
        emit(args, ["EQUAL" if ans else "DISTINCT"], {"equal": ans})
    else:
        pieces = slice_intersections(*ops, depth=args.depth)
        lines = [show_nf(s) for s in pieces] or ["EMPTY"]
        emit(args, lines, {"pieces": [show_nf(s) for s in pieces]})
    return 0


def cmd_cgx(args):
    kind, payload = load(args.path)
    if kind != "complex_of_groups":
        raise SchemaError("cgx expects a complex_of_groups document")
    c = value_of(kind, payload)
    if args.sub == "pi1":
        p = cgxmod.fundamental_group(c)
    elif args.sub == "isotropy":
        p = cgxmod.isotropy_at_infinity(c)
    elif args.sub == "homs":
        n = at_least("n", args.n, 0)
        count = cgxmod.count_homs(cgxmod.fundamental_group(c), n)
        emit(args, [str(count)], {"count": count})
        return 0
    else:
        raise SchemaError(f"unknown cgx subcommand {args.sub!r}")
    lines = [f"gen {sym!r}" for sym in p.generators]
    lines += [f"rel {r!r}" for r in p.relators]
    emit(args, lines, {"generators": [repr(s) for s in p.generators],
                       "relators": [repr(r) for r in p.relators]})
    return 0


def mn_report(args, m, n, at="", head=None):
    """Configurations and groupoid arrows of E_{m,n} at --depth."""
    m, n = mn_params(m, n, args.depth)
    configs, arrows = mnmod.omega_counts(m, n, args.depth)
    emit(args, [f"configurations{at}: {configs}", f"arrows{at}: {arrows}"],
         {**(head or {}), "configs": configs, "arrows": arrows})
    return 0


def cmd_mn(args):
    return mn_report(args, args.m, args.n)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gpdcorr",
        description="exact computation with finite groupoid correspondences")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--verify", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate")
    p.add_argument("path")
    common(p)
    p = sub.add_parser("compose")
    p.add_argument("path")
    p.add_argument("path2")
    common(p)
    p = sub.add_parser("model")
    p.add_argument("path")
    p.add_argument("--effective-quotient", action="store_true")
    common(p)
    p = sub.add_parser("selfsim")
    p.add_argument("path")
    p.add_argument("sub")
    p.add_argument("args", nargs="*")
    common(p)
    p = sub.add_parser("cgx")
    p.add_argument("path")
    p.add_argument("sub")
    p.add_argument("-n", type=int, default=3)
    common(p)
    p = sub.add_parser("mn")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    common(p)
    return parser


COMMANDS = {"validate": cmd_validate, "compose": cmd_compose,
            "model": cmd_model, "selfsim": cmd_selfsim, "cgx": cmd_cgx,
            "mn": cmd_mn}
_parser = None                  # built by the first call of main


def main(argv=None):
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return COMMANDS[args.command](args)
    except (ParseError, SchemaError, NotSupported, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (BoundExceeded, DepthInsufficient) as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return 3
    except (Mismatch, HexagonViolation) as exc:
        sys.stderr.write(f"violation: {exc}\n")
        return 1
    except (GpdError, LookupError, TypeError, ValueError) as exc:
        sys.stderr.write(f"error: malformed input: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads as job lists.

A job is one call into the library (or one CLI request) with a key that
names its instance; the expected digest of every key is pinned in
``bench/expected.json``.  Building a workload is its set-up: it
constructs every diagram, model, presentation and document the jobs
use, so that the timed jobs only run the searches.

Job functions look library functions up on the module at call time
(``P.diagram.enumerate_actions``), so that the traced run's wrappers,
which replace module attributes, see every call.
"""

import contextlib
import io
import os
import shutil

from . import corpus as C
from . import instances as I
from .digest import actions_digest, h, h_bytes, h_json, h_set


class Job:
    __slots__ = ("key", "layer", "run", "digest", "sweep")

    def __init__(self, key, layer, run, digest=h, sweep=None):
        self.key = key          # names the instance and its pinned digest
        self.layer = layer      # the module the job exercises
        self.run = run          # the timed call
        self.digest = digest    # result -> digest, computed untimed
        self.sweep = sweep      # (function, size) for per-size traced times


def _outcome(P, d, model, n):
    try:
        return repr(P.model.verify_model(d, model, n))
    except P.errors.Mismatch:
        return "Mismatch"


def _same(value):
    return value


def _thin(items, cap):
    """At most ``cap`` items spread evenly over the list, in order."""
    step = max(1, -(-len(items) // cap))
    return items[::step]


# -- actions ------------------------------------------------------------------

def actions(P, pick, ctx=None):
    jobs = []

    def enum(name, d, n, sweep=False):
        jobs.append(Job(f"enumerate_actions/{name}/n{n}", "diagram",
                        lambda: P.diagram.enumerate_actions(d, n),
                        actions_digest,
                        ("enumerate_actions", f"n{n}") if sweep else None))

    swap = C.swap_diagram(P)
    for n in (4, 5, 6):          # dedupe-heavy: actions_isomorphic at n = 6
        enum("swap", swap, n, sweep=True)
    disc = C.discrete(P, (2,))
    for n in (4, 5):
        enum("disc-z2", disc, n)
    e13, e23 = P.mn.make_emn(1, 3), P.mn.make_emn(2, 3)
    for n in (5, 6):             # prune-heavy: only the empty action exists
        enum("emn-1-3", e13, n)
    enum("emn-2-3", e23, 5)
    enum("broken-graph", C.broken_graph_diagram(P), 5)
    for m in pick(I.SPACE_MAPS, 3):
        enum("space-" + I.space_key(m),
             C.one_generator(P, I.space_corr(P, m)), 4)
    for m in pick(I.ENDOS, 2):
        enum("endo-" + I.endo_key(m),
             C.one_generator(P, I.hom_corr(P, m[0], m[0], m[1])), 3)
    tight = {"swap": swap, "graded-1": C.graded_diagram(P, "1"),
             "graded-a": C.graded_diagram(P, "a"), "disc-z2": disc,
             "edge": C.edge_diagram(P)}
    for name, d in tight.items():
        omega = P.model.tight_universal_action(d)
        jobs.append(Job(f"check_terminal/{name}/n4", "model",
                        lambda d=d, omega=omega:
                            P.model.check_terminal(d, omega, 4)))
    return jobs


# -- verify -------------------------------------------------------------------

def verify(P, pick, ctx=None):
    jobs = []

    def check(name, d, model, n, sweep=False):
        jobs.append(Job(f"verify_model/{name}/n{n}", "model",
                        lambda: _outcome(P, d, model, n), _same,
                        ("verify_model", f"n{n}") if sweep else None))

    disc = C.discrete(P, (2, 3))
    disc_model = P.model.model_discrete_shape(disc)
    for n in (3, 4):             # the naturality loop over k2**k1 maps
        check("disc-z2-z3", disc, disc_model, n, sweep=True)
    graded = C.graded_diagram(P, "a")
    check("graded-a", graded, P.model.model_group_shape(graded), 4)
    pt = C.point_diagram(P)
    check("point-Z", pt, C.zpres(P, pt), 4)
    check("point-Z2", pt, C.zpres(P, pt, [(("T", 1), ("T", 1))]), 4)
    for name, make in C.COMPLEXES.items():
        d, model = P.cgx.presentation_model(make(P))
        check(f"cgx-{name}", d, model, 3)
    for orders in pick(I.DISC_ORDERS, 2):
        d = C.discrete(P, orders)
        check("disc-" + "-".join(f"z{o}" for o in orders), d,
              P.model.model_discrete_shape(d), 3)
    for k in pick(I.POINT_RELATORS, 1):
        check(f"point-T^{k}", pt, C.zpres(P, pt, [(("T", 1),) * k]), 3)
    for twist in pick(I.GRADED_TWISTS, 1):
        d = C.graded_diagram(P, twist)
        check(f"graded-{twist}", d, P.model.model_group_shape(d), 3)
    return jobs


# -- algebra ------------------------------------------------------------------

def _payload(P):
    return lambda c: h_json(P.cli.correspondence_payload(c))


def _presentation(p):
    return h((p.generators, p.relators))


def _show(value):
    """An exact repr; normal forms by their key, which names vertices."""
    if isinstance(value, list):
        return repr([_show(v) for v in value])
    if hasattr(value, "zero") and hasattr(value, "key"):
        return repr(value.key())
    return repr(value)


def word_text(data, w):
    """A path in the CLI grammar; empty paths name their vertex."""
    if w.edges:
        return ".".join(w.edges)
    return "e" if len(data.vertices) == 1 else f"e@{w.rv}"


def nf_text(data, t):
    return f"{word_text(data, t.w1)}:{t.g}:{word_text(data, t.w2)}"


def point_text(data, z):
    pre = ".".join(z.pre) if z.pre else \
        ("e" if len(data.vertices) == 1 else f"e@{z.rv}")
    return f"{pre}|{'.'.join(z.per)}"


def _act(P, t, z):
    try:
        return repr(P.selfsim.act_on_word(t, z))
    except P.errors.Undefined:
        return "undefined"


def representation_check(P, data, nfs, max_len):
    """Criterion 6 on words: t1.t2 acts as the composite partial map.

    Returns the number of words on which the product is defined; any
    disagreement is returned as a failure string.
    """
    act = P.selfsim.act_on_word
    Undefined = P.errors.Undefined
    words = [z for n in range(max_len + 1) for z in data.paths(n)]
    defined = 0
    for t1 in nfs:
        for t2 in nfs:
            prod = P.selfsim.nf_mul(t1, t2)
            for z in words:
                try:
                    composite = act(t1, act(t2, z))
                except Undefined:
                    composite = None
                try:
                    direct = None if prod.zero else act(prod, z)
                except Undefined:
                    direct = None
                if direct != composite:
                    return f"differs at {t1!r} {t2!r} {z!r}"
                defined += direct is not None
    return defined


def identities(P, nfs1, nfs2):
    """Criterion 6 algebra: inverse-semigroup identities of normal forms."""
    mul = P.selfsim.nf_mul
    count = 0
    for t in nfs2:
        if mul(mul(t, t.star()), t) != t or t.star().star() != t:
            return f"regularity fails at {t!r}"
        count += 1
    for t1 in nfs1:
        for t2 in nfs1:
            if mul(t1, t2).star() != mul(t2.star(), t1.star()):
                return f"star fails at {t1!r} {t2!r}"
            for t3 in nfs1:
                if mul(mul(t1, t2), t3) != mul(t1, mul(t2, t3)):
                    return f"associativity fails at {t1!r} {t2!r} {t3!r}"
                count += 1
    return count


def pair_vs_germs(P, data, d):
    """Criterion 5: the pair model and the germ groupoid agree on arrows."""
    pm = P.model.pair_groupoid_model(d, depth=4)
    points = C.rational_points(data, 1, 1)
    nfs = C.all_nfs(P, data, 1)
    unit = P.selfsim.nf_unit(data)
    Undefined = P.errors.Undefined

    def apply(t, z):
        try:
            return P.selfsim.act_on_word(t, z)
        except Undefined:
            return None

    tg = P.groupoid.transformation_groupoid(
        nfs, P.selfsim.nf_mul, apply,
        lambda t1, t2, z: P.selfsim.germ_equal(t1, t2, z),
        points, lambda z: unit)
    counts = []
    for z in points:
        usable = [t for t in nfs if data.ev_starts_with(z, t.w2)]
        pairs = [P.model.pair_from_nf(data, t, z) for t in usable]
        arrows = {tg.arrow(t, z) for t in usable}
        for i, t1 in enumerate(usable):
            for j, t2 in enumerate(usable):
                if (tg.arrow(t1, z) == tg.arrow(t2, z)) != \
                        pm.equal(pairs[i], pairs[j]):
                    return f"disagree at {t1!r} {t2!r} {z!r}"
        counts.append(len(arrows))
    return tuple(counts)


def germ_groupoid_of(P, data, length):
    """The germ groupoid of the normal forms acting on words of a length."""
    words = data.paths(length)
    thetas = {}
    for u in C.all_nfs(P, data, 1):
        if u.zero:
            continue
        image = {}
        for w in words:
            try:
                image[w] = P.selfsim.act_on_word(u, w)
            except P.errors.Undefined:
                continue
        thetas[repr(u.key())] = P.groupoid.PartialBijection(image)
    return P.groupoid.germ_groupoid(thetas, words)


def algebra(P, pick, ctx=None):
    jobs = []

    # cgx: presentations and homomorphism counts
    for name, make in C.COMPLEXES.items():
        c = make(P)
        jobs.append(Job(f"fundamental_group/{name}", "cgx",
                        lambda c=c: P.cgx.fundamental_group(c),
                        _presentation))
        jobs.append(Job(f"isotropy_at_infinity/{name}", "cgx",
                        lambda c=c: P.cgx.isotropy_at_infinity(c),
                        _presentation))
        p = P.cgx.fundamental_group(c)
        for n in (2, 3, 4, 5):
            jobs.append(Job(f"count_homs/{name}/n{n}", "cgx",
                            lambda p=p, n=n: P.cgx.count_homs(p, n), _same,
                            ("count_homs", f"n{n}") if name == "twist"
                            else None))

    # corr and selfsim.iterate over E1 and the graph
    datas = {"e1": C.e1(P), "graph": C.graph(P)}
    for name, data in datas.items():
        its = {k: P.selfsim.iterate(data, k) for k in (2, 3, 4, 5, 6)}
        jobs.append(Job(f"iterate/{name}/k6", "selfsim",
                        lambda data=data: P.selfsim.iterate(data, 6),
                        _payload(P)))
        for k in (4, 5, 6):
            jobs.append(Job(f"compose/{name}/k{k}", "corr",
                            lambda c=its[k]: P.corr.compose(c, c),
                            _payload(P),
                            ("compose", f"k{k}") if name == "graph"
                            else None))
        jobs.append(Job(f"compose/{name}/k5-k6", "corr",
                        lambda a=its[5], b=its[6]: P.corr.compose(a, b),
                        _payload(P)))
        for ks in ((2, 2, 2), (3, 3, 2)):
            jobs.append(Job(f"associator/{name}/k" +
                            "-".join(map(str, ks)), "corr",
                            lambda cs=[its[k] for k in ks]:
                                P.corr.associator(*cs),
                            lambda r, pl=_payload(P): h((pl(r[0]), pl(r[1]),
                                                         r[2]))))
        for k in (3, 4):
            c = its[k]
            jobs.append(Job(f"classify/{name}/k{k}", "corr",
                            lambda c=c: P.corr.classify(c)))
            jobs.append(Job(f"morita_check/{name}/k{k}", "corr",
                            lambda c=c: P.corr.morita_check(c)))
            jobs.append(Job(f"validate_correspondence/{name}/k{k}", "corr",
                            lambda c=c: P.corr.validate_correspondence(c)))
    for chain in pick(I.HOM_CHAINS, 8):
        orders, js = chain
        cs = [I.hom_corr(P, a, b, j)
              for (a, b), j in zip(zip(orders, orders[1:]), js)]
        jobs.append(Job("associator/" + I.chain_key(chain), "corr",
                        lambda cs=cs: P.corr.associator(*cs),
                        lambda r, pl=_payload(P): h((pl(r[0]), pl(r[1]),
                                                     r[2]))))

    # selfsim: normal-form algebra, the word representation, germs
    e2 = C.e2(P)
    nfs1 = {name: C.all_nfs(P, data, 1) for name, data in datas.items()}
    for name, data in datas.items():
        nfs2 = C.all_nfs(P, data, 2)
        jobs.append(Job(f"nf_identities/{name}", "selfsim",
                        lambda a=nfs1[name], b=nfs2: identities(P, a, b),
                        _same))
    jobs.append(Job("representation/e1/len5", "selfsim",
                    lambda: representation_check(P, datas["e1"],
                                                 nfs1["e1"], 5), _same))
    jobs.append(Job("representation/graph/len3", "selfsim",
                    lambda: representation_check(P, datas["graph"],
                                                 nfs1["graph"], 3), _same))
    for name, data in (("e1", datas["e1"]), ("e2", e2)):
        d = C.selfsim_diagram(P, data)
        jobs.append(Job(f"pair_vs_germs/{name}", "model",
                        lambda data=data, d=d: pair_vs_germs(P, data, d),
                        _show))
        jobs.append(Job(f"effective_check/{name}", "selfsim",
                        lambda data=data: P.selfsim.effective_check(data),
                        _show))
    jobs.append(Job("germ_groupoid/e2/len3", "groupoid",
                    lambda: len(germ_groupoid_of(P, e2, 3).arrows())))
    seeded = {"nf_mul": [], "act_on_word": [], "germ_equal": [],
              "slice_intersections": []}
    for name, data in (("e1", datas["e1"]), ("e2", e2),
                       ("graph", datas["graph"])):
        nfs = nfs1.get(name) or C.all_nfs(P, data, 1)
        points = C.rational_points(data, 1, 2)
        for t1 in nfs:
            for t2 in nfs:
                seeded["nf_mul"].append((name, t1, t2))
                seeded["slice_intersections"].append((name, t1, t2))
                for z in points:
                    if data.ev_starts_with(z, t1.w2) and \
                            data.ev_starts_with(z, t2.w2):
                        seeded["germ_equal"].append((name, t1, t2, z))
            for z in points:
                seeded["act_on_word"].append((name, t1, z))
    counts = {"nf_mul": 24, "act_on_word": 24, "germ_equal": 24,
              "slice_intersections": 12}
    run = {"nf_mul": lambda a: P.selfsim.nf_mul(*a),
           "act_on_word": lambda a: _act(P, *a),
           "germ_equal": lambda a: P.selfsim.germ_equal(*a),
           "slice_intersections":
               lambda a: P.selfsim.slice_intersections(*a)}
    texts = {"e1": datas["e1"], "e2": e2, "graph": datas["graph"]}
    for fn, pool in seeded.items():
        for item in pick(_thin(pool, 160), counts[fn]):
            data = texts[item[0]]
            args = " ".join(point_text(data, a) if hasattr(a, "per")
                            else nf_text(data, a) for a in item[1:])
            jobs.append(Job(f"{fn}/{item[0]}/{args}", "selfsim",
                            lambda a=item[1:], f=run[fn]: f(a), _show))

    # fincat: Ore conditions and completions
    PS = P.fincat.PresentedShape
    shapes = {f"comm-{k}": PS.free_commutative(tuple(f"a{i}"
                                                     for i in range(k)))
              for k in (1, 2, 3)}
    shapes["group-z2"] = PS.group_shape(C.z2_category(P))
    shapes["free-ab"] = PS.free_monoid(("a", "b"))
    for name, shape in shapes.items():
        jobs.append(Job(f"ore_check/{name}", "fincat",
                        lambda s=shape: P.fincat.ore_check(s, 4),
                        lambda r: h((r.status, r.witness))))
    for name, shape, bound in (
            ("free-t", PS.free_monoid(("t",), 5), 5),
            ("idempotent", PS.finite(C.idempotent_monoid(P)), 2)):
        jobs.append(Job(f"groupoid_completion/{name}", "fincat",
                        lambda s=shape, b=bound:
                            P.fincat.groupoid_completion(s, bound=b),
                        lambda r: h(len(r.classes))))

    # mn: depth-truncated configuration spaces
    for args in ((1, 1, 4), (1, 2, 3), (2, 2, 3), (2, 2, 4)):
        jobs.append(Job("omega_depth/" + ",".join(map(str, args)), "mn",
                        lambda a=args: P.mn.omega_depth(*a),
                        lambda r: h_set(repr(sorted(c)) for c in r)))
    return jobs


# -- cli ----------------------------------------------------------------------

class CliContext:
    """Where the CLI workload writes its documents, and its clean-up."""

    def __init__(self, root):
        self.root = root
        self.docs = os.path.join(root, "bench", "out",
                                 f"docs-{os.getpid()}")

    def path(self, name):
        return os.path.relpath(os.path.join(self.docs, name))

    def close(self):
        shutil.rmtree(self.docs, ignore_errors=True)


def run_cli(P, argv):
    """One in-process request: (exit code, stdout, stderr) as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = P.cli.main(list(argv))
    return (code, out.getvalue().encode(), err.getvalue().encode())


def _cli_digest(r):
    return h_bytes(str(r[0]).encode(), r[1], r[2])


def _swap_action(P, d):
    t = ("*", "*", ("t",))
    alph = {t: {((("x", v),), v): 1 - v for v in (0, 1)}}
    gact = {(("u", v), v): v for v in (0, 1)}
    return P.diagram.FAction(d, (0, 1), {0: "*", 1: "*"}, {0: 0, 1: 1},
                             gact, alph)


def write_documents(P, ctx):
    """Write every document the requests read, then parse each back."""
    cli = P.cli
    e1, e2, gr = C.e1(P), C.e2(P), C.graph(P)
    swap = C.swap_diagram(P)
    docs = {
        "category.json": ("category", cli.category_payload(C.z2_category(P))),
        "groupoid.json": ("groupoid",
                          cli.groupoid_payload(C.cyclic_groupoid(P, 3))),
        "corr.json": ("correspondence",
                      cli.correspondence_payload(P.selfsim.iterate(e1, 1))),
        "corr64.json": ("correspondence",
                        cli.correspondence_payload(P.selfsim.iterate(e1, 5))),
        "point.json": ("diagram", cli.diagram_payload(C.point_diagram(P))),
        "disc.json": ("diagram", cli.diagram_payload(C.discrete(P, (2,)))),
        "nonore.json": ("diagram",
                        cli.diagram_payload(C.non_ore_tight_diagram(P))),
        "e1diag.json": ("diagram", cli.diagram_payload(
            C.selfsim_diagram(P, e1, bound=2))),
        "e1.json": ("selfsimilar", cli.selfsimilar_payload(e1)),
        "e2.json": ("selfsimilar", cli.selfsimilar_payload(e2)),
        "graph.json": ("selfsimilar", cli.selfsimilar_payload(gr)),
        "mn.json": ("mn", {"m": 1, "n": 2}),
        "action.json": ("action", cli.action_payload(swap,
                                                     _swap_action(P, swap))),
    }
    for name, make in C.COMPLEXES.items():
        docs[f"cx-{name}.json"] = ("complex_of_groups",
                                   cli.complex_payload(make(P)))
    os.makedirs(ctx.docs, exist_ok=True)
    for name, (kind, payload) in docs.items():
        with open(os.path.join(ctx.docs, name), "w", encoding="utf-8") as f:
            f.write(cli.dumps(cli.envelope(kind, payload)))
    for name in docs:
        kind, payload = cli.load(os.path.join(ctx.docs, name))
        cli.value_of(kind, payload)
    return sorted(docs)


# Requests per pass.  Light classes draw their members from a pool of
# requests that each take 1-4 ms; the medium, heavy and compose classes
# send every member of their pool the given number of times.  With 202
# requests the p95 rank is the 11th/12th slowest, inside the twelve
# heavy requests (about 55 ms each) and clear of the two composes above
# them, and the p50 rank lies inside the light band; so neither rank
# sits on a boundary between two classes for any seed.
CLI_LIGHT = {"validate": 40, "nf-mul": 30, "act": 25, "germ": 25,
             "slices": 20, "effective": 6, "cgx": 16, "mn": 10, "model": 10}
CLI_FIXED = {"medium": 1, "heavy": 6, "compose": 2}


def cli_pools(P, ctx, names):
    """Every request the CLI workload may send, grouped by class."""
    p = ctx.path
    pools = {k: [] for k in list(CLI_LIGHT) + list(CLI_FIXED)}
    for name in names:
        if name != "corr64.json":
            for flag in ((), ("--json",)):
                pools["validate"].append(("validate", p(name)) + flag)
    # a malformed normal form: the usage-error path, exit code 2
    pools["nf-mul"].append(("selfsim", p("e1.json"), "nf-mul", "e:a",
                            "e:a:e"))
    for doc, data in (("e1.json", C.e1(P)), ("e2.json", C.e2(P)),
                      ("graph.json", C.graph(P))):
        nfs = C.all_nfs(P, data, 1)
        pts = C.rational_points(data, 1, 2)
        for t1 in nfs:
            a = nf_text(data, t1)
            for t2 in nfs:
                b = nf_text(data, t2)
                pools["nf-mul"].append(("selfsim", p(doc), "nf-mul", a, b))
                pools["slices"].append(("selfsim", p(doc), "slices", a, b))
                for z in pts:
                    if data.ev_starts_with(z, t1.w2) and \
                            data.ev_starts_with(z, t2.w2):
                        pools["germ"].append(
                            ("selfsim", p(doc), "germ", a, b,
                             point_text(data, z)))
            for z in pts:
                pools["act"].append(("selfsim", p(doc), "act", a,
                                     point_text(data, z)))
        pools["effective"].append(("selfsim", p(doc), "effective"))
        pools["effective"].append(("selfsim", p(doc), "effective", "--json"))
    for name in C.COMPLEXES:
        cx = p(f"cx-{name}.json")
        pools["cgx"] += [("cgx", cx, "pi1"), ("cgx", cx, "isotropy"),
                         ("cgx", cx, "homs", "-n", "3")]
    pools["cgx"] += [("cgx", p("cx-loop.json"), "homs", "-n", "4"),
                     ("cgx", p("cx-single_arrow.json"), "homs", "-n", "4")]
    for m, n, depth in ((1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
                        (2, 1, 2), (2, 2, 2)):
        for flag in ((), ("--json",)):
            pools["mn"].append(("mn", str(m), str(n), "--depth", str(depth))
                               + flag)
    pools["model"] += [
        ("model", p("disc.json"), "--verify", "2"),
        ("model", p("disc.json"), "--json"),
        ("model", p("point.json"), "--verify", "2", "--depth", "2"),
        ("model", p("cx-single_arrow.json"), "--verify", "2"),
        ("model", p("cx-single_arrow.json"), "--verify", "3"),
        ("model", p("cx-twist.json"), "--verify", "2"),
        ("model", p("nonore.json"), "--effective-quotient"),
        ("model", p("mn.json"), "--depth", "2")]
    pools["medium"] += [
        ("model", p("disc.json"), "--verify", "3"),
        ("model", p("point.json"), "--verify", "3", "--depth", "2"),
        ("model", p("cx-twist.json"), "--verify", "3"),
        ("mn", "2", "2", "--depth", "3"),
        ("mn", "2", "2", "--depth", "3", "--json"),
        ("cgx", p("cx-free_product.json"), "homs", "-n", "4")]
    pools["heavy"] += [("cgx", p("cx-twist.json"), "homs", "-n", "4"),
                       ("model", p("e1diag.json"), "--depth", "2")]
    pools["compose"].append(("compose", p("corr64.json"), p("corr64.json")))
    return pools


def cli(P, pick, ctx):
    pools = cli_pools(P, ctx, write_documents(P, ctx))
    requests = []
    for cls, pool in pools.items():
        pool = _thin(pool, 160)
        if cls in CLI_FIXED:
            chosen = pool * (CLI_FIXED[cls] if pick.rng is not None else 1)
        else:
            chosen = pick.draw(pool, CLI_LIGHT[cls])
        requests += [(cls, argv) for argv in chosen]
    pick.shuffle(requests)
    docs = os.path.relpath(ctx.docs)
    return [Job(cls + "/" + " ".join(a.replace(docs, "DOCS") for a in argv),
                "cli", lambda argv=argv: run_cli(P, argv), _cli_digest)
            for cls, argv in requests]


WORKLOADS = {"actions": actions, "verify": verify, "algebra": algebra,
             "cli": cli}

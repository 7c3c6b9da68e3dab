"""The benchmark's own copies of the paper corpus constructions.

These mirror the constructions the acceptance criteria use, but live
here so that an edit to the test suite cannot silently change what the
benchmark measures.  Every function takes the loaded program ``P`` and
calls the library through module attributes, so trace wrappers
installed on those attributes see the calls.
"""


def swap_correspondence(P):
    return P.corr.space_correspondence(
        (0, 1), (0, 1), {("x", 0): 1, ("x", 1): 0},
        {("x", 0): 0, ("x", 1): 1}, carrier=[("x", 0), ("x", 1)])


def one_generator(P, corr, bound=2):
    """The free-monoid diagram generated by a single correspondence."""
    shape = P.fincat.PresentedShape.free_monoid(("t",), length_bound=bound)
    return P.diagram.from_generators(shape, {"t": corr})


def swap_diagram(P, bound=2):
    return one_generator(P, swap_correspondence(P), bound)


def point_diagram(P, bound=2):
    pt = P.corr.space_correspondence(("*",), ("*",), {"p": "*"}, {"p": "*"},
                                     carrier=("p",))
    return one_generator(P, pt, bound)


def broken_graph_diagram(P):
    """The one-edge path diagram of criterion 2."""
    shape = P.fincat.PresentedShape.path_category(
        ("L", "R"), {"e": ("L", "R")}, length_bound=2)
    c = P.corr.space_correspondence(("p", "q"), ("m",), {0: "p", 1: "q"},
                                    {0: "m", 1: "m"}, carrier=(0, 1))
    return P.diagram.from_generators(shape, {"e": c})


def edge_diagram(P):
    """The tight one-edge path diagram of criterion 3."""
    shape = P.fincat.PresentedShape.path_category(
        ("L", "R"), {"e": ("L", "R")}, length_bound=2)
    edge = P.corr.space_correspondence(("a", "b"), ("m", "w"),
                                       {0: "a", 1: "b"}, {0: "m", 1: "w"},
                                       carrier=(0, 1))
    return P.diagram.from_generators(shape, {"e": edge})


def cyclic_groupoid(P, n):
    return P.groupoid.FinGroupoid.from_group(P.groupoid.Group.cyclic(n))


def discrete(P, orders):
    """A discrete diagram with one cyclic group per object."""
    return P.diagram.discrete_diagram(
        {"xyzw"[i]: cyclic_groupoid(P, n) for i, n in enumerate(orders)})


def z2_category(P):
    return P.fincat.FinCategory(
        ("*",), {"1": ("*", "*"), "c": ("*", "*")},
        {("1", "1"): "1", ("1", "c"): "c", ("c", "1"): "c",
         ("c", "c"): "1"},
        {"*": "1"})


def idempotent_monoid(P):
    # {1, t | t.t = t}
    return P.fincat.FinCategory(
        ("*",), {"1": ("*", "*"), "t": ("*", "*")},
        {("1", "1"): "1", ("1", "t"): "t", ("t", "1"): "t", ("t", "t"): "t"},
        {"*": "1"})


def graded_diagram(P, twist):
    """The Z/2-shaped diagram over Z/2 with cocycle value ``twist``."""
    z2 = P.groupoid.Group.cyclic(2)
    cat = z2_category(P)
    homs = {a: {"1": "1", "a": "a"} for a in cat.arrow_ids()}
    twists = {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()}
    twists[("c", "c")] = twist
    return P.diagram.from_complex(cat, {"*": z2}, homs, twists)


def zpres(P, d, relators=()):
    """The one-generator presentation model (Z, or a quotient of it)."""
    t = d.gen_arrows()[0]
    xi = d.X(t).carrier[0]
    return P.model.PresentationModel(d, list(d.gr["*"].objects),
                                     {"T": ("*", "*")}, list(relators),
                                     {"T": ("alph", t, xi)})


def non_ore_tight_diagram(P):
    """Two generators (swap, identity) over two points: tight, not Ore."""
    shape = P.fincat.PresentedShape.free_monoid(("a", "b"), length_bound=2)
    ident = P.corr.space_correspondence(
        (0, 1), (0, 1), {("y", v): v for v in (0, 1)},
        {("y", v): v for v in (0, 1)}, carrier=[("y", 0), ("y", 1)])
    return P.diagram.from_generators(
        shape, {"a": swap_correspondence(P), "b": ident})


# -- self-similar data --------------------------------------------------------

def e1(P):
    """Z/2 on {0,1} flipping letters, with constant restriction a|_x = a."""
    eact = {("1", "0"): "0", ("1", "1"): "1", ("a", "0"): "1",
            ("a", "1"): "0"}
    coc = {("1", "0"): "1", ("1", "1"): "1", ("a", "0"): "a",
           ("a", "1"): "a"}
    return P.selfsim.SelfSimilarData.group_alphabet(
        P.groupoid.Group.cyclic(2), ("0", "1"), eact, coc)


def e2(P):
    """Z/2 acting trivially on letters, with constant restriction a."""
    z2 = P.groupoid.Group.cyclic(2)
    eact = {(g, x): x for g in z2 for x in ("0", "1")}
    coc = {("1", "0"): "1", ("1", "1"): "1", ("a", "0"): "a",
           ("a", "1"): "a"}
    return P.selfsim.SelfSimilarData.group_alphabet(z2, ("0", "1"), eact,
                                                    coc)


def graph(P):
    """The self-similar graph: 2 vertices, 3 edges, group Z/2."""
    z2 = P.groupoid.Group.cyclic(2)
    vertices, edges = ("p", "q"), ("x", "y", "z")
    er = {"x": "p", "y": "p", "z": "q"}
    es = {"x": "p", "y": "p", "z": "p"}
    vact = {(g, v): v for g in z2 for v in vertices}
    eact = {("1", "x"): "x", ("1", "y"): "y", ("1", "z"): "z",
            ("a", "x"): "y", ("a", "y"): "x", ("a", "z"): "z"}
    coc = {("1", "x"): "1", ("1", "y"): "1", ("1", "z"): "1",
           ("a", "x"): "1", ("a", "y"): "1", ("a", "z"): "a"}
    return P.selfsim.SelfSimilarData(z2, vertices, edges, er, es, vact,
                                     eact, coc)


def selfsim_diagram(P, data, bound=3):
    d = one_generator(P, P.selfsim.iterate(data, 1), bound)
    d.selfsim = data
    return d


def all_nfs(P, data, max_len):
    """Every normal form with both words of length <= max_len."""
    paths = [p for n in range(max_len + 1) for p in data.paths(n)]
    return [P.selfsim.nf(data, w1.edges, g, w2.edges, rv1=w1.rv, rv2=w2.rv)
            for w1 in paths for g in data.group for w2 in paths
            if data.ps(w1) == data.vact[(g, data.ps(w2))]]


def rational_points(data, pre_len, per_len):
    """Eventually periodic points with short preperiod and period."""
    out = []
    for np_ in range(pre_len + 1):
        for pre in data.paths(np_):
            for k in range(1, per_len + 1):
                for per in data.paths(k):
                    if data.ps(pre) != data.pr(per) or \
                            data.ps(per) != data.pr(per):
                        continue
                    z = data.ev(pre.edges, per.edges, pre.rv)
                    if z not in out:
                        out.append(z)
    return out


# -- complexes of groups ------------------------------------------------------

def _trivial_groups(P, cat):
    triv = P.groupoid.Group.trivial()
    return P.cgx.ComplexOfGroups(
        cat, {x: triv for x in cat.objects},
        {g: {"1": "1"} for g in cat.arrow_ids()},
        {(g, h): "1" for g in cat.arrow_ids() for h in cat.arrow_ids()
         if cat.composable(g, h)})


def cx_single_arrow(P):
    cat = P.fincat.FinCategory(
        ("x", "y"),
        {("i", "x"): ("x", "x"), ("i", "y"): ("y", "y"), "g": ("y", "x")},
        {(("i", "x"), ("i", "x")): ("i", "x"),
         (("i", "y"), ("i", "y")): ("i", "y"),
         (("i", "x"), "g"): "g", ("g", ("i", "y")): "g"},
        {"x": ("i", "x"), "y": ("i", "y")})
    return _trivial_groups(P, cat)


def cx_free_product(P):
    cat = P.fincat.FinCategory(
        ("x", "y"), {("i", "x"): ("x", "x"), ("i", "y"): ("y", "y")},
        {(("i", "x"), ("i", "x")): ("i", "x"),
         (("i", "y"), ("i", "y")): ("i", "y")},
        {"x": ("i", "x"), "y": ("i", "y")})
    z2, z3 = P.groupoid.Group.cyclic(2), P.groupoid.Group.cyclic(3)
    return P.cgx.ComplexOfGroups(
        cat, {"x": z2, "y": z3},
        {("i", "x"): {g: g for g in z2}, ("i", "y"): {g: g for g in z3}},
        {(("i", "x"), ("i", "x")): "1", (("i", "y"), ("i", "y")): "1"})


def cx_twist(P):
    cat = P.fincat.FinCategory(
        ("x", "y", "z"),
        {("i", "x"): ("x", "x"), ("i", "y"): ("y", "y"),
         ("i", "z"): ("z", "z"), "g": ("y", "x"), "h": ("z", "y"),
         "gh": ("z", "x")},
        {(("i", "x"), ("i", "x")): ("i", "x"),
         (("i", "y"), ("i", "y")): ("i", "y"),
         (("i", "z"), ("i", "z")): ("i", "z"),
         (("i", "x"), "g"): "g", ("g", ("i", "y")): "g",
         (("i", "y"), "h"): "h", ("h", ("i", "z")): "h",
         (("i", "x"), "gh"): "gh", ("gh", ("i", "z")): "gh",
         ("g", "h"): "gh"},
        {"x": ("i", "x"), "y": ("i", "y"), "z": ("i", "z")})
    triv, z2 = P.groupoid.Group.trivial(), P.groupoid.Group.cyclic(2)
    groups = {"x": triv, "y": triv, "z": z2}
    homs = {a: ({"1": "1"} if cat.src(a) != "z" else
                ({g: g for g in z2} if cat.dst(a) == "z" else {"1": "1"}))
            for a in cat.arrow_ids()}
    twists = {(a, b): groups[cat.src(b)].identity
              for a in cat.arrow_ids() for b in cat.arrow_ids()
              if cat.composable(a, b)}
    twists[("g", "h")] = "a"
    return P.cgx.ComplexOfGroups(cat, groups, homs, twists)


def cx_loop(P):
    cat = idempotent_monoid(P)
    z2 = P.groupoid.Group.cyclic(2)
    return P.cgx.ComplexOfGroups(
        cat, {"*": z2}, {a: {g: g for g in z2} for a in cat.arrow_ids()},
        {(a, b): "1" for a in cat.arrow_ids() for b in cat.arrow_ids()
         if cat.composable(a, b)})


COMPLEXES = {"single_arrow": cx_single_arrow, "free_product": cx_free_product,
             "twist": cx_twist, "loop": cx_loop}

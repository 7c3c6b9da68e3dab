"""Shared test data: small self-similar and graph systems, the
two-point space correspondences and a right action that is not free."""

from itertools import product

from gpdcorr.corr import Correspondence, space_correspondence
from gpdcorr.groupoid import FinGroupoid, Group
from gpdcorr.selfsim import SelfSimilarData


def e1():
    """Z/2 on {0,1} flipping letters, with constant restriction a|_x = a.

    The generator acts on infinite words by flipping every letter, so
    the kernel of the action is trivial.
    """
    z2 = Group.cyclic(2)
    eact = {("1", "0"): "0", ("1", "1"): "1", ("a", "0"): "1", ("a", "1"): "0"}
    coc = {("1", "0"): "1", ("1", "1"): "1", ("a", "0"): "a", ("a", "1"): "a"}
    return SelfSimilarData.group_alphabet(z2, ("0", "1"), eact, coc)


def e2():
    """Z/2 with trivial letter action and constant restriction a|_x = a.

    The generator acts trivially on the path space but its restrictions
    never reach the identity, so the system is not effective.
    """
    z2 = Group.cyclic(2)
    eact = {(g, x): x for g in z2 for x in ("0", "1")}
    coc = {("1", "0"): "1", ("1", "1"): "1", ("a", "0"): "a", ("a", "1"): "a"}
    return SelfSimilarData.group_alphabet(z2, ("0", "1"), eact, coc)


def trivial_alphabet(letters=("0", "1")):
    triv = Group.trivial()
    eact = {("1", x): x for x in letters}
    coc = {("1", x): "1" for x in letters}
    return SelfSimilarData.group_alphabet(triv, letters, eact, coc)


def ep_graph():
    """A self-similar graph: 2 vertices, 3 edges, group Z/2.

    The group fixes the vertices, swaps the two parallel edges at p and
    fixes the third; restriction is trivial on the swapped pair and the
    generator itself on the fixed edge.
    """
    z2 = Group.cyclic(2)
    vertices = ("p", "q")
    edges = ("x", "y", "z")
    er = {"x": "p", "y": "p", "z": "q"}
    es = {"x": "p", "y": "p", "z": "p"}
    vact = {(g, v): v for g in z2 for v in vertices}
    eact = {("1", "x"): "x", ("1", "y"): "y", ("1", "z"): "z",
            ("a", "x"): "y", ("a", "y"): "x", ("a", "z"): "z"}
    coc = {("1", "x"): "1", ("1", "y"): "1", ("1", "z"): "1",
           ("a", "x"): "1", ("a", "y"): "1", ("a", "z"): "a"}
    return SelfSimilarData(z2, vertices, edges, er, es, vact, eact, coc)


def space_correspondences():
    """Every two-element correspondence between two-point spaces.

    Keyed ``r<r(x0)><r(x1)>-s<s(x0)><s(x1)>``; the elements are
    ``("x", 0)`` and ``("x", 1)`` and both groupoids are the points 0, 1.
    """
    carrier = [("x", 0), ("x", 1)]
    out = {}
    for m in product((0, 1), repeat=4):
        key = f"r{m[0]}{m[1]}-s{m[2]}{m[3]}"
        out[key] = space_correspondence(
            (0, 1), (0, 1), dict(zip(carrier, m[:2])),
            dict(zip(carrier, m[2:])), carrier=carrier)
    return out


def z2_fixed_point():
    """One point, with Z/2 acting trivially on both sides, so that the
    right action is not free."""
    z2 = Group.cyclic(2)
    gpd = FinGroupoid.from_group(z2)
    return Correspondence(gpd, gpd, ("x",), {"x": "*"}, {"x": "*"},
                          {(g, "x"): "x" for g in z2},
                          {("x", g): "x" for g in z2})


def documents():
    """(kind, value) for every kind that ``cli.write_document`` writes:
    the data above, their iterates and groups, and the complexes, diagrams
    and actions of the cgx and diagram tests, with E_{1,2} for a diagram
    over a path shape.  An action's value is the pair (diagram, action)."""
    from gpdcorr.diagram import discrete_diagram, enumerate_actions
    from gpdcorr.mn import make_emn
    from gpdcorr.selfsim import iterate
    from test_cgx import CORPUS
    from test_diagram import (e1_diagram, point_diagram, swap_action,
                              swap_correspondence, swap_diagram,
                              z2_commutative_diagram)
    z3 = FinGroupoid.from_group(Group.cyclic(3))
    data = [e1(), e2(), ep_graph(), trivial_alphabet()]
    corrs = [iterate(x, k) for x in data for k in (1, 2)] + \
        [*space_correspondences().values(), z2_fixed_point(),
         swap_correspondence()]
    diagrams = [point_diagram(2), swap_diagram(2), z2_commutative_diagram(),
                e1_diagram(2), discrete_diagram({"x": z3, "y": z3}),
                make_emn(1, 2)]
    complexes = [make() for make in CORPUS]
    swap = swap_diagram(2)
    actions = [swap_action(swap), *enumerate_actions(swap, 2),
               *enumerate_actions(z2_commutative_diagram(), 1)]
    return ([("category", z3), ("groupoid", z3)]
            + [("category", cx.shape) for cx in complexes]
            + [("groupoid", side) for c in corrs for side in (c.left, c.right)]
            + [("correspondence", c) for c in corrs]
            + [("group", x.group) for x in data]
            + [("selfsimilar", x) for x in data]
            + [("complex_of_groups", cx) for cx in complexes]
            + [("diagram", d) for d in diagrams]
            + [("action", (a.diagram, a)) for a in actions])

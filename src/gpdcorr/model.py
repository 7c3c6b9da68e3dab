"""Groupoid models: constructions and the action-bijection verifier.

A groupoid model of a diagram is a groupoid whose actions biject
naturally with diagram actions.  The constructions here cover the cases
with exact finite answers: disjoint unions for discrete shapes, graded
groupoids for group shapes, and the universal action on the unit spaces
for tight diagrams.  Free-monoid diagrams are reduced to a letter
system (a self-similarity over the base), whose universal space is
handled through eventually periodic points.  On those the pair
construction gives a groupoid graded by the groupoid completion of the
shape, whose arrows are kept as germs (z, t) of normal forms t at points
z, so that the normal-form calculus decides their equality and products.

A model lists its actions on a labelled carrier with ``enumerate_on``,
each as ``(anchor, act)`` with ``act[(label, y)] == z``.  Its ``binding``
sends each model arrow to ("gact", x, gamma), an arrow of the groupoid at
the shape object x, or to ("alph", g, xi), an element of X_g, and its
``object_map`` sends each model object to a (shape object, unit); one
translator turns an action into a diagram action through them.
verify_model checks the defining bijection on all labelled carriers up
to a size bound, and naturality on one action per isomorphism class, or
on every labelled action when that stage fails; ``first_of_class`` picks
its representatives, and the pair arrows of ``arrows_over``.
"""

from collections import Counter
from itertools import chain, groupby, product

from .corr import Correspondence, classify, morita_check
from .diagram import (FAction, _left_actions, _propagated_maps,
                      _table_classes, actions_on, enumerate_actions,
                      equivariant_maps, from_generators, presentation_actions,
                      validate_action)
from .errors import (DepthInsufficient, Mismatch, NotEquivalence,
                     NotSupported, NotTight, Undefined)
from .fincat import (FREE, GROUP, IS_ORE, PresentedShape, canonical_classes,
                     first_of_class, ore_check, product_table)
from .groupoid import FinGroupoid, Group
from .selfsim import (SelfSimilarData, act_on_word, germ_equal, nf, nf_mul,
                      nf_star, nf_unit)


# -- models with translators -------------------------------------------------

# Each model class binds enumerate_on and to_faction in its own namespace:
# bench/gpdbench/trace.py wraps them class by class.

def _translate(model, ua):
    """The diagram action that a model action (anchor, act) binds to."""
    anchor, act = ua
    d = model.d
    part, fanchor, gact = {}, {}, {}
    for y in anchor:
        x, u = model.object_map[anchor[y]]
        part[y], fanchor[y] = x, u
        gact[(d.gr[x].unit(u), y)] = y
    alph = {g: {} for g in d.gen_arrows()}
    for (name, y), z in act.items():
        bound = model.binding[name]
        if bound[0] == "alph":
            alph[bound[1]][(bound[2], y)] = z
        else:
            gact[(bound[2], y)] = z
    # the bound slices only seed the tables; the rest of each
    # correspondence is reached through the two groupoid actions, each
    # entry visited once, in the order it was added
    preimages = {}
    for (gamma, y), z in gact.items():
        preimages.setdefault((gamma, z), []).append(y)
    for g, table in alph.items():
        c = d.X(g)
        right, left = c.right.arrow_ids(), c.left.arrow_ids()
        entries = list(table.items())
        for (xi, y), z in entries:
            for gamma in right:
                # alpha(xi.gamma, y') == alpha(xi, gamma.y')
                if (xi, gamma) in c.ract:
                    for y2 in preimages.get((gamma, y), ()):
                        key = (c.ract[(xi, gamma)], y2)
                        if key not in table:
                            table[key] = z
                            entries.append((key, z))
            for gamma in left:
                if (gamma, xi) in c.lact and (gamma, z) in gact:
                    key = (c.lact[(gamma, xi)], y)
                    if key not in table:
                        table[key] = gact[(gamma, z)]
                        entries.append((key, table[key]))
    return FAction(d, sorted(anchor, key=repr), part, fanchor, gact, alph)


def _groupoid_actions_on(model, carrier):
    """The actions of a model's finite groupoid on a labelled carrier."""
    gpd = model.groupoid
    out = []
    objects = sorted(gpd.objects, key=repr)
    for anchors in product(objects, repeat=len(carrier)):
        anchor = dict(zip(carrier, anchors))
        for act in _left_actions(gpd, list(carrier), anchor):
            out.append((anchor, act))
    return out


class DisjointUnionModel:
    """Model of a discrete-shape diagram: the disjoint union groupoid."""

    def __init__(self, d):
        self.d = d
        self.tags = sorted(d.shape.objects, key=repr)
        self.groupoid = FinGroupoid.disjoint_union(
            [d.gr[x] for x in self.tags], tags=self.tags)
        self.binding = {a: ("gact",) + a for a in self.groupoid.arrow_ids()}
        self.object_map = {o: o for o in self.groupoid.objects}

    enumerate_on = _groupoid_actions_on
    to_faction = _translate


class GradedGroupoidModel:
    """Model of a group-shape diagram: the graded groupoid L.

    L is the disjoint union of the correspondences with multiplication
    through mu; the grade of an arrow (c, xi) is the shape arrow c, a
    unit or a generator, and the arrow acts as xi in X_c.  Every piece
    must be a Morita equivalence.
    """

    def __init__(self, d):
        self.d = d
        shape = d.shape
        self.obj = shape.objects[0]
        for g in d.gen_arrows():
            if not morita_check(d.X(g)):
                raise NotEquivalence(g)
        base = d.gr[self.obj]
        unit_arrow = shape.identity(self.obj)
        arrows, self.binding = {}, {}
        for c in shape.arrows(1):
            xc = d.X(c)
            for xi in xc.carrier:
                arrows[(c, xi)] = (xc.smap[xi], xc.rmap[xi])
                self.binding[(c, xi)] = ("gact", self.obj, xi) \
                    if c == unit_arrow else ("alph", c, xi)
        comp = product_table(arrows, lambda a, b: (
            shape.compose(a[0], b[0]), d.mu_apply(a[0], b[0], a[1], b[1])))
        ident = {x: (unit_arrow, base.unit(x)) for x in base.objects}
        # the last b, in table order, with a.b and b.a units
        inv = {a: b for (a, b), ab in comp.items()
               if ab == ident[arrows[a][1]] and
               comp.get((b, a)) == ident[arrows[a][0]]}
        self.groupoid = FinGroupoid(base.objects, arrows, comp, ident, inv)
        self.object_map = {x: (self.obj, x) for x in base.objects}

    enumerate_on = _groupoid_actions_on
    to_faction = _translate


class PresentationModel:
    """A claimed model given by a groupoid presentation.

    ``gens`` maps generator name -> (dst, src) over ``objects``;
    ``relators`` are words of (name, +-1) pairs that must act as the
    identity.  ``binding`` and ``object_map`` are as for every model
    (see the module docstring); by default the presentation objects are
    the units of the one shape object.
    """

    def __init__(self, d, objects, gens, relators, binding, object_map=None):
        self.d = d
        self.objects = list(objects)
        self.gens = dict(sorted(gens.items()))    # enumerate_on order
        self.relators = [tuple(r) for r in relators]
        self.binding = dict(binding)
        if object_map is None:
            obj = d.shape.objects[0]
            object_map = {o: (obj, o) for o in objects}
        self.object_map = dict(object_map)

    def enumerate_on(self, carrier):
        out = []
        for anchors in product(self.objects, repeat=len(carrier)):
            anchor = dict(zip(carrier, anchors))
            fibre = {x: [y for y in carrier if anchor[y] == x]
                     for x in self.objects}
            out.extend((dict(anchor), act) for act in presentation_actions(
                self.gens, self.relators, fibre))
        return out

    to_faction = _translate


def model_discrete_shape(d):
    if d.gen_arrows():
        raise NotSupported("shape is not discrete")
    return DisjointUnionModel(d)


def model_group_shape(d):
    if d.shape.kind != GROUP:
        raise NotSupported("shape is not a group")
    return GradedGroupoidModel(d)


# -- the tight universal action ---------------------------------------------

def tight_universal_action(d):
    """The action on the disjoint unit spaces, for a tight diagram."""
    for g in d.gen_arrows():
        if not classify(d.X(g))["tight"]:
            raise NotTight(g)
    carrier, part, anchor = [], {}, {}
    for x in d.shape.objects:
        for u in d.gr[x].objects:
            y = (x, u)
            carrier.append(y)
            part[y] = x
            anchor[y] = u
    gact = {}
    for x in d.shape.objects:
        for g in d.gr[x].arrow_ids():
            gact[(g, (x, d.gr[x].src(g)))] = (x, d.gr[x].dst(g))
    alph = {}
    for g in d.gen_arrows():
        c = d.X(g)
        src, dst = d.shape.s(g), d.shape.r(g)
        alph[g] = {(xi, (src, c.smap[xi])): (dst, c.rmap[xi])
                   for xi in c.carrier}
    return FAction(d, carrier, part, anchor, gact, alph)


def check_terminal(d, omega, n):
    """Exactly one equivariant map from every action of size <= n."""
    for a in enumerate_actions(d, n):
        if len(equivariant_maps(a, omega)) != 1:
            return False
    return True


# -- the model-defining bijection --------------------------------------------

def verify_model(d, model, n):
    """Check the defining property of a groupoid model up to size n.

    Builds the translation from model actions to diagram actions on
    every labelled carrier of size <= n and checks that it is a
    bijection.  Then it checks naturality on the action tables: between
    every two actions the propagated equivariant maps on the model side
    are those on the diagram side, and on every action the orbit
    partitions of the two sides agree, so the same maps are invariant.
    Raises Mismatch with a witness on failure; for naturality the
    witness is the first map, in lexicographic order of its values, on
    which the two sides disagree.

    The connected stage decides first.  It takes the first action of
    each isomorphism class, if every other action's isomorphism onto it
    on the diagram side is one on the model side too, checks that each
    has the same orbits on both sides and restricts to each orbit,
    renumbered in order, as a model action and its translation, and
    compares maps only between connected ones.  That suffices: maps and
    orbits pull back along the isomorphisms alike, and a map out of an
    orbit lands in one orbit, so Hom(A, B) is prod_i sum_j Hom(A_i, B_j)
    over the orbits on each side (tom Dieck).  If any part fails, the
    scan of every pair of labelled actions reports its first failure.
    """
    per_size, translate = {}, {}
    for k in range(n + 1):
        carrier = list(range(k))
        fas = list(actions_on(d, carrier))
        fsigs = {_frozen(a.table()) for a in fas}
        uas = model.enumerate_on(carrier)
        tables, translate[k] = [], {}
        for ua in uas:
            fa = model.to_faction(ua)
            report = validate_action(d, fa)
            if report:
                raise Mismatch(
                    f"translated action invalid at size {k}: {report[0]}")
            tables.append((_table(ua), fa.table()))
            translate[k][_frozen(tables[-1][0])] = _frozen(tables[-1][1])
        tsigs = set(translate[k].values())
        if len(tsigs) != len(uas):
            raise Mismatch(f"translation not injective at size {k}")
        if tsigs != fsigs:
            raise Mismatch(
                f"action sets differ at size {k}: {len(uas)} model actions "
                f"vs {len(fas)} diagram actions")
        per_size[k] = tables
    reps = {k: _representatives(t) for k, t in per_size.items()}
    if None not in reps.values() and _connected(translate, reps):
        return True
    return _natural(per_size)


def _connected(translate, reps):
    """Whether verify_model's connected stage passes; translate maps
    frozen model tables to frozen diagram tables, per size."""
    connected = []
    for k, tables in reps.items():
        for u, f in tables:
            c1 = _orbits(u)
            if c1 != _orbits(f):
                return False
            orbits = [list(o) for _, o in
                      groupby(sorted(range(k), key=c1.get), c1.get)]
            if any(translate[len(o)].get(_frozen(u, o)) != _frozen(f, o)
                   for o in orbits):
                return False
            if len(orbits) <= 1:
                connected.append((k, u, f))
    return all(_map_values(u1, u2, k1) == _map_values(f1, f2, k1)
               for k1, u1, f1 in connected for _, u2, f2 in connected)


def _natural(per_size):
    """The naturality scan of verify_model over every pair of labelled
    actions, raising Mismatch at its first failure."""
    for k1 in per_size:
        for k2 in per_size:
            for u1, f1 in per_size[k1]:
                for u2, f2 in per_size[k2]:
                    differ = _map_values(u1, u2, k1) ^ _map_values(f1, f2, k1)
                    if differ:
                        f = dict(zip(range(k1), min(differ)))
                        raise Mismatch(
                            f"naturality fails for {f!r} between sizes "
                            f"{k1} and {k2}")
        for u1, f1 in per_size[k1]:
            c1, c2 = _orbits(u1), _orbits(f1)
            if c1 != c2:
                f = _invariance_witness(k1, c1, c2)
                raise Mismatch(f"invariant maps differ for {f!r} at size {k1}")
    return True


def _representatives(tables):
    """The first action of each isomorphism class of the diagram side;
    None if the isomorphism found onto it does not carry both tables."""
    reps = []
    for (u, f), seen in _table_classes(tables):
        if seen is None:
            reps.append((u, f))
        else:
            (ru, rf), p = seen
            if not (_carries(p, u, ru) and _carries(p, f, rf)):
                return None
    return reps


def _carries(p, t1, t2):
    """Whether the map p carries the action table t1 onto t2."""
    (frame1, moves1), (frame2, moves2) = t1, t2
    return all(frame2[p[y]] == v and moves2[p[y]] == {
        label: p[z] for label, z in moves1[y].items()}
        for y, v in frame1.items())


def _table(ua):
    """A model action (anchor, act) as an action table (see
    FAction.table), with its anchors as frames."""
    anchor, act = ua
    moves = {y: {} for y in anchor}
    for (label, y), z in act.items():
        moves[y][label] = z
    return anchor, moves


def _frozen(table, points=None):
    """An action table as a hashable value, free of its carrier order;
    with ``points``, its restriction to them, renumbered along the list."""
    frame, moves = table
    new = {y: i for i, y in enumerate(points)} if points else dict(
        zip(frame, frame))
    return frozenset((new[y], frame[y]) for y in new), frozenset(
        (new[y], label, new[z]) for y in new for label, z in moves[y].items())


def _map_values(t1, t2, k):
    """Every equivariant map between two action tables, as its tuple of
    values along range(k)."""
    return {tuple(f[y] for y in range(k)) for f in _propagated_maps(t1, t2)}


def _orbits(table):
    """Each point's class in the orbit partition: f is invariant exactly
    when it is constant on these classes."""
    frame, moves = table
    return canonical_classes(
        frame, ((y, z) for y in moves for z in moves[y].values()), repr)


def _invariance_witness(k, c1, c2):
    """The first map range(k) -> range(max(k, 2)) in lexicographic order
    that is constant on the classes of one of two differing partitions
    but not on those of the other.

    Such a map is constant on the classes of one partition but not on a
    class of their join, and the least one is the indicator of a single
    class that does not fill its class in the join.
    """
    join = canonical_classes(range(k), chain(c1.items(), c2.items()), repr)
    size = Counter(join.values())
    indicators = []
    for canon in (c1, c2):
        for rep in set(canon.values()):
            cls = {y for y in range(k) if canon[y] == rep}
            if len(cls) < size[join[rep]]:
                indicators.append(tuple(int(y in cls) for y in range(k)))
    return dict(zip(range(k), min(indicators)))


# -- free-monoid shapes: the letter system and the universal space -----------

def as_selfsim(d):
    """Reduce a free-monoid diagram to self-similarity data.

    Uses the stored data when the diagram was built from one; otherwise
    a diagram over a space base is turned into trivial-group graph data
    whose letters are the points of the generating correspondence.
    """
    if d.selfsim is not None:
        return d.selfsim
    if d.shape.kind != FREE or len(d.shape.gens) != 1:
        raise NotSupported("only free-monoid shapes reduce to letter systems")
    g = d.gen_arrows()[0]
    c = d.X(g)
    base = d.gr[d.shape.objects[0]]
    if any(not base.is_unit(a) for a in base.arrow_ids()):
        raise NotSupported("base groupoid is not a space and the diagram "
                           "carries no self-similarity data")
    triv = Group.trivial()
    letters = tuple(c.carrier)
    er = {e: c.rmap[e] for e in letters}
    es = {e: c.smap[e] for e in letters}
    vact = {("1", v): v for v in base.objects}
    eact = {("1", e): e for e in letters}
    coc = {("1", e): "1" for e in letters}
    return SelfSimilarData(triv, base.objects, letters, er, es, vact, eact,
                           coc)


class OreUniversal:
    """The universal action of a free-monoid diagram along its chain.

    Levels are the orbit spaces of the iterated correspondences with
    the prefix projections between them.  When every vertex of the
    letter graph has at most one outgoing letter, the point space is
    finite and exact; otherwise points are represented by eventually
    periodic threads.
    """

    def __init__(self, d, depth=3):
        if ore_check(d.shape).status != IS_ORE:
            raise NotSupported("shape fails the right Ore conditions")
        self.d = d
        self.depth = depth = min(depth, d.shape.length_bound)
        self.data = as_selfsim(d)
        self.levels, self.projections = self._chain_levels(depth)
        self.finite = all(len(es) <= 1 for es in self.data.edges_at.values())
        if d.is_tight():
            self.status = "tight"
        elif self.finite:
            self.status = "finite"
        else:
            self.status = f"rational({depth})"

    def _word(self, n):
        gen = self.d.shape.gens[0]
        obj = self.d.shape.objects[0]
        return (obj, obj, (gen,) * n)

    def _chain_levels(self, depth):
        d = self.d
        levels, projections = [], []
        unit_corr = d.X(self._word(0))
        levels.append(sorted({unit_corr.p(t) for t in unit_corr.carrier},
                             key=repr))
        for n in range(1, depth + 1):
            c = d.X(self._word(n))
            level = sorted({c.p(t) for t in c.carrier}, key=repr)
            prev = d.X(self._word(n - 1))
            proj = {}
            for t in c.carrier:
                if n == 1:
                    base = d.gr[d.shape.objects[0]]
                    proj[c.p(t)] = prev.p(base.unit(c.rmap[t]))
                else:
                    proj[c.p(t)] = prev.p(t[:n - 1])
            levels.append(level)
            projections.append(proj)
        return levels, projections

    def points(self, pre_len=2, per_len=2):
        """Eventually periodic points, canonically deduplicated.

        In the finite case this enumerates the whole point space.
        """
        data = self.data
        out = []
        if self.finite:
            nxt = {v: es[0] for v, es in data.edges_at.items() if es}
            for v in sorted(data.vertices, key=repr):
                edges, seen, w = [], {}, v
                while w in nxt and w not in seen:
                    seen[w] = len(edges)
                    edges.append(nxt[w])
                    w = data.es[nxt[w]]
                if w in nxt or (edges and w in seen):
                    j = seen[w]
                    out.append(data.ev_canon(tuple(edges[:j]),
                                             tuple(edges[j:])))
            return list(dict.fromkeys(out))
        return list(dict.fromkeys(
            data.ev_canon(pre.edges, per.edges)
            for np_ in range(pre_len + 1) for pre in data.paths(np_)
            for k in range(1, per_len + 1) for per in data.paths(k)
            if data.ps(pre) == data.pr(per) == data.ps(per)))

    def thread(self, z, n):
        """The level-n entry of the thread of a point: its n-prefix."""
        return tuple(self.data.ev_letter(z, i) for i in range(n))


def rho(d, a, g, y):
    """The class in X_g / G of any decomposition y == gamma . y'."""
    c = d.X(g)
    for xi in c.carrier:
        for y2 in a.carrier:
            if a.apply(g, xi, y2) == y:
                return c.p(xi)
    return None


# -- tightening ---------------------------------------------------------------

def tighten(d, omega):
    """The tight diagram over the base extended by the universal space.

    For a finite point space the result is a fully materialised
    diagram over the transformation groupoid; otherwise a scan
    certificate checks tightness on sample rational points.
    """
    if not omega.finite:
        return RationalTightScan(d, omega)
    data = omega.data
    points = omega.points()
    base = FinGroupoid.transformation(data.group, data.vertices, data.vact)
    anchor = {z: z.rv for z in points}
    act = {}
    for (g, v) in base.arrow_ids():
        for z in points:
            if z.rv == v:
                act[((g, v), z)] = data.group_act_ev(g, z)
    bo = FinGroupoid.semidirect(base, points, anchor, act)
    carrier = []
    for e in sorted(data.edges, key=repr):
        for g in data.group:
            for z in points:
                if data.vact[(data.group.inv[g], data.es[e])] == z.rv:
                    carrier.append((e, g, z))
    rmap, smap = {}, {}
    for (e, g, z) in carrier:
        smap[(e, g, z)] = z
        rmap[(e, g, z)] = data.ev_prepend((e,), data.group_act_ev(g, z))
    lact, ract = {}, {}
    for ((h, v), z0) in bo.arrow_ids():
        for (e, g, z) in carrier:
            if rmap[(e, g, z)] == z0:
                lact[(((h, v), z0), (e, g, z))] = (
                    data.eact[(h, e)],
                    data.group.op(data.cocycle[(h, e)], g), z)
            if bo.dst(((h, v), z0)) == z:
                ract[((e, g, z), ((h, v), z0))] = (
                    e, data.group.op(g, h), z0)
    xo = Correspondence(bo, bo, carrier, rmap, smap, lact, ract)
    shape = PresentedShape.free_monoid(d.shape.gens, d.shape.length_bound)
    out = from_generators(shape, {d.shape.gens[0]: xo})
    return out


class RationalTightScan:
    """Tightness certificate on eventually periodic sample points.

    The extended correspondence is tight when every point decomposes as
    letter . tail in exactly one right-orbit way; the scan verifies
    this on all rational points up to the given complexity.
    """

    def __init__(self, d, omega):
        self.d = d
        self.omega = omega

    def scan_tight(self, pre_len=2, per_len=2):
        data = self.omega.data
        for z in self.omega.points(pre_len, per_len):
            head = data.ev_letter(z, 0)
            tail = data.ev_drop(z, 1)
            decompositions = set()
            for e in data.edges:
                for g in data.group:
                    back = data.group_act_ev(data.group.inv[g], tail)
                    if data.vact[(data.group.inv[g], data.es[e])] != back.rv:
                        continue
                    cand = data.ev_prepend((e,), data.group_act_ev(g, back))
                    if cand == z:
                        # right-orbit normal form: twist g away
                        decompositions.add(e)
            if decompositions != {head}:
                return False
        return True


# -- the pair construction over rational points -------------------------------

class PairArrow:
    """An arrow of the pair groupoid: the germ of the normal form t at a
    point z of its domain.  Its source is z, its range t.z and its grade
    len(w1) - len(w2) of t."""

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        self.z, self.t = z, t

    def grade(self):
        return len(self.t.w1.edges) - len(self.t.w2.edges)

    def source(self):
        return self.z

    def target(self):
        return act_on_word(self.t, self.z)

    def inverse(self):
        return PairArrow(self.target(), nf_star(self.t))


def pair_from_nf(data, t, z):
    """The pair arrow of a normal form at a point of its domain."""
    if not data.ev_starts_with(z, t.w2):
        raise Undefined("point outside the domain")
    return PairArrow(z, t)


class SelfSimPairModel:
    """The pair groupoid over rational points, with decidable equality.

    A PairArrow (z, t) is read as it is kept: arrows are equal when their
    points are and germ_equal holds there, and a product is the germ of
    nf_mul at its right factor's point.  Equal arrows share source and
    grade, so arrows_over compares a candidate only with the arrows it
    kept for that (source, grade).
    """

    def __init__(self, d):
        self.d = d
        self.data = as_selfsim(d)

    def equal(self, p, q):
        return p.z == q.z and germ_equal(p.t, q.t, p.z)

    def mult(self, p, q):
        """The germ of the product of the two normal forms at q's
        source, exact at every depth."""
        if p.z != q.target():
            raise DepthInsufficient("arrows not composable")
        return pair_from_nf(self.data, nf_mul(p.t, q.t), q.z)

    def is_unit(self, p):
        return germ_equal(p.t, nf_unit(self.data, p.z.rv), p.z)

    def arrows_over(self, points, word_len=2):
        """All distinct arrows with legs of the given length, as reps."""
        data = self.data
        paths = [w for n in range(word_len + 1) for w in data.paths(n)]
        forms = [nf(data, w1.edges, g, w2.edges, rv1=w1.rv, rv2=w2.rv)
                 for w1 in paths for g in data.group for w2 in paths
                 if data.ps(w1) == data.vact[(g, data.ps(w2))]]
        pairs = (pair_from_nf(data, t, z) for z in points for t in forms
                 if data.ev_starts_with(z, t.w2))
        return [p for p, seen in first_of_class(
            pairs, lambda p, q: self.equal(p, q) or None,
            lambda p: (p.z, p.grade())) if seen is None]

    def grading_functor(self, completion):
        """The map to the groupoid completion: grade as a zigzag class."""
        gen = self.d.shape.gens[0]
        obj = self.d.shape.objects[0]

        def theta(p):
            m, n = len(p.t.w1.edges), len(p.t.w2.edges)
            return completion.cls((obj, obj, (gen,) * m),
                                  (obj, obj, (gen,) * n))

        return theta


def pair_groupoid_model(d, depth=4):
    """The pair-construction model of a free-monoid diagram.  It is exact,
    so ``depth`` is unread; bench/gpdbench/workloads.py still passes it."""
    if d.shape.kind == GROUP:
        return model_group_shape(d)
    return SelfSimPairModel(d)

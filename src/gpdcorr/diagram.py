"""Diagrams of correspondences over a shape, and their actions.

A diagram assigns a groupoid to every shape object, a correspondence to
every arrow, and multiplication bijections mu_{g,h} to composable
pairs; unit correspondences and unit multiplications are built in.
The length bound is the shape's, and ``Diagram.composite`` is the one
place that compares it with a word: every check over pairs of shape
arrows takes g.h from it, the points of X(g) x_{s,r} X(h) from
``corr.composable`` and the arrow pairs of a groupoid from
``composable_pairs``.  Generator data over free shapes is materialised
as canonical composable tuples (from ``corr.composable`` too) modulo
the junction moves (xi.gamma, eta) ~ (xi, gamma.eta), so that
multiplication is concatenation followed by canonicalisation; over free
commutative shapes the concatenation is bubble-sorted through the given
braidings first.  Explicitly given mu maps are stored on raw pairs and
checked, never assumed, to descend to bijections of the composed
correspondences.

An action on a finite set is a partitioned carrier with anchors and one
surjection per arrow.  All machinery works with the generator arrows
and the groupoid pieces; longer arrows act by folding.

The action searches run on two engines.  ``_propagated_maps`` finds the
equivariant maps between two action tables, for ``equivariant_maps``,
``actions_isomorphic``, ``verify_model`` and the alpha tables of
``_equivariant_bijections`` (injective maps from the balance classes of
``canonical_classes`` onto a piece).  ``_backtrack`` picks one bijection
per label in product order, checking each condition once its tables are
chosen: per non-unit arrow for ``_left_actions``, and per generator for
``presentation_actions``, which serves ``PresentationModel`` and
``cgx.count_homs``.  ``_actions_with_frame`` is a product over
per-object groupoid actions and per-generator alpha tables.
``enumerate_actions`` searches only frames with nondecreasing (part,
anchor) ranks and keeps the first of each class by ``first_of_class``,
bucketed by a relabelling invariant, as ``verify_model`` does.
"""

from collections import Counter
from itertools import (chain, combinations_with_replacement, groupby,
                       permutations, product)

from .corr import (Correspondence, classify, compose, composable,
                   from_group_hom, identity_correspondence, inner_product,
                   validate_correspondence)
from .errors import ConditionFailed, HexagonViolation, ParseError
from .fincat import (COMM, PresentedShape, _hashable, canonical_classes,
                     first_of_class)
from .groupoid import FinGroupoid, PartialBijection


class Diagram:

    def __init__(self, shape, gr, corr, mu, sigma=None):
        self.shape = shape
        self.gr = dict(gr)
        self.corr = dict(corr)
        self.mu = dict(mu)
        self.sigma = sigma
        self.selfsim = None
        self.gen_data = None    # generator id -> X(g), from from_generators

    def arrows(self):
        return self.shape.arrows()

    def composite(self, g, h):
        """g.h when it is defined and no longer than the shape's length
        bound, else None."""
        gh = self.shape.compose(g, h)
        if gh is not None and self.shape.length(gh) <= self.shape.length_bound:
            return gh
        return None

    def gen_arrows(self):
        return self.shape.generator_arrows()

    def X(self, g):
        if self.shape.is_identity_arrow(g) and g not in self.corr:
            self.corr[g] = identity_correspondence(self.gr[g[0]])
        return self.corr[g]

    def mu_apply(self, g, h, xi, eta):
        """The element xi.eta of X(g.h)."""
        if self.shape.is_identity_arrow(g):
            return self.X(h).lact[(xi, eta)]
        if self.shape.is_identity_arrow(h):
            return self.X(g).ract[(xi, eta)]
        return self.mu[(g, h)][(xi, eta)]

    def is_tight(self):
        return all(classify(self.X(g))["tight"] for g in self.gen_arrows())


def discrete_diagram(groupoids):
    """A diagram over a shape with only identity arrows."""
    shape = PresentedShape.discrete(sorted(groupoids, key=repr))
    return Diagram(shape, groupoids, {}, {})


class _Tuples:
    """Canonical composable tuples over a sequence of correspondences."""

    def __init__(self, comps):
        self.comps = comps
        raw = list(composable(*comps)) if comps[1:] else \
            [(x,) for x in comps[0].carrier]
        self.raw = raw
        index = [{x: i for i, x in enumerate(c.carrier)} for c in comps]

        def key(t):
            return tuple(index[i][x] for i, x in enumerate(t))

        def junction_moves():
            mids = [c.right for c in comps[:-1]]
            for t in raw:
                for i, mid in enumerate(mids):
                    for g in mid.arrow_ids():
                        xg = comps[i].ract.get((t[i], g))
                        gy = comps[i + 1].lact.get((mid.invert(g), t[i + 1]))
                        if xg is not None and gy is not None:
                            yield t, t[:i] + (xg, gy) + t[i + 2:]

        self.canon = canonical_classes(raw, junction_moves(), key)
        self.carrier = sorted(set(self.canon.values()), key=key)


def _as_tuple_corr(tp):
    comps = tp.comps
    left, right = comps[0].left, comps[-1].right
    rmap = {t: comps[0].rmap[t[0]] for t in tp.carrier}
    smap = {t: comps[-1].smap[t[-1]] for t in tp.carrier}
    lact, ract = {}, {}
    for h in left.arrow_ids():
        for t in tp.carrier:
            moved = comps[0].lact.get((h, t[0]))
            if moved is not None:
                lact[(h, t)] = tp.canon[(moved,) + t[1:]]
    for g in right.arrow_ids():
        for t in tp.carrier:
            moved = comps[-1].ract.get((t[-1], g))
            if moved is not None:
                ract[(t, g)] = tp.canon[t[:-1] + (moved,)]
    return Correspondence(left, right, tp.carrier, rmap, smap, lact, ract)


def from_generators(shape, gens, groupoids=None, braidings=None):
    """Materialise a diagram from its generator correspondences.

    ``gens`` maps generator id -> Correspondence.  For free commutative
    shapes, ``braidings`` maps (a, b) with a < b to a dict on raw pairs
    (x_a, x_b) -> (x_b', x_a') realising X_a.X_b ~ X_b.X_a; the braiding
    hexagons are checked during materialisation.
    """
    gr = dict(groupoids or {})
    for a, c in gens.items():
        gr.setdefault(shape.gen_dst[a], c.left)
        gr.setdefault(shape.gen_src[a], c.right)
    d = Diagram(shape, gr, {}, {},
                sigma=dict(braidings) if braidings else None)
    d.gen_data = dict(gens)
    words = _Words(gens, d.sigma or {})
    if shape.kind == COMM and len(shape.gens) > 1:
        _check_hexagons(shape, words)
    arrows = shape.arrows()
    for w in arrows:
        if not shape.is_identity_arrow(w):
            d.corr[w] = _as_tuple_corr(words.tuples(w[2]))
    for g in arrows:
        for h in arrows:
            if shape.is_identity_arrow(g) or shape.is_identity_arrow(h):
                continue
            gh = d.composite(g, h)
            if gh is None:
                continue
            table, canon = {}, words.tuples(gh[2]).canon
            for xi, eta in composable(d.corr[g], d.corr[h]):
                raw = xi + eta
                if shape.kind == COMM:
                    raw = _sort_letters(words, g[2] + h[2], raw)
                table[(xi, eta)] = canon[raw]
            d.mu[(g, h)] = table
    return d


class _Words:
    """The canonical tuples over words of generator letters, each built
    once, and the braiding steps between adjacent letters."""

    def __init__(self, gens, sigma):
        self.gens, self.sigma = gens, sigma
        self.built, self.first = {}, {}

    def tuples(self, word):
        if word not in self.built:
            self.built[word] = _Tuples([self.gens[a] for a in word])
        return self.built[word]

    def swap(self, a, b, xa, xb):
        """One braiding step: (x_a, x_b) over letters a != b -> over (b, a).

        For a > b it inverts sigma[(b, a)]: the first entry whose value
        lies in the pair class of (x_a, x_b), through an index of those
        values by class built once per braiding.
        """
        if a < b:
            return self.sigma[(a, b)][(xa, xb)]
        canon = self.tuples((a, b)).canon
        if (a, b) not in self.first:        # reversed: the first entry wins
            self.first[(a, b)] = {canon[value]: key for key, value in
                                  reversed(self.sigma[(b, a)].items())}
        key = self.first[(a, b)].get(canon.get((xa, xb)))
        if key is None:
            raise KeyError(f"braiding has no entry covering {(xa, xb)!r}")
        return key


def _sort_letters(words, letters, raw):
    letters, raw = list(letters), list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] > letters[i + 1]:
                raw[i], raw[i + 1] = words.swap(letters[i], letters[i + 1],
                                                raw[i], raw[i + 1])
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    return tuple(raw)


def _check_hexagons(shape, words):
    gens, sigma = words.gens, words.sigma
    gs = sorted(shape.gens)
    for i, a in enumerate(gs):
        for b in gs[i + 1:]:
            _check_braiding(gens[a], gens[b], sigma[(a, b)], (a, b))
            canon = words.tuples((a, b)).canon
            for (xa, xb), (yb, ya) in sigma[(a, b)].items():
                if canon[words.swap(b, a, yb, ya)] != canon[(xa, xb)]:
                    raise HexagonViolation((a, b, "not inverse to itself"))
    for i, a in enumerate(gs):
        for j, b in enumerate(gs[i + 1:], i + 1):
            for c in gs[j + 1:]:
                _check_one_hexagon(words, a, b, c)


def _check_braiding(ca, cb, table, ab):
    """Raise ParseError unless the braiding takes every composable pair of
    X_a.X_b, and nothing else, to a composable pair of X_b.X_a."""
    def pair(c1, c2, p):
        try:
            return (isinstance(p, tuple) and len(p) == 2 and p[0] in c1._index
                    and p[1] in c2._index
                    and c1.smap.get(p[0]) == c2.rmap.get(p[1]))
        except TypeError:       # an unhashable name is no point
            return False
    over = Counter(cb.rmap.get(x) for x in cb.carrier)
    if len(table) < sum(over[ca.smap.get(x)] for x in ca.carrier) or not all(
            pair(ca, cb, p) and pair(cb, ca, q) for p, q in table.items()):
        raise ParseError(f"braiding {ab!r} is not on the composable pairs")


def _check_one_hexagon(words, a, b, c):
    """Both routes X_a X_b X_c -> X_c X_b X_a must agree on all triples."""
    ca, cb, cc = (words.gens[x] for x in (a, b, c))
    canon = words.tuples((c, b, a)).canon
    for xa, xb, xc in composable(ca, cb, cc):
        # route 1: swap (b,c), then (a,c), then (a,b)
        yc1, yb1 = words.swap(b, c, xb, xc)
        zc, za = words.swap(a, c, xa, yc1)
        zb, za2 = words.swap(a, b, za, yb1)
        route1 = (zc, zb, za2)
        # route 2: swap (a,b), then (a,c) in the middle, then (b,c)
        wb, wa = words.swap(a, b, xa, xb)
        wc, wa2 = words.swap(a, c, wa, xc)
        wc2, wb2 = words.swap(b, c, wb, wc)
        route2 = (wc2, wb2, wa2)
        if canon[route1] != canon[route2]:
            raise HexagonViolation((a, b, c))


def from_complex(category, groups, homs, twists):
    """The tight diagram of a complex of groups.

    X_g is the source group with the left action through phi_g, and
    mu_{g,h}(gamma, eta) = u_{g,h}.phi_h(gamma).eta.
    """
    invertible = all(
        any(category.mul(g, h) == category.identity(category.dst(g)) and
            category.mul(h, g) == category.identity(category.src(g))
            for h in category.arrow_ids())
        for g in category.arrow_ids())
    if invertible and len(category.objects) == 1:
        shape = PresentedShape.group_shape(category)
    else:
        shape = PresentedShape.finite(category)
    gr = {x: FinGroupoid.from_group(groups[x]) for x in category.objects}
    corr = {}
    for g in shape.generator_arrows():
        gid = g[2][0]
        corr[g] = from_group_hom(groups[category.dst(gid)],
                                 groups[category.src(gid)], homs[gid])
        corr[g].left = gr[category.dst(gid)]
        corr[g].right = gr[category.src(gid)]
    mu = {}
    for g in shape.generator_arrows():
        for h in shape.generator_arrows():
            gh = shape.compose(g, h)
            if gh is None:
                continue
            gid, hid = g[2][0], h[2][0]
            u = twists[(gid, hid)]
            gs = groups[category.src(hid)]
            mu[(g, h)] = {(gamma, eta): gs.op(gs.op(u, homs[hid][gamma]), eta)
                          for gamma in corr[g].carrier
                          for eta in corr[h].carrier}
    return Diagram(shape, gr, corr, mu)


def validate_diagram(d):
    """Element-wise check of the unit and associativity coherence."""
    report = []
    arrows = list(d.arrows())
    invalid = set()             # arrows whose X(g) compose cannot take
    report += [f"generator {a!r}: {line}" for a, c in (
        d.gen_data or {}).items() for line in validate_correspondence(c)]
    for g in arrows:
        for line in validate_correspondence(d.X(g)):
            report.append(f"X({g!r}): {line}")
            invalid.add(g)
    pairs = [(g, h, gh) for g in arrows for h in arrows
             if not d.shape.is_identity_arrow(g)
             and not d.shape.is_identity_arrow(h)
             and (gh := d.composite(g, h)) is not None]
    for (g, h, gh) in pairs:
        cg, ch, cgh = d.X(g), d.X(h), d.X(gh)
        table = d.mu.get((g, h))
        if table is None:
            report.append(f"missing mu for ({g!r},{h!r})")
            continue
        mid = cg.right
        for (xi, eta), val in table.items():
            for k in mid.arrow_ids():
                xik = cg.ract.get((xi, k))
                kinv_eta = ch.lact.get((mid.invert(k), eta))
                if xik is None or kinv_eta is None:
                    continue
                if table.get((xik, kinv_eta)) != val:
                    report.append(
                        f"mu({g!r},{h!r}) not balanced at ({xi!r},{eta!r},{k!r})")
            for hh in cg.left.arrow_ids():
                if (hh, xi) in cg.lact:
                    if table.get((cg.lact[(hh, xi)], eta)) != cgh.lact.get((hh, val)):
                        report.append(
                            f"mu({g!r},{h!r}) not left equivariant at ({hh!r},{xi!r},{eta!r})")
            for k in ch.right.arrow_ids():
                if (eta, k) in ch.ract:
                    if table.get((xi, ch.ract[(eta, k)])) != cgh.ract.get((val, k)):
                        report.append(
                            f"mu({g!r},{h!r}) not right equivariant at ({xi!r},{eta!r},{k!r})")
        image = set(table.values())
        if image != set(cgh.carrier):
            report.append(f"mu({g!r},{h!r}) not surjective onto X({gh!r})")
        if g in invalid or h in invalid:
            continue
        comp = compose(cg, ch)
        if len(image) < len(comp.carrier):
            report.append(f"mu({g!r},{h!r}) not injective on classes")
    for (g, h, gh) in pairs:
        for k in arrows:
            if d.shape.is_identity_arrow(k):
                continue
            hk = d.composite(h, k)
            ghk = d.composite(gh, k)
            if hk is None or ghk is None:
                continue
            for xi, eta, zeta in composable(d.X(g), d.X(h), d.X(k)):
                try:
                    lhs = d.mu_apply(gh, k, d.mu_apply(g, h, xi, eta), zeta)
                    rhs = d.mu_apply(g, hk, xi, d.mu_apply(h, k, eta, zeta))
                except KeyError:
                    lhs, rhs = "missing", None
                if lhs != rhs:
                    report.append(
                        "associativity coherence fails on "
                        f"({g!r},{h!r},{k!r}) at ({xi!r},{eta!r},{zeta!r})")
    return report


class FAction:
    """An action of a diagram on a partitioned finite set.

    ``gact`` holds the groupoid actions (arrow, y) -> y for each piece;
    ``alph`` maps each generator arrow to its multiplication table
    (xi, y) -> y.  Longer arrows act by folding over the letters of the
    canonical tuple.
    """

    def __init__(self, diagram, carrier, part, anchor, gact, alph):
        self.diagram = diagram
        self.carrier = tuple(carrier)
        self.part = dict(part)
        self.anchor = dict(anchor)
        self.gact = dict(gact)
        self.alph = {g: dict(t) for g, t in alph.items()}

    def piece(self, x):
        return tuple(y for y in self.carrier if self.part[y] == x)

    def apply(self, g, xi, y):
        """xi.y for xi in X(g); None when undefined."""
        d = self.diagram
        if d.shape.is_identity_arrow(g):
            return self.gact.get((xi, y))
        if len(g[2]) == 1:
            return self.alph[g].get((xi, y))
        letters = list(g[2])
        gens = {a: (d.shape.gen_dst[a], d.shape.gen_src[a], (a,))
                for a in letters}
        for i in range(len(letters) - 1, -1, -1):
            y = self.alph[gens[letters[i]]].get(((xi[i],), y))
            if y is None:
                return None
        return y

    def theta(self, g, u):
        """The partial bijection of a slice u of X(g)."""
        d = self.diagram
        c = d.X(g)
        mapping = {}
        for y in self.piece(d.shape.s(g)):
            for xi in u:
                if c.smap[xi] == self.anchor[y]:
                    mapping[y] = self.apply(g, xi, y)
        return PartialBijection(mapping)

    def table(self):
        """The action as the table of its singleton thetas.

        The table is ``(frame, moves)``: ``frame`` maps each point, in
        carrier order, to its (part, anchor), and ``moves`` maps it to
        {label: z}, with labels (None, gamma) for the groupoid actions
        and (g, xi) for the generator tables.
        """
        frame = {y: (self.part[y], self.anchor[y]) for y in self.carrier}
        moves = {y: {} for y in frame}
        for (gamma, y), z in self.gact.items():
            moves.setdefault(y, {})[(None, gamma)] = z
        for g, t in self.alph.items():
            for (xi, y), z in t.items():
                moves.setdefault(y, {})[(g, xi)] = z
        return frame, moves


def validate_action(d, a):
    """Check the definition of a diagram action, within the bound.  A table
    it cannot read, or a name outside the shape, carrier, groupoids or
    X(g), ends it before the axioms."""
    tables = [("gact", a.gact)] + [
        (f"alpha({g!r})", t) for g, t in a.alph.items()]
    report = [f"carrier point {y!r} is not hashable"
              for y in a.carrier if not _hashable(y)]
    for name, table in tables:
        report += [f"{name} key {k!r} is not a pair" for k in table
                   if not (isinstance(k, tuple) and len(k) == 2)]
        report += [f"{name} value {z!r} is not hashable"
                   for z in table.values() if not _hashable(z)]
    if report:
        return report
    for y in a.carrier:
        if a.part.get(y) not in d.shape.objects:
            report.append(f"{y!r} not assigned to a shape object")
        elif a.anchor.get(y) not in d.gr[a.part[y]].objects:
            report.append(f"anchor of {y!r} is not a unit of its groupoid")
    named = [("part", y) for y in a.part] + [("anchor", y) for y in a.anchor]
    named += [(name, w) for name, t in tables
              for (_, y), z in t.items() for w in (y, z)]
    points = set(a.carrier)
    report += [f"{name} names {y!r}, which is not in the carrier"
               for name, y in dict.fromkeys(named) if y not in points]
    report += [f"gact names {gamma!r}, which is not an arrow of its groupoid"
               for gamma, y in a.gact if a.part.get(y) in d.shape.objects
               and gamma not in d.gr[a.part[y]].arrows]
    gens = d.gen_arrows()
    report += [f"alph names {g!r}, which is not a generator arrow"
               for g in a.alph if g not in gens]
    for g in gens:
        report += [f"alpha({g!r}) names {xi!r}, which is not in X({g!r})"
                   for xi in dict.fromkeys(xi for xi, _ in a.alph.get(g, {}))
                   if xi not in d.X(g).carrier]
    if report:
        return report
    for x in d.shape.objects:
        gpd = d.gr[x]
        ys = a.piece(x)
        for g in gpd.arrow_ids():
            for y in ys:
                has = (g, y) in a.gact
                want = gpd.src(g) == a.anchor[y]
                if has != want:
                    report.append(f"groupoid action domain wrong at ({g!r},{y!r})")
                elif has:
                    z = a.gact[(g, y)]
                    if a.part[z] != x or a.anchor[z] != gpd.dst(g):
                        report.append(f"groupoid action anchor wrong at ({g!r},{y!r})")
        for g, h in gpd.composable_pairs():
            gh = gpd.mul(g, h)
            for y in ys:
                if (h, y) not in a.gact:
                    continue
                if a.gact.get((g, a.gact[(h, y)])) != a.gact.get((gh, y)):
                    report.append(
                        f"groupoid associativity fails at ({g!r},{h!r},{y!r})")
        for y in ys:
            uy = a.gact.get((gpd.unit(a.anchor[y]), y))
            if uy != y:
                report.append(f"unit moves {y!r}")
    for g in d.gen_arrows():
        c = d.X(g)
        table = a.alph.get(g)
        if table is None:
            report.append(f"no action table for {g!r}")
            continue
        src, dst = d.shape.s(g), d.shape.r(g)
        for xi in c.carrier:
            for y in a.piece(src):
                has = (xi, y) in table
                want = c.smap[xi] == a.anchor[y]
                if has != want:
                    report.append(f"alpha({g!r}) domain wrong at ({xi!r},{y!r})")
                elif has:
                    z = table[(xi, y)]
                    if a.part[z] != dst or a.anchor[z] != c.rmap[xi]:
                        report.append(
                            f"alpha({g!r}) anchor wrong at ({xi!r},{y!r})")
        image = set(table.values())
        if image != set(a.piece(dst)):
            report.append(f"alpha({g!r}) not surjective onto the {dst!r} piece")
        # compatibility with the groupoid actions on both sides
        for xi in c.carrier:
            for y in a.piece(src):
                if (xi, y) not in table:
                    continue
                for gamma in d.gr[dst].arrow_ids():
                    if (gamma, xi) in c.lact:
                        lhs = a.gact.get((gamma, table[(xi, y)]))
                        rhs = table.get((c.lact[(gamma, xi)], y))
                        if lhs != rhs:
                            report.append(
                                f"(5.1) fails at ({gamma!r},{xi!r},{y!r})")
                for gamma in d.gr[src].arrow_ids():
                    if (xi, gamma) in c.ract and (gamma, y) in a.gact:
                        lhs = table.get((c.ract[(xi, gamma)], y))
                        rhs = table.get((xi, a.gact[(gamma, y)]))
                        if lhs != rhs:
                            report.append(
                                f"(5.1) fails at ({xi!r},{gamma!r},{y!r})")
        # (5.2): xi.y == xi'.y' forces co-orbital xi and y == <xi|xi'>.y'
        for (xi, y), z in table.items():
            for (xi2, y2), z2 in table.items():
                if z != z2:
                    continue
                if c.p(xi) != c.p(xi2):
                    report.append(f"(5.2) fails: {xi!r},{xi2!r} not co-orbital")
                    continue
                eta = inner_product(c, xi, xi2)
                if a.gact.get((eta, y2)) != y:
                    report.append(
                        f"(5.2) fails at ({xi!r},{y!r}) vs ({xi2!r},{y2!r})")
    for g, h, xi, eta, y in _incoherences(d, a):
        report.append(f"(5.1) fails at ({g!r},{h!r},{xi!r},{eta!r},{y!r})")
    return report


def _incoherences(d, a):
    """Mixed associativity: each (g, h, xi, eta, y) with xi.(eta.y) !=
    (xi.eta).y, over composable generator pairs with materialised gh and
    both tables (validate_action reports a missing one)."""
    for g in d.gen_arrows():
        for h in d.gen_arrows():
            gh = d.composite(g, h)
            if gh is None or not {g, h} <= a.alph.keys():
                continue
            ys = a.piece(d.shape.s(h))
            for xi, eta in composable(d.X(g), d.X(h)):
                prod = d.mu_apply(g, h, xi, eta)
                for y in ys:
                    inner = a.apply(h, eta, y)
                    if inner is None:
                        continue
                    if a.apply(g, xi, inner) != a.apply(gh, prod, y):
                        yield g, h, xi, eta, y


def singleton_thetas(d, a):
    """theta on the singleton slices of every materialised arrow."""
    out = {}
    for g in d.arrows():
        c = d.X(g)
        for xi in c.carrier:
            out[(g, xi)] = a.theta(g, frozenset([xi]))
    return out


def action_from_theta(d, part, anchor, thetas):
    """Rebuild the unique action inducing the given singleton thetas.

    ``thetas`` maps (arrow, xi) -> PartialBijection as produced by
    singleton_thetas.  The four reconstruction conditions
    are checked and violations raise ConditionFailed.
    """
    carrier = sorted(part, key=repr)

    def piece(x):
        return [y for y in carrier if part[y] == x]

    units = {x: d.shape.identity(x) for x in d.shape.objects}
    # (.4) anchors transform along theta, and domains are r^-1(s(xi))
    for (g, xi), pb in thetas.items():
        c = d.X(g)
        want_dom = {y for y in piece(d.shape.s(g))
                    if anchor[y] == c.smap[xi]}
        if set(pb.domain) != want_dom:
            raise ConditionFailed(".4", (g, xi, "domain"))
        for y, z in pb.mapping.items():
            if anchor[z] != c.rmap[xi] or part[z] != d.shape.r(g):
                raise ConditionFailed(".4", (g, xi, y))
    # (.1) multiplicativity on singleton slices
    for (g, xi), pb_g in thetas.items():
        for (h, eta), pb_h in thetas.items():
            gh = d.composite(g, h)
            if gh is None:
                continue
            cg, ch = d.X(g), d.X(h)
            if cg.smap[xi] != ch.rmap[eta]:
                expected = PartialBijection.empty()
            else:
                prod = d.mu_apply(g, h, xi, eta)
                expected = thetas[(gh, prod)]
            if pb_g * pb_h != expected:
                raise ConditionFailed(".1", (g, xi, h, eta))
    # (.2) braket law within each arrow
    arrows_seen = sorted({g for (g, _) in thetas}, key=repr)
    for g in arrows_seen:
        c = d.X(g)
        for xi in c.carrier:
            for eta in c.carrier:
                lhs = thetas[(g, xi)].star() * thetas[(g, eta)]
                if c.p(xi) != c.p(eta):
                    if lhs != PartialBijection.empty():
                        raise ConditionFailed(".2", (g, xi, eta))
                    continue
                k = inner_product(c, xi, eta)
                x_obj = d.shape.s(g)
                if lhs != thetas[(units[x_obj], k)]:
                    raise ConditionFailed(".2", (g, xi, eta))
    # (.3) images cover each target piece
    for g in d.gen_arrows():
        c = d.X(g)
        covered = set()
        for xi in c.carrier:
            covered.update(thetas[(g, xi)].image)
        if covered != set(piece(d.shape.r(g))):
            raise ConditionFailed(".3", g)
    gact = {}
    for x in d.shape.objects:
        gpd = d.gr[x]
        for gamma in gpd.arrow_ids():
            pb = thetas[(units[x], gamma)]
            for y, z in pb.mapping.items():
                gact[(gamma, y)] = z
    alph = {}
    for g in d.gen_arrows():
        table = {}
        for xi in d.X(g).carrier:
            for y, z in thetas[(g, xi)].mapping.items():
                table[(xi, y)] = z
        alph[g] = table
    a = FAction(d, carrier, part, anchor, gact, alph)
    report = validate_action(d, a)
    if report:
        raise ConditionFailed("action", report[0])
    return a


def equivariant_maps(a1, a2):
    """All equivariant maps between two actions of the same diagram.

    The maps come in lexicographic order of their values along
    ``a1.carrier``, each value ranked by its position in ``a2.carrier``.
    """
    return list(_propagated_maps(a1.table(), a2.table()))


def _propagated_maps(t1, t2, injective=False):
    """Equivariant maps between two action tables (see FAction.table), in
    the order of equivariant_maps.

    The first unassigned point of the first carrier is a root: each of
    its candidates in the second carrier fixes the image of everything
    it moves to, and a conflict, a missing move or a wrong frame cuts
    the branch.  With ``injective`` a target already used cuts it too.
    """
    (frame1, m1), (frame2, m2) = t1, t2
    carrier = tuple(frame1)
    f, used = {}, set()

    def assign(y, z, trail):
        stack = [(y, z)]
        while stack:
            y, z = stack.pop()
            if y in f:
                if f[y] != z:
                    return False
                continue
            if frame1[y] != frame2.get(z) or (injective and z in used):
                return False
            f[y] = z
            if injective:
                used.add(z)
            trail.append(y)
            for label, y2 in m1[y].items():
                z2 = m2[z].get(label)
                if z2 is None:
                    return False
                stack.append((y2, z2))
        return True

    def search(i):
        while i < len(carrier) and carrier[i] in f:
            i += 1
        if i == len(carrier):
            yield {y: f[y] for y in carrier}
            return
        for z in frame2:
            trail = []
            if assign(carrier[i], z, trail):
                yield from search(i + 1)
            for y in trail:
                used.discard(f.pop(y))

    yield from search(0)


def invariant_check(a, f):
    """Whether f is invariant: constant along every action move."""
    for (gamma, y), z in a.gact.items():
        if f[y] != f[z]:
            return False
    for table in a.alph.values():
        for (xi, y), z in table.items():
            if f[y] != f[z]:
                return False
    return True


def actions_isomorphic(a1, a2):
    return len(a1.carrier) == len(a2.carrier) and next(_propagated_maps(
        a1.table(), a2.table(), injective=True), None) is not None


def _left_actions(gpd, ys, anchor):
    """All left actions of a groupoid on a fibred finite set, listed as
    the product of one bijection per non-unit arrow would list them.

    Each composable pair (g, h) is checked at the first depth where g, h
    and gh all have tables (units have theirs from the start, and a
    missing gh counts as decided), which cuts only tables that would fail
    when finished.  An arrow gh that follows the non-unit arrows g and h
    gets the one table they force, the only candidate that check keeps.
    """
    ends = gpd.arrows
    units = set(gpd.identities.values())
    arrows = [g for g in gpd.arrow_ids() if g not in units]
    depth = {g: i + 1 for i, g in enumerate(arrows)}
    fibre = {x: [y for y in ys if anchor[y] == x] for x in gpd.objects}
    closing, forcing = [[] for _ in arrows + [0]], {}
    for g, h in gpd.composable_pairs():
        gh = gpd.compose.get((g, h))
        if h in units and gh == g:      # both sides are act[(g, y)]
            continue
        d = max(depth.get(g, 0), depth.get(h, 0), depth.get(gh, 0))
        closing[d].append((g, h, gh))
        if d == depth.get(gh) and g != gh != h and g in depth and \
                h in depth and (ends[h][0], ends[g][1]) == ends[gh]:
            forcing.setdefault(gh, (g, h))
    bijections = {e: list(_bijections(fibre.get(e[0], []),
                                      fibre.get(e[1], [])))
                  for e in {ends[g] for g in arrows if g not in forcing}}

    def tables(i, act):
        g = arrows[i]
        if g not in forcing:
            return bijections[ends[g]]
        a, b = forcing[g]       # a composite of two bijections
        return [{y: act[(a, act[(b, y)])] for y in fibre.get(ends[g][0], [])}]

    def associative(act, pairs):
        for g, h, gh in pairs:
            for y in ys:
                if (h, y) in act and \
                        act.get((gh, y)) != act.get((g, act[(h, y)])):
                    return False
        return True

    base = {(gpd.identities[anchor[y]], y): y for y in ys}
    return list(_backtrack(base, arrows, tables, closing, associative))


def _backtrack(act, labels, tables, closing, holds, i=0):
    """Extend act by one table {(labels[j], y): z} from ``tables(j, act)``
    for each j >= i, in product order, and yield every finished act; a
    branch is cut at depth j unless ``holds(act, closing[j])``."""
    if not holds(act, closing[i]):
        return
    if i == len(labels):
        yield dict(act)
        return
    for image in tables(i, act):
        act.update(((labels[i], y), z) for y, z in image.items())
        yield from _backtrack(act, labels, tables, closing, holds, i + 1)
        for y in image:
            del act[(labels[i], y)]


def presentation_actions(gens, relators, fibre):
    """Every action of a presented groupoid on a fibred finite set.

    ``gens`` maps each name to its (dst, src), ``fibre`` each object to
    its points, and ``relators`` are words of (name, power) pairs.  Each
    name, in the order of ``gens``, picks one bijection fibre[src] ->
    fibre[dst]; a relator is checked once every name in it has one."""
    names = list(gens)
    depth = {name: i + 1 for i, name in enumerate(names)}
    closing = [[] for _ in names + [0]]
    for r in relators:
        closing[max([depth.get(s, 0) for s, _ in r] + [0])].append(
            [(name, 1 if power > 0 else -1) for name, power in reversed(r)
             for _ in range(abs(power))])
    tables = [list(_bijections(fibre[gens[name][1]], fibre[gens[name][0]]))
              for name in names]
    return _backtrack({}, names, lambda i, act: tables[i], closing,
                      _relators_trivial)


def _relators_trivial(act, walks):
    """Whether each walk, a relator read right to left as (name, sign)
    steps, fixes each point from which it is defined."""
    if not walks:
        return True
    step = {}
    for (name, y), z in act.items():
        step[(name, 1, y)], step[(name, -1, z)] = z, y
    points = {y for (_, _, y) in step}
    for walk in walks:
        for y in points:
            z = y
            for name, sign in walk:
                z = step.get((name, sign, z))
                if z is None:
                    break
            else:
                if z != y:
                    return False
    return True


def _bijections(dom, cod):
    if len(dom) == len(cod):
        yield from (dict(zip(dom, image)) for image in permutations(cod))


def _equivariant_bijections(c, gact, ys_src, ys_dst, anchor):
    """All candidate alpha tables for one generator arrow: bijections,
    equivariant for the left actions, from the pairs (xi, y) modulo
    (xi.gamma, y) ~ (xi, gamma.y) onto the range piece."""
    pairs = [(xi, y) for xi in c.carrier for y in ys_src
             if c.smap[xi] == anchor[y]]

    def balance_moves():
        for (xi, y) in pairs:
            for gamma in c.right.arrow_ids():
                xig = c.ract.get((xi, gamma))
                giy = gact.get((c.right.invert(gamma), y))
                if xig is not None and giy is not None:
                    yield (xi, y), (xig, giy)

    canon = canonical_classes(pairs, balance_moves(), repr)
    classes = {}
    for p in pairs:
        classes.setdefault(canon[p], []).append(p)
    reps = sorted(classes, key=repr)
    if len(reps) != len(ys_dst):
        return
    arrows = c.left.arrow_ids()
    frame1 = {(xi, y): c.rmap[xi] for (xi, y) in reps}
    moves1 = {(xi, y): {gamma: canon[(c.lact[(gamma, xi)], y)]
                        for gamma in arrows if (gamma, xi) in c.lact}
              for (xi, y) in reps}
    frame2 = {z: anchor[z] for z in ys_dst}
    moves2 = {z: {gamma: gact[(gamma, z)] for gamma in arrows
                  if (gamma, z) in gact} for z in ys_dst}
    for f in _propagated_maps((frame1, moves1), (frame2, moves2),
                              injective=True):
        yield {p: f[rep] for rep in reps for p in classes[rep]}


def enumerate_actions(d, n):
    """All actions of the diagram on carriers of size <= n, one per
    isomorphism class: the first of each class in ``actions_on`` order.

    A relabelling carries a class onto every permutation of its frame, and
    the first of those in that order is the one whose (part, anchor) ranks
    never decrease along the carrier, so only such frames are searched.  A
    table is compared exactly only with the kept tables of its _iso_key.
    """
    return [a for (a, _), seen in _table_classes(
        (a, a.table()) for k in range(n + 1)
        for a in actions_on(d, list(range(k)), ordered=True)) if seen is None]


def _table_classes(pairs):
    """first_of_class on (item, action table) pairs by the class of the
    table, witnessed by an isomorphism and bucketed by its _iso_key."""
    ids = {}
    return first_of_class(pairs, lambda p, q: next(_propagated_maps(
        p[1], q[1], injective=True), None), lambda p: _iso_key(p[1], ids))


def _iso_key(table, ids):
    """A relabelling invariant of an action table: for each root, the
    frames and (label, index) moves of its forward closure, the points
    indexed in the order the moves reach them; sorted.  ``ids`` numbers
    the frames and labels, and the tables compared must share it."""
    frame, moves = table
    steps = {y: sorted((ids.setdefault(label, len(ids)), z)
                       for label, z in moves[y].items()) for y in frame}
    sigs = []
    for root in frame:
        index, order = {root: 0}, [root]
        for y in order:         # grows as the moves reach new points
            for _, z in steps[y]:
                if z not in index:
                    index[z] = len(order)
                    order.append(z)
        sigs.append(tuple((ids.setdefault(frame[y], len(ids)),
                           tuple((label, index[z]) for label, z in steps[y]))
                          for y in order))
    return tuple(sorted(sigs))


def actions_on(d, carrier, ordered=False):
    """Every action on the labelled carrier, over every part and anchor,
    in lexicographic order of the parts (ranked as in ``d.shape.objects``)
    and then of the anchors (ranked by repr).  With ``ordered``, only the
    frames whose (part, anchor) ranks never decrease along the carrier."""
    choose = combinations_with_replacement if ordered else \
        (lambda xs, k: product(xs, repeat=k))
    for parts in choose(list(d.shape.objects), len(carrier)):
        blocks = [choose(sorted(d.gr[x].objects, key=repr), len(list(ys)))
                  for x, ys in groupby(parts)]
        for anchors in product(*blocks):
            yield from _actions_with_frame(
                d, carrier, dict(zip(carrier, parts)),
                dict(zip(carrier, chain.from_iterable(anchors))))


def _actions_with_frame(d, carrier, part, anchor):
    pieces = {x: [y for y in carrier if part[y] == x]
              for x in d.shape.objects}
    gens = d.gen_arrows()
    for acts in product(*(list(_left_actions(d.gr[x], pieces[x], anchor))
                          for x in sorted(d.shape.objects, key=repr))):
        gact = {k: z for act in acts for k, z in act.items()}
        tables = []
        for g in gens:
            tables.append(list(_equivariant_bijections(
                d.X(g), gact, pieces[d.shape.s(g)], pieces[d.shape.r(g)],
                anchor)))
            if not tables[-1]:      # the product is empty already, so
                break               # the later generators go unsearched
        for alph in product(*tables):
            a = FAction(d, carrier, part, anchor, gact, dict(zip(gens, alph)))
            if _coherent(d, a):
                yield a


def _coherent(d, a):
    """Relation constraints: generator pairs act compatibly with mu."""
    return next(_incoherences(d, a), None) is None


class Transformation:
    """A strong transformation between two diagrams of the same shape.

    ``Y`` maps each object x to a correspondence G1_x <- G0_x and ``V``
    maps arrows g to tables (xi1, y) -> (y', xi0) realising the
    isomorphism X1_g . Y_{s(g)} ~ Y_{r(g)} . X0_g on representatives.
    """

    def __init__(self, d0, d1, Y, V):
        self.d0 = d0
        self.d1 = d1
        self.Y = dict(Y)
        self.V = {g: dict(t) for g, t in V.items()}


def identity_transformation(d):
    Y = {x: identity_correspondence(d.gr[x]) for x in d.shape.objects}
    V = {}
    for g in d.arrows():
        if d.shape.is_identity_arrow(g):
            continue
        c = d.X(g)
        table = {}
        for xi in c.carrier:
            for gamma in d.gr[d.shape.s(g)].arrow_ids():
                if (xi, gamma) in c.ract:
                    table[(xi, gamma)] = (
                        d.gr[d.shape.r(g)].unit(c.rmap[xi]),
                        c.ract[(xi, gamma)])
        V[g] = table
    return Transformation(d, d, Y, V)


def compose_transformations(t21, t10):
    """The composite transformation, built on composed correspondences."""
    d0, d2 = t10.d0, t21.d1
    Y, V = {}, {}
    for x in d0.shape.objects:
        Y[x] = compose(t21.Y[x], t10.Y[x])
    for g in t21.V:
        cx = Y[d0.shape.r(g)]
        c1g = t21.d1.X(g)
        ys = Y[d0.shape.s(g)]
        table = {}
        for xi2 in c1g.carrier:
            for i in ys.carrier:
                y21, y10 = ys.pairs[i]
                if c1g.smap[xi2] != t21.Y[d0.shape.s(g)].rmap[y21]:
                    continue
                y21p, xi1 = t21.V[g][(xi2, y21)]
                y10p, xi0 = t10.V[g][(xi1, y10)]
                table[(xi2, i)] = (cx.cls[(y21p, y10p)], xi0)
        V[g] = table
    return Transformation(d0, d2, Y, V)


def validate_transformation(t):
    """Element-wise check of the naturality squares of a transformation.

    The squares at an arrow are checked only where its Y(x) are valid
    correspondences; the diagrams themselves are assumed to pass
    ``validate_diagram``.
    """
    d0, d1 = t.d0, t.d1
    report = []
    invalid = set()             # objects whose Y(x) compose cannot take
    for x, c in t.Y.items():
        for line in validate_correspondence(c):
            report.append(f"Y({x!r}): {line}")
            invalid.add(x)
    for g, table in t.V.items():
        if d0.shape.s(g) in invalid or d0.shape.r(g) in invalid:
            continue
        c1, c0 = d1.X(g), d0.X(g)
        ys, yr = t.Y[d0.shape.s(g)], t.Y[d0.shape.r(g)]
        target = compose(yr, c0)
        source = compose(c1, ys)
        mid = c1.right
        vals = set()
        for (xi, y), (yp, xip) in table.items():
            if yr.rmap[yp] != c1.rmap[xi] or c0.smap[xip] != ys.smap[y]:
                report.append(f"V({g!r}) breaks anchors at ({xi!r},{y!r})")
            vals.add(target.cls[(yp, xip)])
            for k in mid.arrow_ids():
                xik = c1.ract.get((xi, k))
                kinv_y = ys.lact.get((mid.invert(k), y))
                if xik is None or kinv_y is None:
                    continue
                other = table.get((xik, kinv_y))
                if other is None or \
                        target.cls[(other[0], other[1])] != target.cls[(yp, xip)]:
                    report.append(f"V({g!r}) not balanced at ({xi!r},{y!r},{k!r})")
        if len(vals) != len(target.carrier) or \
                len({source.cls[p] for p in table}) != len(source.carrier):
            report.append(f"V({g!r}) is not a bijection of the composites")
    gens = [g for g in t.V]
    for g in gens:
        for h in gens:
            gh = d0.composite(g, h)
            if gh is None or gh not in t.V or d1.composite(g, h) is None or \
                    d0.shape.r(g) in invalid:
                continue
            cs = d1.X(g), d1.X(h), t.Y[d0.shape.s(h)]
            target = compose(t.Y[d0.shape.r(g)], d0.X(gh))
            for xi, eta, y in composable(*cs):
                # route A: V_h, then V_g, then mu0
                yp, eta0 = t.V[h][(eta, y)]
                ypp, xi0 = t.V[g][(xi, yp)]
                routeA = (ypp, d0.mu_apply(g, h, xi0, eta0))
                # route B: mu1, then V_{gh}
                prod = d1.mu_apply(g, h, xi, eta)
                routeB = t.V[gh].get((prod, y))
                if routeB is None or target.cls[routeA] != target.cls[routeB]:
                    report.append(f"square fails on ({g!r},{h!r}) at "
                                  f"({xi!r},{eta!r},{y!r})")
    return report


def validate_modification(t1, t2, W):
    """Check the squares of a modification W between two transformations."""
    report = []
    d0, d1 = t1.d0, t1.d1
    for x in d0.shape.objects:
        c1, c2 = t1.Y[x], t2.Y[x]
        w = W[x]
        for y in c1.carrier:
            if c2.rmap[w[y]] != c1.rmap[y] or c2.smap[w[y]] != c1.smap[y]:
                report.append(f"W({x!r}) breaks anchors at {y!r}")
        for (h, y), z in c1.lact.items():
            if c2.lact.get((h, w[y])) != w[z]:
                report.append(f"W({x!r}) not left equivariant at ({h!r},{y!r})")
        for (y, g), z in c1.ract.items():
            if c2.ract.get((w[y], g)) != w[z]:
                report.append(f"W({x!r}) not right equivariant at ({y!r},{g!r})")
    for g in t1.V:
        if g not in t2.V:
            continue
        x, z = d0.shape.r(g), d0.shape.s(g)
        target = compose(t2.Y[x], d0.X(g))
        for (xi, y), (yp, xi0) in t1.V[g].items():
            other = t2.V[g].get((xi, W[z][y]))
            if other is None or \
                    target.cls.get((W[x][yp], xi0)) != target.cls.get(other):
                report.append(f"modification square fails on {g!r} at "
                              f"({xi!r},{y!r})")
    return report

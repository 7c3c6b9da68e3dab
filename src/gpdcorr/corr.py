"""Groupoid correspondences over finite data.

A correspondence X: H <- G is a finite set with commuting left H- and
right G-actions whose right action is basic (here: free).  Composition
quotients the fibre product by the diagonal middle action.  Freeness
makes that quotient a lookup: each point of the first factor is its
orbit representative times exactly one middle arrow, and that
transversal carries every fibre pair to the one member of its class
whose first factor is a representative.  Composed carriers are
canonically relabelled as integer ranges, one block of consecutive
points per representative and one point in it per member of its fibre
in the second factor, with a stored provenance map so that iterated
composites stay comparable and serialisable.  In that layout both
actions of a composite are permutations of fibre indices, each computed
once per arrow and fibre and copied block by block, and the class map
is read off the row of points that each point of the first factor has.
"""

from itertools import repeat

from .errors import NotCoOrbital, ParseError
from .fincat import _hashable, canonical_classes
from .groupoid import (FinGroupoid, GroupoidAction, check_basic,
                       validate_groupoid)


class Correspondence:

    def __init__(self, left, right, carrier, rmap, smap, lact, ract,
                 pairs=None, cls=None):
        self.left = left
        self.right = right
        self.carrier = tuple(carrier)
        self.rmap = dict(rmap)
        self.smap = dict(smap)
        self.lact = dict(lact)      # (h, x) -> x'
        self.ract = dict(ract)      # (x, g) -> x'
        self.pairs = pairs          # provenance of composed carriers
        self.cls = cls              # fibre pair -> point, read off the rows
        self._index = {x: i for i, x in enumerate(self.carrier)}
        self._orbit_rep = None

    def right_action(self):
        return GroupoidAction(
            self.right, self.carrier, self.smap,
            {(g, x): y for (x, g), y in self.ract.items()}, side="right")

    def left_action(self):
        return GroupoidAction(self.left, self.carrier, self.rmap, self.lact,
                              side="left")

    def p(self, x):
        """Orbit projection for the right action, as a canonical member."""
        if self._orbit_rep is None:
            self._orbit_rep = canonical_classes(
                self.carrier, ((u, v) for (u, g), v in self.ract.items()),
                self._index.get)
        return self._orbit_rep[x]

    def orbits(self):
        reps = sorted({self.p(x) for x in self.carrier}, key=self._index.get)
        return [tuple(y for y in self.carrier if self.p(y) == r) for r in reps]

    def __len__(self):
        return len(self.carrier)


def identity_correspondence(gpd):
    """The arrow space of a groupoid acting on itself both ways."""
    arrows = gpd.arrow_ids()
    act = {(g, h): gpd.mul(g, h) for g, h in gpd.composable_pairs()}
    return Correspondence(gpd, gpd, arrows,
                          {x: gpd.dst(x) for x in arrows},
                          {x: gpd.src(x) for x in arrows}, act, act)


def from_group_hom(left_group, right_group, phi):
    """The tight correspondence of a group homomorphism.

    The carrier is the right-hand group with right multiplication, and
    the left group acts through phi: h.g = phi(h).g.
    """
    gl = FinGroupoid.from_group(left_group)
    gr = FinGroupoid.from_group(right_group)
    carrier = right_group.elements
    lact = {(h, x): right_group.op(phi[h], x) for h in left_group
            for x in carrier}
    ract = {(x, g): right_group.op(x, g) for x in carrier for g in right_group}
    return Correspondence(gl, gr, carrier, {x: "*" for x in carrier},
                          {x: "*" for x in carrier}, lact, ract)


def space_correspondence(left_points, right_points, rmap, smap, carrier=None):
    """A correspondence between spaces: a set with two maps."""
    carrier = tuple(carrier if carrier is not None else sorted(rmap, key=repr))
    gl = FinGroupoid.space(left_points)
    gr = FinGroupoid.space(right_points)
    lact = {(("u", rmap[x]), x): x for x in carrier}
    ract = {(x, ("u", smap[x])): x for x in carrier}
    return Correspondence(gl, gr, carrier, rmap, smap, lact, ract)


def disjoint_union_lift(c):
    """The induced correspondence over the disjoint union H | G."""
    both = FinGroupoid.disjoint_union([c.left, c.right], tags=("H", "G"))
    rmap = {x: ("H", c.rmap[x]) for x in c.carrier}
    smap = {x: ("G", c.smap[x]) for x in c.carrier}
    lact = {(("H", h), x): y for (h, x), y in c.lact.items()}
    ract = {(x, ("G", g)): y for (x, g), y in c.ract.items()}
    return Correspondence(both, both, c.carrier, rmap, smap, lact, ract)


def validate_correspondence(c):
    """Report violations of the correspondence axioms.

    The axioms read action keys as pairs, r and s at every carrier point
    and action entry point, and both groupoids as _acts_on does; where
    one of these fails, the report ends before the checks that read it.
    """
    report = [f"{side} groupoid: {line}"
              for side, gpd in (("left", c.left), ("right", c.right))
              for line in validate_groupoid(gpd)]
    broken = [f"{x!r} has no {name} value" for x in c.carrier
              for name, m in (("r", c.rmap), ("s", c.smap)) if x not in m]
    broken += [f"lact key {k!r} is not a (left arrow, carrier point) pair"
               for k in c.lact if not (isinstance(k, tuple) and len(k) == 2)]
    broken += [f"ract key {k!r} is not a (carrier point, right arrow) pair"
               for k in c.ract if not (isinstance(k, tuple) and len(k) == 2)]
    broken += [f"{name} value {y!r} at {k!r} is not a point"
               for name, table in (("lact", c.lact), ("ract", c.ract))
               for k, y in table.items() if not _hashable(y)]
    if broken:
        return report + broken
    points = [("lact", z) for (_, x), y in c.lact.items() for z in (x, y)] + [
        ("ract", z) for (x, _), y in c.ract.items() for z in (x, y)]
    named = [("r", x) for x in c.rmap] + [("s", x) for x in c.smap] + points
    report += [f"{name} names {x!r}, which is not in the carrier"
               for name, x in dict.fromkeys(named) if x not in c._index]
    if any(z not in c.rmap or z not in c.smap for _, z in points):
        return report
    for x in c.carrier:
        if c.rmap[x] not in c.left.objects:
            report.append(f"r({x!r}) is not an object of the left groupoid")
        if c.smap[x] not in c.right.objects:
            report.append(f"s({x!r}) is not an object of the right groupoid")
    if not (_acts_on(c.left) and _acts_on(c.right)):
        return report
    report.extend("left action: " + line for line in c.left_action().validate())
    report.extend("right action: " + line
                  for line in c.right_action().validate())
    for (h, x), y in c.lact.items():
        if c.smap[y] != c.smap[x]:
            report.append(f"s({h!r}.{x!r}) != s({x!r})")
    for (x, g), y in c.ract.items():
        if c.rmap[y] != c.rmap[x]:
            report.append(f"r({x!r}.{g!r}) != r({x!r})")
    for (h, x), y in c.lact.items():
        for g in c.right.arrow_ids():
            if (y, g) in c.ract and (x, g) in c.ract:
                other = c.lact.get((h, c.ract[(x, g)]))
                if other != c.ract[(y, g)]:
                    report.append(
                        f"actions do not commute at ({h!r},{x!r},{g!r})")
    ok, witness = check_basic(c.right_action())
    if not ok:
        report.append(f"right action not basic, witness {witness!r}")
    return report


def _acts_on(gpd):
    """Whether GroupoidAction.validate can read gpd: its arrow records are
    pairs, its objects and their units hashable, and its composites."""
    units = gpd.identities
    return all(isinstance(e, tuple) and len(e) == 2
               for e in gpd.arrows.values()) and all(
        _hashable(x) and x in units and _hashable(units[x])
        for x in gpd.objects) and all(map(_hashable, gpd.compose.values()))


def composable(*cs):
    """The points of X1 x_{s,r} X2 x_{s,r} ...: each tuple (x1, x2, ...) with
    s(x_i) == r(x_{i+1}), in carrier order, found as the nested loops over
    the carriers find them.  The s and r values are compared and never
    hashed, since a broken document can make them unhashable."""
    *init, c1, c2 = cs
    if init:
        return (t + (y,) for t in composable(*init, c1) for y in c2.carrier
                if c1.smap[t[-1]] == c2.rmap[y])
    return ((x, y) for x in c1.carrier for y in c2.carrier
            if c1.smap[x] == c2.rmap[y])


def inner_product(c, x1, x2):
    """The unique g with x2 == x1.g, if x1 and x2 are co-orbital."""
    if c.p(x1) != c.p(x2):
        raise NotCoOrbital(f"{x1!r} and {x2!r} lie in different orbits")
    for g in c.right.arrow_ids():
        if c.ract.get((x1, g)) == x2:
            return g
    raise NotCoOrbital(f"no arrow carries {x1!r} to {x2!r}")


class _Classes:
    """A composite's read-only class map, (x, y) -> row[x][index[s(x)][y]]:
    off the fibre product, and on keys that are not pairs, KeyError under
    [] and the default under get."""

    def __init__(self, row, index, smap):
        self.row, self.index, self.smap = row, index, smap

    def __getitem__(self, pair):
        try:
            x, y = pair
            return self.row[x][self.index[self.smap[x]][y]]
        except (KeyError, TypeError, ValueError):
            raise KeyError(pair) from None

    def get(self, pair, default=None):
        try:
            return self[pair]
        except KeyError:
            return default


def compose(c1, c2):
    """The composite correspondence (X x_s,r Y) / G, canonically relabelled.

    The right G-action on X must be free.  Then each x is p(x).t[x] for
    exactly one middle arrow t[x], where p(x) is the first point of the
    orbit of x in carrier order, and the class of a fibre pair (x, y)
    holds exactly one pair whose first factor is an orbit representative:
    (p(x), t[x].y), its least pair in carrier order.  The representatives
    x, in carrier order, each own a block of consecutive points of the
    composite, the j-th for (x, y) with y the j-th point of the r-fibre
    of s(x) in Y; ``pairs`` maps each point to its pair.  t[x] carries
    the fibre of x onto the block of p(x) by one permutation per (middle
    arrow, fibre), which gives the row of points of x; ``cls`` reads the
    point of every fibre pair (x, y) off the row of x, h.(x, y) is read
    off the row of h.x, and an arrow of G moves the second factor by one
    index map per (arrow, fibre).

    Raises ParseError when the middle groupoids differ, when two arrows
    take an orbit representative of X to the same point (the action is
    not free), when an orbit member is not one arrow away from its
    representative and when an action leads out of the fibre product
    (an entry is missing or moves the anchor it must keep).
    """
    if c1.right is not c2.left and \
            c1.right.arrows != c2.left.arrows:
        raise ParseError("middle groupoids differ")
    t = {}                      # x -> the middle arrow with x == p(x).t[x]
    for (x, g), v in c1.ract.items():
        if c1.p(x) == x:
            if v in t:
                raise ParseError(f"right action is not free: {t[v]!r} and "
                                 f"{g!r} both take {x!r} to {v!r}")
            t[v] = g
    index = {}                  # r-fibres of Y: r -> {y: its index}
    for y in c2.carrier:
        ys = index.setdefault(c2.rmap[y], {})
        ys[y] = len(ys)
    fibre = {v: tuple(ys) for v, ys in index.items()}
    block, pairs, rmap, smap = {}, {}, {}, {}   # block: rep -> its points
    for x in c1.carrier:
        if c1.p(x) == x:
            ys = fibre.get(c1.smap[x], ())
            ids = block[x] = tuple(range(len(pairs), len(pairs) + len(ys)))
            pairs.update(zip(ids, zip(repeat(x), ys)))
            rmap.update(zip(ids, repeat(c1.rmap[x])))
            smap.update(zip(ids, map(c2.smap.__getitem__, ys)))
    perm, row = {}, {}          # row[x][j]: the point of (x, fibre[j])
    for x in c1.carrier:
        px, tx, sx = c1.p(x), t.get(x), c1.smap[x]
        if tx is None:
            raise ParseError(f"{x!r} is not one arrow away from its orbit "
                             f"representative {px!r}")
        ys, key = fibre.get(sx, ()), (tx, sx, c1.smap[px])
        if key not in perm:
            into, perm[key] = index.get(key[2], {}), []
            for y in ys:
                ty = c2.lact.get((tx, y))
                if ty not in into:
                    raise ParseError(f"{tx!r}.{y!r} is not a point of the "
                                     f"second factor over {key[2]!r}")
                perm[key].append(into[ty])
        row[x] = list(map(block[px].__getitem__, perm[key]))
    blocks = [(x, ids, c1.smap[x]) for x, ids in block.items() if ids]
    lact = {}
    for h in c1.left.arrow_ids():
        sh = c1.left.src(h)
        for x, ids, sx in blocks:
            hx = c1.lact.get((h, x)) if c1.rmap[x] == sh else None
            if hx is not None:
                if hx not in row or c1.smap[hx] != sx:
                    raise ParseError(f"s({h!r}.{x!r}) != s({x!r})")
                lact.update(zip(zip(repeat(h), ids), row[hx]))
    places, ract = {}, {}       # (g, r) -> (js, ks): fibre[j].g == fibre[k]
    for g in c2.right.arrow_ids():
        dg = c2.right.dst(g)
        for x, ids, sx in blocks:
            if (g, sx) not in places:
                at, js, ks = index[sx], [], []
                for j, y in enumerate(fibre[sx]):
                    yg = c2.ract.get((y, g))
                    if yg is not None and c2.smap[y] == dg:
                        if yg not in at:
                            raise ParseError(f"r({y!r}.{g!r}) != r({y!r})")
                        js.append(j)
                        ks.append(at[yg])
                places[(g, sx)] = js, ks
            js, ks = places[(g, sx)]
            ract.update(zip(zip(map(ids.__getitem__, js), repeat(g)),
                            map(row[x].__getitem__, ks)))
    return Correspondence(c1.left, c2.right, range(len(pairs)), rmap, smap,
                          lact, ract, pairs, _Classes(row, index, c1.smap))


def classify(c):
    """Proper / regular / tight, through the induced map X/G -> H^0.

    On finite data the fibres are always finite, so every correspondence
    is proper; the flag is kept for interface stability.
    """
    objects = list(c.left.objects)
    image = {c.rmap[c.p(x)] for x in c.carrier}
    fibre_sizes = {}
    for x in c.carrier:
        rep = c.p(x)
        fibre_sizes.setdefault(c.rmap[rep], set()).add(rep)
    regular = image == set(objects)
    tight = regular and all(len(v) == 1 for v in fibre_sizes.values())
    return {"proper": True, "regular": regular, "tight": tight}


def is_slice(c, u):
    """s and the orbit projection must both be injective on a slice."""
    u = list(u)
    svals = [c.smap[x] for x in u]
    pvals = [c.p(x) for x in u]
    return len(set(svals)) == len(u) and len(set(pvals)) == len(u)


def slice_mult(c1, u, c2, v):
    """The slice U.V inside the composed correspondence.

    Returns (compose(c1, c2), set of composed-carrier points).
    """
    c12 = compose(c1, c2)
    uv = frozenset(c12.cls[(x, y)] for x in u for y in v
                   if c1.smap[x] == c2.rmap[y])
    return c12, uv


def slice_mult_right(c, u, v):
    """U.V inside X when V is a slice of the right groupoid."""
    return frozenset(c.ract[(x, g)] for x in u for g in v
                     if (x, g) in c.ract)


def braket(c, u1, u2):
    """The slice <U1|U2> = { <x|y> : x in U1, y in U2, p(x) == p(y) }."""
    out = set()
    for x in u1:
        for y in u2:
            if c.p(x) == c.p(y):
                out.add(inner_product(c, x, y))
    return frozenset(out)


def morita_check(c):
    """Whether the correspondence is an equivalence of groupoids."""
    if not check_basic(c.right_action())[0]:
        return False
    for x in c.carrier:
        for h in c.left.arrow_ids():
            if (h, x) in c.lact and c.lact[(h, x)] == x \
                    and not c.left.is_unit(h):
                return False
    right_orbit_reps = {c.p(x) for x in c.carrier}
    rstar = {c.rmap[rep] for rep in right_orbit_reps}
    if len(right_orbit_reps) != len(c.left.objects) or \
            rstar != set(c.left.objects):
        return False
    left_orbit_reps = set(canonical_classes(
        c.carrier, ((x, y) for (h, x), y in c.lact.items()),
        c._index.get).values())
    sstar = {c.smap[rep] for rep in left_orbit_reps}
    return len(left_orbit_reps) == len(c.right.objects) and \
        sstar == set(c.right.objects)


def associator(c1, c2, c3):
    """The canonical bijection ((c1.c2).c3) -> (c1.(c2.c3))."""
    c12 = compose(c1, c2)
    c23 = compose(c2, c3)
    left = compose(c12, c3)
    right = compose(c1, c23)
    out = {}
    for i in left.carrier:
        xy, z = left.pairs[i]
        x, y = c12.pairs[xy]
        out[i] = right.cls[(x, c23.cls[(y, z)])]
    return left, right, out

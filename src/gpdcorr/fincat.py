"""Finite categories and finitely generated shape categories.

A category is stored with explicit composition data: object ids, arrow
records with endpoints, and a composition table.  Arrows compose like
functions: ``compose(g, h)`` is "g after h" and is defined exactly when
``src(g) == dst(h)``.  ``product_table`` is the one composition walker
for the categories and groupoids the package builds.

Infinite shapes (free monoids, path categories, free commutative
monoids) are handled through :class:`PresentedShape` with an explicit
length bound.  Every operation on them is a truncation and results are
bound-relative.  Shape arrows are triples ``(dst, src, letters)`` where
``letters`` is a tuple of generator ids; the identity at ``x`` is
``(x, x, ())``.
"""

from collections import namedtuple

from .errors import BoundExceeded, NotSupported, ParseError


def canonical_classes(items, links, key):
    """Map each item to the key-least member of its connected component.

    ``links`` is an iterable of pairs of items, each joining the classes
    of its two ends.  Every quotient in the package takes its canonical
    representatives from here, so the answer depends only on the
    components and the key, not on the order of the links.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            if key(rb) < key(ra):
                ra, rb = rb, ra
            parent[rb] = ra
    return {x: find(x) for x in parent}


def first_of_class(items, same, key):
    """Yield each item with None if it opens its class, else with (first,
    witness): the earliest kept item of its ``key`` bucket for which the
    witness ``same(item, first)`` is not None.  ``same`` must decide an
    equivalence and ``key`` be constant on its classes."""
    kept = {}
    for item in items:
        bucket = kept.setdefault(key(item), [])
        for first in bucket:
            witness = same(item, first)
            if witness is not None:
                yield item, (first, witness)
                break
        else:
            bucket.append(item)
            yield item, None


def product_table(arrows, product):
    """The composition table ``{(g, h): product(g, h)}`` of built arrows.

    ``arrows`` maps each arrow to its (src, dst).  The pairs are those
    with src(g) == dst(h), in the order of the nested loops over
    ``arrows``, found through one index of the arrows by dst; a pair
    whose product is None is left out.
    """
    into = {}
    for h, (_, dst) in arrows.items():
        into.setdefault(dst, []).append(h)
    table = {}
    for g, (src, _) in arrows.items():
        for h in into.get(src, ()):
            gh = product(g, h)
            if gh is not None:
                table[(g, h)] = gh
    return table


class FinCategory:
    """A finite category given by an explicit composition table.

    ``arrows`` maps arrow id -> (src, dst); ``compose`` maps a pair of
    arrow ids (g, h) with src(g) == dst(h) to the id of g.h;
    ``identities`` maps object id -> arrow id.  ``truncated=True`` marks
    a finite truncation of an infinite category, in which case missing
    composites are out-of-bound rather than violations.
    """

    def __init__(self, objects, arrows, compose, identities, truncated=False):
        self.objects = tuple(objects)
        self.arrows = dict(arrows)
        self.compose = dict(compose)
        self.identities = dict(identities)
        self.truncated = truncated
        self._arrow_ids = tuple(sorted(self.arrows, key=repr))
        self._pairs = None

    def src(self, g):
        return self.arrows[g][0]

    def dst(self, g):
        return self.arrows[g][1]

    def identity(self, x):
        return self.identities[x]

    def is_identity(self, g):
        return g in self.identities.values()

    def composable(self, g, h):
        return self.src(g) == self.dst(h)

    def mul(self, g, h):
        return self.compose.get((g, h))

    def arrow_ids(self):
        return self._arrow_ids

    def composable_pairs(self):
        """Every (g, h) with src(g) == dst(h), in arrow_ids() order."""
        if self._pairs is None:
            self._pairs = [(g, h) for g in self._arrow_ids
                           for h in self._arrow_ids if self.composable(g, h)]
        return self._pairs

    @classmethod
    def terminal(cls):
        return cls(("*",), {"1": ("*", "*")}, {("1", "1"): "1"}, {"*": "1"})


def validate_category(cat):
    """Check the category axioms and report every violation found.

    The axioms hash every object, identity and composite and read every
    arrow record as a (source, target) pair; where one of these fails,
    the report names it and ends before them.
    """
    report = _unreadable(cat)
    if report:
        return report
    arrows = cat.arrow_ids()
    objects = set(cat.objects)
    report += [f"{end} {x!r} of {g!r} is not an object" for g in arrows
               for end, x in zip(("source", "target"), cat.arrows[g])
               if x not in objects]
    report += [f"identity key {x!r} is not an object"
               for x in cat.identities if x not in objects]
    for x in cat.objects:
        if x not in cat.identities:
            report.append(f"object {x!r} has no identity arrow")
        else:
            i = cat.identities[x]
            if i not in cat.arrows:
                report.append(f"identity {i!r} of {x!r} is not an arrow")
            elif cat.arrows[i] != (x, x):
                report.append(f"identity {i!r} of {x!r} has endpoints {cat.arrows[i]!r}")
    for (g, h), k in cat.compose.items():
        if g not in cat.arrows or h not in cat.arrows or k not in cat.arrows:
            report.append(f"composite entry ({g!r},{h!r})->{k!r} uses unknown arrows")
            continue
        if not cat.composable(g, h):
            report.append(f"compose({g!r},{h!r}) defined but src(g) != dst(h)")
        if cat.src(k) != cat.src(h) or cat.dst(k) != cat.dst(g):
            report.append(f"compose({g!r},{h!r}) = {k!r} has wrong endpoints")
    pairs = cat.composable_pairs()
    if not cat.truncated:
        report += [f"missing composite ({g!r},{h!r})" for g, h in pairs
                   if (g, h) not in cat.compose]
    for x, i in cat.identities.items():
        for g in arrows:
            if cat.src(g) == x:
                gi = cat.mul(g, i)
                if gi is not None and gi != g:
                    report.append(f"identity law fails: {g!r}.id_{x!r} = {gi!r}")
            if cat.dst(g) == x:
                ig = cat.mul(i, g)
                if ig is not None and ig != g:
                    report.append(f"identity law fails: id_{x!r}.{g!r} = {ig!r}")
    for g, h in pairs:
        gh = cat.mul(g, h)
        for k in arrows:
            if not cat.composable(h, k):
                continue
            hk = cat.mul(h, k)
            if gh is None or hk is None:
                continue
            lhs = cat.mul(gh, k)
            rhs = cat.mul(g, hk)
            if lhs is None or rhs is None:
                continue
            if lhs != rhs:
                report.append(
                    f"associativity fails on ({g!r},{h!r},{k!r}): "
                    f"(gh)k = {lhs!r}, g(hk) = {rhs!r}")
    return report


def _unreadable(cat):
    """The parts of a category that validate_category cannot read."""
    report = [f"object {x!r} is not hashable"
              for x in cat.objects if not _hashable(x)]
    report += [f"arrow {g!r} has the record {e!r}, not a (source, target) "
               "pair" for g, e in cat.arrows.items()
               if not (isinstance(e, tuple) and len(e) == 2 and _hashable(e))]
    report += [f"identity {i!r} of {x!r} is not hashable"
               for x, i in cat.identities.items() if not _hashable(i)]
    report += [f"compose key {k!r} is not a pair of arrows"
               for k in cat.compose
               if not (isinstance(k, tuple) and len(k) == 2)]
    report += [f"composite {k!r} of {gh!r} is not hashable"
               for gh, k in cat.compose.items() if not _hashable(k)]
    return report


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


FREE = "free"
PATH = "path"
COMM = "comm"
GROUP = "group"
FINITE = "finite"


class PresentedShape:
    """A shape category given by generators, with a length bound.

    Kinds: free monoid on generators, path category of a directed
    graph, free commutative monoid, a finite group, or an arbitrary
    finite category.  Arrow enumeration up to the bound is deterministic
    and prefix-closed.
    """

    def __init__(self, kind, objects, gens, gen_src, gen_dst, length_bound,
                 category=None):
        self.kind = kind
        self.objects = tuple(objects)
        self.gens = tuple(gens)
        self.gen_src = dict(gen_src)
        self.gen_dst = dict(gen_dst)
        self.length_bound = length_bound
        self.category = category

    @classmethod
    def free_monoid(cls, gens, length_bound=3):
        gens = tuple(gens)
        return cls(FREE, ("*",), gens, {a: "*" for a in gens},
                   {a: "*" for a in gens}, length_bound)

    @classmethod
    def path_category(cls, vertices, edges, length_bound=3):
        """``edges`` maps edge id -> (dst, src), matching arrow order."""
        gen_dst = {e: dv for e, (dv, sv) in edges.items()}
        gen_src = {e: sv for e, (dv, sv) in edges.items()}
        return cls(PATH, tuple(vertices), tuple(sorted(edges)), gen_src,
                   gen_dst, length_bound)

    @classmethod
    def free_commutative(cls, gens, length_bound=3):
        gens = tuple(sorted(gens))
        return cls(COMM, ("*",), gens, {a: "*" for a in gens},
                   {a: "*" for a in gens}, length_bound)

    @classmethod
    def group_shape(cls, category):
        """A one-object category all of whose arrows are invertible."""
        shape = cls.finite(category)
        shape.kind = GROUP
        return shape

    @classmethod
    def finite(cls, category):
        gens = tuple(a for a in category.arrow_ids()
                     if not category.is_identity(a))
        gen_src = {a: category.src(a) for a in gens}
        gen_dst = {a: category.dst(a) for a in gens}
        return cls(FINITE, category.objects, gens, gen_src, gen_dst, 1,
                   category=category)

    @classmethod
    def discrete(cls, objects):
        cat = FinCategory(
            tuple(objects), {("1", x): (x, x) for x in objects},
            {(("1", x), ("1", x)): ("1", x) for x in objects},
            {x: ("1", x) for x in objects})
        return cls.finite(cat)

    # -- arrows as (dst, src, letters) triples ------------------------------

    def identity(self, x):
        return (x, x, ())

    def r(self, a):
        return a[0]

    def s(self, a):
        return a[1]

    def length(self, a):
        return len(a[2])

    def is_identity_arrow(self, a):
        return a[2] == ()

    def generator_arrows(self):
        return [(self.gen_dst[g], self.gen_src[g], (g,)) for g in self.gens]

    def _from_id(self, aid):
        cat = self.category
        if cat.is_identity(aid):
            x = cat.src(aid)
            return (x, x, ())
        return (cat.dst(aid), cat.src(aid), (aid,))

    def compose(self, a, b):
        """The arrow a.b, or None when src(a) != dst(b)."""
        if a[1] != b[0]:
            return None
        if a[2] == ():
            return b
        if b[2] == ():
            return a
        if self.kind in (GROUP, FINITE):
            aid = self.category.compose[(a[2][0], b[2][0])]
            return self._from_id(aid)
        letters = a[2] + b[2]
        if self.kind == COMM:
            letters = tuple(sorted(letters))
        return (a[0], b[1], letters)

    def arrows(self, bound=None):
        """All arrows of word length <= bound, deterministically ordered."""
        bound = self.length_bound if bound is None else bound
        out = [self.identity(x) for x in sorted(self.objects, key=repr)]
        if self.kind in (GROUP, FINITE):
            out.extend(sorted(self.generator_arrows(), key=repr))
            return out
        layer = set(out)
        for _ in range(bound):
            layer = {self.compose(a, g) for a in layer
                     for g in self.generator_arrows()} - {None}
            out.extend(layer)
        return sorted(set(out), key=lambda a: (len(a[2]), repr(a)))

    def materialize(self, bound=None):
        """A truncated FinCategory with the enumerated arrows."""
        arrows = {a: (a[1], a[0]) for a in self.arrows(bound)}

        def product(a, b):
            c = self.compose(a, b)
            return c if c in arrows else None

        return FinCategory(self.objects, arrows,
                           product_table(arrows, product),
                           {x: self.identity(x) for x in self.objects},
                           truncated=self.kind not in (GROUP, FINITE))


OreResult = namedtuple("OreResult", ["status", "witness", "reason"])

IS_ORE = "IsOre"
NOT_ORE = "NotOre"
UNKNOWN = "Unknown"


def ore_check(shape, search_depth=4):
    """Certify or refute the right Ore conditions for a shape.

    Groups and free commutative monoids are certified structurally,
    finite categories exhaustively.  Free monoids and path categories
    are decided through unique letter factorisation: two coterminal
    words have a common right multiple exactly when one is a prefix of
    the other, so a pair of distinct generators with the same range is a
    sound refutation witness.
    """
    if search_depth < 1:
        raise ParseError(f"search depth must be positive, got {search_depth}")
    if shape.kind == GROUP:
        return OreResult(IS_ORE, None, "groups: h_i = g_i^-1 . (common)")
    if shape.kind == COMM or (shape.kind == FREE and len(shape.gens) <= 1):
        return OreResult(IS_ORE, None,
                         "commutative: componentwise max is a common multiple")
    if shape.kind in (FREE, PATH):
        by_dst = {}
        for g in shape.gens:
            by_dst.setdefault(shape.gen_dst[g], []).append(g)
        for x in sorted(by_dst, key=repr):
            gs = sorted(by_dst[x])
            if len(gs) > 1:
                g1 = (x, shape.gen_src[gs[0]], (gs[0],))
                g2 = (x, shape.gen_src[gs[1]], (gs[1],))
                return OreResult(NOT_ORE, (g1, g2),
                                 "free words with distinct first letters "
                                 "never extend to a common multiple")
        return OreResult(IS_ORE, None,
                         "at most one generator into each object: coterminal "
                         "words are prefix-comparable; cancellative")
    if shape.kind == FINITE:
        return _ore_check_finite(shape)
    return OreResult(UNKNOWN, None, f"unhandled kind {shape.kind}")


def _ore_check_finite(shape):
    cat = shape.category
    arrows = cat.arrow_ids()
    for g1 in arrows:
        for g2 in arrows:
            if cat.dst(g1) != cat.dst(g2):
                continue
            if not any(cat.mul(g1, h1) is not None and
                       cat.mul(g1, h1) == cat.mul(g2, h2)
                       for h1 in arrows for h2 in arrows
                       if cat.composable(g1, h1) and cat.composable(g2, h2)):
                a1 = shape._from_id(g1)
                a2 = shape._from_id(g2)
                return OreResult(NOT_ORE, (a1, a2), "no common right multiple")
    for g in arrows:
        for h1 in arrows:
            for h2 in arrows:
                if not (cat.composable(g, h1) and cat.composable(g, h2)):
                    continue
                if h1 == h2 or cat.mul(g, h1) != cat.mul(g, h2):
                    continue
                if cat.src(h1) != cat.src(h2):
                    continue
                if not any(cat.mul(h1, k) == cat.mul(h2, k)
                           for k in arrows if cat.composable(h1, k)):
                    return OreResult(
                        NOT_ORE,
                        (shape._from_id(g), shape._from_id(h1), shape._from_id(h2)),
                        "equal composites cannot be equalised on the right")
    return OreResult(IS_ORE, None, "exhaustive check over all arrows")


class ZigzagGroupoid:
    """Groupoid completion of an Ore shape, truncated at a length bound.

    Arrows are classes of zigzags (g, h) with s(g) == s(h); the class of
    (g, h) goes from r(h) to r(g).  Two zigzags are identified when they
    admit a common right extension (g.k1, h.k1) == (g'.k2, h'.k2) within
    the bound; representatives are the lexicographically least members.
    """

    @staticmethod
    def _key(pair):
        g, h = pair
        return (len(g[2]) + len(h[2]), repr(pair))

    def __init__(self, shape, bound):
        self.shape = shape
        self.bound = bound
        self.objects = shape.objects
        self._arrows = shape.arrows(bound)
        arrows = self._arrows
        pairs = [(g, h) for g in arrows for h in arrows if g[1] == h[1]]

        def extensions():
            for (g, h) in pairs:
                for k in arrows:
                    if k[0] != g[1] or k[2] == ():
                        continue
                    gk, hk = shape.compose(g, k), shape.compose(h, k)
                    if shape.length(gk) <= bound and shape.length(hk) <= bound:
                        yield (g, h), (gk, hk)

        self._canon = canonical_classes(pairs, extensions(), self._key)
        classes = {}
        for p in pairs:
            classes.setdefault(self._canon[p], []).append(p)
        self.classes = sorted(classes, key=self._key)
        self.members = {rep: sorted(classes[rep], key=self._key)
                        for rep in self.classes}

    def cls(self, g, h):
        return self._canon[(g, h)]

    def r(self, c):
        return c[0][0]

    def s(self, c):
        return c[1][0]

    def identity(self, x):
        i = self.shape.identity(x)
        return self.cls(i, i)

    def inv(self, c):
        return self.cls(c[1], c[0])

    def mul(self, c1, c2):
        """(g1 h1^-1).(g2 h2^-1) via a common extension h1 k1 == g2 k2."""
        if self.s(c1) != self.r(c2):
            return None
        shape = self.shape
        for (g1, h1) in self.members[c1]:
            for (g2, h2) in self.members[c2]:
                for k1 in self._arrows:
                    if k1[0] != h1[1]:
                        continue
                    h1k1 = shape.compose(h1, k1)
                    if shape.length(h1k1) > self.bound:
                        continue
                    for k2 in self._arrows:
                        if k2[0] != g2[1]:
                            continue
                        if shape.compose(g2, k2) != h1k1:
                            continue
                        g1k1 = shape.compose(g1, k1)
                        h2k2 = shape.compose(h2, k2)
                        if (shape.length(g1k1) <= self.bound and
                                shape.length(h2k2) <= self.bound):
                            return self.cls(g1k1, h2k2)
        raise BoundExceeded(
            f"no common extension for {c1!r}.{c2!r} within bound {self.bound}")

    def functor(self, g):
        """The canonical map shape -> completion, g -> class of g.1^-1."""
        return self.cls(g, self.shape.identity(g[1]))

    def as_fincategory(self):
        arrows = {c: (self.s(c), self.r(c)) for c in self.classes}

        def product(c1, c2):
            try:
                return self.mul(c1, c2)
            except BoundExceeded:
                return None

        return FinCategory(self.objects, arrows,
                           product_table(arrows, product),
                           {x: self.identity(x) for x in self.objects},
                           truncated=True)


def groupoid_completion(shape, bound=4):
    res = ore_check(shape)
    if res.status != IS_ORE:
        raise NotSupported(f"completion needs an Ore shape: {res.reason}")
    return ZigzagGroupoid(shape, bound)


def slice_category(shape, x, bound=3):
    """The category of arrows into x, with h: g1 -> g2 when g1 == g2.h."""
    shape_arrows = shape.arrows(bound)
    objects = [g for g in shape_arrows if g[0] == x]
    arrows = {}
    for g1 in objects:
        for g2 in objects:
            for h in shape_arrows:
                if h[0] == g2[1] and shape.compose(g2, h) == g1:
                    arrows[(g1, g2, h)] = (g1, g2)

    def product(a, b):
        k = (b[0], a[1], shape.compose(a[2], b[2]))
        return k if k in arrows else None

    ident = {g: (g, g, shape.identity(g[1])) for g in objects}
    return FinCategory(objects, arrows, product_table(arrows, product), ident,
                       truncated=True)

"""Finite groupoids, their actions, and pseudogroup machinery.

Everything is discrete, so "open", "continuous" and "local
homeomorphism" are vacuous; a basic action is the same as a free one.
Groupoids are finite categories with an explicit inverse map.  The germ
relation for pseudogroups of partial bijections is pointwise equality
of values; germ equality for abstract element calculi is delegated to
an oracle supplied by the caller.
"""

from .errors import NotEquivariant, OracleIncomplete, ParseError, Undefined
from .fincat import (FinCategory, _hashable, _unreadable, canonical_classes,
                     first_of_class, product_table, validate_category)


class Group:
    """A finite group given by a multiplication table."""

    def __init__(self, elements, mul, identity="1"):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.identity = identity
        names = set(self.elements)
        if identity not in names:
            raise ParseError(f"not a group: no element {identity!r}")
        if set(self.mul) != {(a, b) for a in names for b in names} or \
                not names.issuperset(self.mul.values()):
            raise ParseError("not a group: mul is not a table on the elements")
        self.inv = {}
        for a in self.elements:
            for b in self.elements:
                if self.mul[(a, b)] == identity:
                    self.inv[a] = b
        if len(self.inv) != len(self.elements):
            raise ParseError("not a group: missing inverses")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def op(self, a, b):
        return self.mul[(a, b)]

    @classmethod
    def trivial(cls):
        return cls(("1",), {("1", "1"): "1"})

    @classmethod
    def cyclic(cls, n):
        names = ["1"] + ["a" if k == 1 else f"a{k}" for k in range(1, n)]
        mul = {(names[i], names[j]): names[(i + j) % n]
               for i in range(n) for j in range(n)}
        return cls(names, mul)


class FinGroupoid(FinCategory):
    """A finite groupoid: a finite category with an inverse map."""

    def __init__(self, objects, arrows, compose, identities, inv):
        super().__init__(objects, arrows, compose, identities)
        self.inv = dict(inv)

    unit = FinCategory.identity
    is_unit = FinCategory.is_identity

    def invert(self, g):
        return self.inv[g]

    def __len__(self):
        return len(self.arrows)

    @classmethod
    def from_group(cls, group):
        return cls(("*",), {g: ("*", "*") for g in group.elements},
                   {(a, b): group.op(a, b) for a in group for b in group},
                   {"*": group.identity}, group.inv)

    @classmethod
    def space(cls, points):
        return cls(tuple(points), {("u", x): (x, x) for x in points},
                   {(("u", x), ("u", x)): ("u", x) for x in points},
                   {x: ("u", x) for x in points},
                   {("u", x): ("u", x) for x in points})

    @classmethod
    def semidirect(cls, gpd, carrier, anchor, act):
        """The transformation groupoid of a groupoid action on a finite set.

        Arrows are pairs (gamma, w) from w to gamma.w for anchor-matching
        points w.
        """
        arrows = {}
        for g in gpd.arrow_ids():
            for w in carrier:
                if anchor[w] == gpd.src(g):
                    arrows[(g, w)] = (w, act[(g, w)])
        comp = product_table(
            arrows, lambda a2, a1: (gpd.mul(a2[0], a1[0]), a1[1]))
        ident = {w: (gpd.unit(anchor[w]), w) for w in carrier}
        inv = {(g, w): (gpd.invert(g), act[(g, w)]) for (g, w) in arrows}
        return cls(tuple(carrier), arrows, comp, ident, inv)

    @classmethod
    def transformation(cls, group, points, action):
        """The groupoid of a group action: arrows (g, v) from v to g.v."""
        points = tuple(points)
        return cls.semidirect(cls.from_group(group), points,
                              dict.fromkeys(points, "*"), action)

    @classmethod
    def disjoint_union(cls, groupoids, tags=None):
        tags = tags or [str(i) for i in range(len(groupoids))]
        objects, arrows, comp, ident, inv = [], {}, {}, {}, {}
        for tag, g in zip(tags, groupoids):
            objects.extend((tag, x) for x in g.objects)
            for a, (s, d) in g.arrows.items():
                arrows[(tag, a)] = ((tag, s), (tag, d))
            for (a, b), c in g.compose.items():
                comp[((tag, a), (tag, b))] = (tag, c)
            for x, i in g.identities.items():
                ident[(tag, x)] = (tag, i)
            for a, b in g.inv.items():
                inv[(tag, a)] = (tag, b)
        return cls(objects, arrows, comp, ident, inv)


def validate_groupoid(gpd):
    """Check the category axioms and the inverse laws.

    The inverse laws hash every inverse and look up the units at both
    ends of every arrow that has one; where that fails, or the category
    cannot be read, the report ends before them.
    """
    report = validate_category(gpd)
    if _unreadable(gpd):
        return report
    broken = [f"inverse {gi!r} of {g!r} is not hashable"
              for g, gi in gpd.inv.items() if not _hashable(gi)]
    broken += [f"{end} {x!r} of {g!r} has no unit" for g in gpd.arrow_ids()
               if gpd.inv.get(g) is not None
               for end, x in zip(("source", "target"), gpd.arrows[g])
               if x not in gpd.identities]
    if broken:
        return report + broken
    for g in gpd.arrow_ids():
        gi = gpd.inv.get(g)
        if gi is None:
            report.append(f"arrow {g!r} has no inverse")
            continue
        if gpd.inv.get(gi) != g:
            report.append(f"inverse of {g!r} is not an involution")
        if gpd.mul(g, gi) != gpd.unit(gpd.dst(g)):
            report.append(f"{g!r}.inv({g!r}) is not the unit at dst")
        if gpd.mul(gi, g) != gpd.unit(gpd.src(g)):
            report.append(f"inv({g!r}).{g!r} is not the unit at src")
    for g in gpd.inv:
        if g not in gpd.arrows:
            report.append(f"inv names {g!r}, which is not an arrow")
    return report


class GroupoidAction:
    """An action of a finite groupoid on a finite set.

    For a left action the anchor is the range map r_Y: g.y is defined
    when src(g) == anchor(y) and lands at anchor dst(g).  For a right
    action the anchor is the source map s_Y: y.g is defined when
    anchor(y) == dst(g) and lands at anchor src(g).  ``act`` maps
    (arrow, point) -> point in both cases.
    """

    def __init__(self, groupoid, carrier, anchor, act, side="right"):
        if side not in ("left", "right"):
            raise ParseError(f"side must be 'left' or 'right', got {side!r}")
        self.groupoid = groupoid
        self.carrier = tuple(carrier)
        self.anchor = dict(anchor)
        self.act = dict(act)
        self.side = side

    def defined(self, g, y):
        gp = self.groupoid
        if self.side == "left":
            return gp.src(g) == self.anchor[y]
        return self.anchor[y] == gp.dst(g)

    def validate(self):
        gp = self.groupoid
        report = []
        for g in gp.arrow_ids():
            for y in self.carrier:
                has = (g, y) in self.act
                if has != self.defined(g, y):
                    report.append(f"domain of action wrong at ({g!r},{y!r})")
                if not has:
                    continue
                z = self.act[(g, y)]
                want = gp.dst(g) if self.side == "left" else gp.src(g)
                if self.anchor[z] != want:
                    report.append(f"anchor of {g!r}.{y!r} is not {want!r}")
        for x in gp.objects:
            u = gp.unit(x)
            for y in self.carrier:
                if (u, y) in self.act and self.act[(u, y)] != y:
                    report.append(f"unit at {x!r} moves {y!r}")
        for g, h in gp.composable_pairs():
            gh = gp.mul(g, h)
            if gh is None:
                continue
            # left: g.(h.y) == (g.h).y; right: (y.g).h == y.(g.h)
            first, then = (h, g) if self.side == "left" else (g, h)
            for y in self.carrier:
                if (first, y) not in self.act:
                    continue
                if self.act.get((then, self.act[(first, y)])) != \
                        self.act.get((gh, y)):
                    report.append(
                        f"associativity fails at ({g!r},{h!r},{y!r})")
        return report


def check_basic(action):
    """Whether (y, g) -> (y.g, y) is injective; discretely, freeness.

    Returns (flag, witness); the witness is a pair (y, g) with y.g == y
    for a non-unit g when the action is not basic.
    """
    if action.side != "right":
        raise ParseError("check_basic needs a right action")
    gp = action.groupoid
    for y in action.carrier:
        for g in gp.arrow_ids():
            if (g, y) in action.act and action.act[(g, y)] == y \
                    and not gp.is_unit(g):
                return False, (y, g)
    return True, None


def orbit_space(action):
    """The partition of the carrier into orbits, with the class map."""
    proj = canonical_classes(
        action.carrier, ((y, z) for (g, y), z in action.act.items()), repr)
    orbits = {}
    for y, rep in proj.items():
        orbits.setdefault(rep, []).append(y)
    return [tuple(sorted(orbits[rep], key=repr))
            for rep in sorted(orbits, key=repr)], proj


class PartialBijection:
    """An injective partial map of a finite set."""

    def __init__(self, mapping):
        mapping = dict(mapping)
        if len(set(mapping.values())) != len(mapping):
            raise ParseError("partial bijection is not injective")
        self.mapping = mapping
        self._key = frozenset(mapping.items())

    @classmethod
    def identity(cls, points):
        return cls({y: y for y in points})

    @classmethod
    def empty(cls):
        return cls({})

    @property
    def domain(self):
        return frozenset(self.mapping)

    @property
    def image(self):
        return frozenset(self.mapping.values())

    def __call__(self, y):
        return self.mapping.get(y)

    def __mul__(self, other):
        return PartialBijection({y: self.mapping[z]
                                 for y, z in other.mapping.items()
                                 if z in self.mapping})

    def star(self):
        return PartialBijection({z: y for y, z in self.mapping.items()})

    def restrict(self, dom):
        return PartialBijection({y: z for y, z in self.mapping.items()
                                 if y in dom})

    def is_partial_identity(self):
        return all(y == z for y, z in self.mapping.items())

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        items = sorted(self.mapping.items(), key=repr)
        return "pbij{" + ", ".join(f"{y!r}->{z!r}" for y, z in items) + "}"


def pseudogroup_closure(gens):
    """Close a set of partial bijections under composition and inverse.

    The empty map is always included; restrictions to the subdomains
    generated by the occurring domains arise as composites with the
    idempotents f*f.
    """
    if isinstance(gens, dict):
        gens = list(gens.values())
    closure = {PartialBijection.empty()}
    closure.update(gens)
    closure.update(f.star() for f in list(closure))
    frontier = set(closure)
    while frontier:
        new = set()
        for f in frontier:
            for g in closure:
                for h in (f * g, g * f):
                    if h not in closure:
                        new.add(h)
        for f in new:
            fi = f.star()
            if fi not in closure and fi not in new:
                new.add(fi)
        closure.update(new)
        frontier = new
    return closure


class GermGroupoid:
    """Germs of a pseudogroup on a finite set.

    Discretely a germ is determined by its source and value, so the
    arrows form an equivalence relation on the carrier and the groupoid
    is effective by construction.  Arrow identity is the canonical
    (src, dst, minimal label) triple.

    A walk along generators and their inverses is defined at its start
    and is there the germ of its composite, so the germs are the pairs
    of points in one component of the generators' graphs: no closure
    of the pseudogroup is built.
    """

    def __init__(self, gens, carrier):
        self.carrier = tuple(carrier)
        self.labels = {}
        for label, f in sorted(gens.items()):
            for y, z in f.mapping.items():
                self.labels.setdefault((y, z), label)
        points = [*self.carrier, *(y for edge in self.labels for y in edge)]
        components = {}
        for y, rep in canonical_classes(points, self.labels, repr).items():
            components.setdefault(rep, []).append(y)
        germs = {(y, z) for ys in components.values() for y in ys for z in ys}
        self.germs = sorted(germs, key=repr)
        self._germ_set = germs

    def arrow(self, y, z):
        if (y, z) not in self._germ_set:
            raise Undefined("no germ from {!r} to {!r}", y, z)
        return (y, z, self.labels.get((y, z), "id" if y == z else "w"))

    def arrows(self):
        return [self.arrow(y, z) for (y, z) in self.germs]

    def is_unit(self, arrow):
        return arrow[0] == arrow[1]

    def to_fingroupoid(self):
        arrows = {self.arrow(y, z): (y, z) for (y, z) in self.germs}
        comp = product_table(arrows, lambda a2, a1: self.arrow(a1[0], a2[1]))
        ident = {y: self.arrow(y, y) for y in self.carrier}
        inv = {self.arrow(y, z): self.arrow(z, y) for (y, z) in self.germs}
        return FinGroupoid(self.carrier, arrows, comp, ident, inv)


def germ_groupoid(gens, carrier):
    return GermGroupoid(gens, carrier)


def pointwise_oracle(apply):
    """The germ oracle of a concrete pseudogroup: equality of values."""

    def oracle(t, u, x):
        return apply(t, x) is not None and apply(t, x) == apply(u, x)

    return oracle


class TransformationGroupoid:
    """Arrows [t, x] for an inverse-semigroup-like calculus acting on a set.

    ``elements`` is a finite list of formal elements, ``mul`` their
    product, ``apply(t, x)`` the partial action, and ``oracle(t, u, x)``
    decides whether there is an idempotent e defined at x with te == ue;
    it must be an equivalence relation on the elements defined at x.
    Its classes are built lazily, once per point, and a declined query
    (the oracle returns None) raises OracleIncomplete when they are.
    ``unit_of(x)`` names an idempotent defined at x.
    """

    def __init__(self, elements, mul, apply, oracle, carrier, unit_of):
        self.elements = list(elements)
        self._index = {t: i for i, t in enumerate(self.elements)}
        self.mul = mul
        self.apply = apply
        self.oracle = oracle
        self.carrier = tuple(carrier)
        self.unit_of = unit_of
        self._by_point = {}     # x -> {t defined at x: its class's rep}

    def _ask(self, t, u, x):
        ans = self.oracle(t, u, x)
        if ans is None:
            raise OracleIncomplete(f"germ query ({t!r},{u!r},{x!r}) declined")
        return ans

    def classes(self, x):
        """Each element defined at x, mapped to its class's least member."""
        if x not in self._by_point:
            classes = first_of_class(
                (t for t in self.elements if self.apply(t, x) is not None),
                lambda t, u: self._ask(t, u, x) or None, lambda t: x)
            self._by_point[x] = {t: seen[0] if seen else t
                                 for t, seen in classes}
        return self._by_point[x]

    def arrow(self, t, x):
        """Canonical class representative of (t, x)."""
        cls = self.classes(x)
        if t in cls:
            return (cls[t], x)
        if t in self._index or self.apply(t, x) is None:
            raise Undefined("{!r} is not defined at {!r}", t, x)
        for u in dict.fromkeys(cls.values()):
            if self._ask(t, u, x):
                return (u, x)
        raise OracleIncomplete(f"the germ of {t!r} at {x!r} is not the germ "
                               "of an element")

    def arrows(self):
        at = [(x, self.classes(x)) for x in self.carrier]
        return list(dict.fromkeys((t, x) for t in self.elements
                                  for x, cls in at if cls.get(t) is t))

    def r(self, arrow):
        return self.apply(*arrow)

    def s(self, arrow):
        return arrow[1]

    def compose(self, a2, a1):
        (u, y), (t, x) = a2, a1
        if y != self.apply(t, x):
            raise Undefined("arrows {!r} and {!r} are not composable", a2, a1)
        ut = self.mul(u, t)
        if ut not in self._index:
            raise OracleIncomplete(f"product {u!r}.{t!r} left the universe")
        return self.arrow(ut, x)

    def is_unit(self, arrow):
        t, x = arrow
        e, cls = self.unit_of(x), self.classes(x)
        if t in cls and e in cls:
            return cls[t] == cls[e]
        return self._ask(t, e, x)


def transformation_groupoid(elements, mul, apply, oracle, carrier, unit_of):
    return TransformationGroupoid(elements, mul, apply, oracle, carrier,
                                  unit_of)


def _concrete_oracle(semigroup, theta):
    idempotents = [e for e in semigroup if theta[e].is_partial_identity()]

    def oracle(t, u, x):
        for e in idempotents:
            if theta[e](x) is not None and theta[t] * theta[e] == theta[u] * theta[e]:
                return True
        return False

    return oracle


def isg_action_vs_groupoid_action(semigroup, theta_x, carrier_x,
                                  theta_y=None, f=None, carrier_y=None,
                                  action=None):
    """Pass between S-actions with an equivariant map and (S x X)-actions.

    ``semigroup`` is a finite list of formal elements closed under
    products and stars in the sense that ``theta_x`` (a dict element ->
    PartialBijection on X) is a faithful copy.  Given (theta_y, f) the
    induced action of the transformation groupoid on Y is returned;
    given an ``action`` of that groupoid the pair (theta_y, f) is
    recovered.  Round trips are the identity.
    """
    oracle = _concrete_oracle(semigroup, theta_x)

    def unit_of(x):
        for e in semigroup:
            if theta_x[e].is_partial_identity() and theta_x[e](x) is not None:
                return e
        raise OracleIncomplete(f"no idempotent defined at {x!r}")

    gpd = transformation_groupoid(
        list(semigroup), lambda a, b: _mul_in(semigroup, theta_x, a, b),
        lambda t, x: theta_x[t](x), oracle, carrier_x, unit_of)
    if action is None:
        act = {}
        for t in semigroup:
            for y in carrier_y:
                ty, tx = theta_y[t](y), theta_x[t](f[y])
                if (ty is None) != (tx is None) or \
                        ty is not None and f[ty] != tx:
                    raise NotEquivariant((t, y))
                if ty is not None:
                    act[(gpd.arrow(t, f[y]), y)] = ty
        return gpd, act
    theta_y = {t: PartialBijection(
        {y: action[(gpd.arrow(t, f[y]), y)]
         for y in carrier_y if theta_x[t](f[y]) is not None})
        for t in semigroup}
    return theta_y, dict(f)


def _mul_in(semigroup, theta, a, b):
    prod = theta[a] * theta[b]
    for c in semigroup:
        if theta[c] == prod:
            return c
    raise OracleIncomplete(f"product of {a!r} and {b!r} not in the semigroup")

"""Complexes of groups and their fundamental groups.

A complex of groups is a tight diagram of groups: a group per object,
a homomorphism phi_g from the range group to the source group per
arrow, and twisting elements u_{g,h} satisfying a cocycle identity.
``model_presentation`` is the one presentation builder: the groupoid
model by generators with endpoints and relators.  The fundamental group
is that presentation with the endpoints forgotten, or the isotropy at
the cone point of ``cone_extend`` (Bridson-Haefliger III.C).  All
verification goes through canonical string forms and homomorphism
counting into symmetric groups, never through element enumeration.

Presentation symbols are ("arr", g) for non-unit shape arrows and
("elt", x, gamma) for non-identity group elements; unit-arrow
generators are eliminated eagerly.
"""

from math import factorial

from .diagram import from_complex, presentation_actions
from .errors import NotSupported
from .fincat import FinCategory, canonical_classes, validate_category
from .groupoid import Group


class ComplexOfGroups:

    def __init__(self, shape, groups, homs, twists):
        self.shape = shape
        self.groups = dict(groups)
        self.homs = {g: dict(h) for g, h in homs.items()}
        self.twists = dict(twists)

    def nonunit_arrows(self):
        return [g for g in self.shape.arrow_ids()
                if not self.shape.is_identity(g)]


def validate_cgx(c):
    """Check the shape, then the homomorphism, normalisation and cocycle
    conditions."""
    cat = c.shape
    report = [f"shape: {line}" for line in validate_category(cat)]
    if report:
        return report, {}
    for g in cat.arrow_ids():
        gr_r, gr_s = c.groups[cat.dst(g)], c.groups[cat.src(g)]
        phi = c.homs[g]
        for a in gr_r:
            for b in gr_r:
                if phi[gr_r.op(a, b)] != gr_s.op(phi[a], phi[b]):
                    report.append(f"phi({g!r}) is not a homomorphism")
        if cat.is_identity(g) and any(phi[a] != a for a in gr_r):
            report.append(f"phi at unit {g!r} is not the identity")
    for (g, h) in cat.composable_pairs():
        u = c.twists[(g, h)]
        gs = c.groups[cat.src(h)]
        if cat.is_identity(h) or cat.is_identity(g):
            if u != gs.identity:
                report.append(f"twist at unit pair ({g!r},{h!r}) is not 1")
            continue
        gh = cat.mul(g, h)
        for gamma in c.groups[cat.dst(g)]:
            lhs = gs.op(gs.op(u, c.homs[h][c.homs[g][gamma]]), gs.inv[u])
            if lhs != c.homs[gh][gamma]:
                report.append(f"Ad(u).phi_h.phi_g != phi_gh at ({g!r},{h!r})")
                break
    for g, h in _nonunit_pairs(cat):
        gh = cat.mul(g, h)
        for k in c.nonunit_arrows():
            if not cat.composable(h, k):
                continue
            hk = cat.mul(h, k)
            gk = c.groups[cat.src(k)]
            lhs = gk.op(c.twists[(gh, k)], c.homs[k][c.twists[(g, h)]])
            rhs = gk.op(c.twists[(g, hk)], c.twists[(h, k)])
            if lhs != rhs:
                report.append(f"cocycle fails on ({g!r},{h!r},{k!r})")
    flags = {"injective_loopfree": _injective_loopfree(c)}
    return report, flags


def _injective_loopfree(c):
    """All homomorphisms injective over a loop-free shape.

    This is the classical geometric-group-theory notion of a complex of
    groups; the validator only reports the flag, it is not required.
    """
    cat = c.shape
    for g in c.nonunit_arrows():
        if cat.src(g) == cat.dst(g):
            return False
        phi = c.homs[g]
        if len(set(phi.values())) != len(phi):
            return False
    return not any(cat.is_identity(cat.mul(g, h))
                   for g, h in _nonunit_pairs(cat))


def _nonunit_pairs(cat):
    """The composable pairs of non-unit arrows, in arrow_ids() order."""
    return [(g, h) for g, h in cat.composable_pairs()
            if not (cat.is_identity(g) or cat.is_identity(h))]


class GroupPresentation:

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        self.relators = tuple(tuple(r) for r in relators)

    def __eq__(self, other):
        return isinstance(other, GroupPresentation) and \
            self.generators == other.generators and \
            self.relators == other.relators

    def __repr__(self):
        return f"GroupPresentation({len(self.generators)} gens, " \
               f"{len(self.relators)} relators)"


class GroupoidPresentation:

    def __init__(self, objects, generators, relators):
        self.objects = tuple(objects)
        self.generators = dict(generators)    # symbol -> (dst, src)
        self.relators = tuple(tuple(r) for r in relators)


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(word):
    word = free_reduce(word)
    while len(word) >= 2 and word[0][0] == word[-1][0] and \
            word[0][1] == -word[-1][1]:
        word = free_reduce(word[1:-1])
    return word


def _invert(word):
    return tuple((s, -p) for (s, p) in reversed(word))


def canonical_word(word):
    word = cyclic_reduce(word)
    if not word:
        return word
    candidates = []
    for w in (word, _invert(word)):
        for i in range(len(w)):
            candidates.append(w[i:] + w[:i])
    return min(candidates, key=repr)


def canonical_presentation(generators, relators):
    gens = tuple(sorted(set(generators), key=repr))
    rels = sorted({canonical_word(r) for r in relators if canonical_word(r)},
                  key=repr)
    return GroupPresentation(gens, rels)


def _elt(x, gamma, group):
    if gamma == group.identity:
        return ()
    return ((("elt", x, gamma), 1),)


def _relators_of(c):
    """The four relator families, with unit generators eliminated."""
    cat = c.shape
    rels = []
    for x in cat.objects:
        gx = c.groups[x]
        for a in gx:
            for b in gx:
                if a == gx.identity or b == gx.identity:
                    continue
                word = _elt(x, a, gx) + _elt(x, b, gx) + \
                    _invert(_elt(x, gx.op(a, b), gx))
                rels.append(word)
    for g in c.nonunit_arrows():
        x, y = cat.dst(g), cat.src(g)
        gx, gy = c.groups[x], c.groups[y]
        for gamma in gx:
            if gamma == gx.identity:
                continue
            word = ((("arr", g), 1),) + _elt(y, c.homs[g][gamma], gy) + \
                ((("arr", g), -1),) + _invert(_elt(x, gamma, gx))
            rels.append(word)
    for g, h in _nonunit_pairs(cat):
        gh = cat.mul(g, h)
        gs = c.groups[cat.src(h)]
        ghw = () if cat.is_identity(gh) else ((("arr", gh), 1),)
        word = ((("arr", g), 1), (("arr", h), 1)) + \
            _invert(_elt(cat.src(h), c.twists[(g, h)], gs)) + _invert(ghw)
        rels.append(word)
    return rels


def fundamental_group(c):
    """The presented fundamental group: the model presentation with the
    endpoints of its generators forgotten."""
    pres = model_presentation(c)
    return canonical_presentation(pres.generators, pres.relators)


def model_presentation(c):
    """The groupoid-model presentation: generators with endpoints."""
    cat = c.shape
    generators = {("arr", g): (cat.dst(g), cat.src(g))
                  for g in c.nonunit_arrows()}
    for x in cat.objects:
        for gamma in c.groups[x]:
            if gamma != c.groups[x].identity:
                generators[("elt", x, gamma)] = (x, x)
    return GroupoidPresentation(cat.objects, generators, _relators_of(c))


def cone_extend(c):
    """Extend over the cone shape: a new terminal object with arrows h_x.

    The cone point is the object "inf", so a complex that already has an
    object of that name (a cone extension, say) is refused.
    """
    cat = c.shape
    if "inf" in cat.objects:
        raise NotSupported("cannot cone-extend: the complex already has "
                           "an object 'inf'")
    objects = tuple(cat.objects) + ("inf",)
    arrows, comp, ident = {}, {}, {}
    for g, (s, d) in cat.arrows.items():
        arrows[("0", g)] = (s, d)
        arrows[("inf", g)] = (s, "inf")
    arrows[("id", "inf")] = ("inf", "inf")
    for (g, h), k in cat.compose.items():
        comp[(("0", g), ("0", h))] = ("0", k)
        comp[(("inf", g), ("0", h))] = ("inf", k)
    for g in cat.arrow_ids():
        comp[(("id", "inf"), ("inf", g))] = ("inf", g)
    comp[(("id", "inf"), ("id", "inf"))] = ("id", "inf")
    for x in cat.objects:
        ident[x] = ("0", cat.identity(x))
    ident["inf"] = ("id", "inf")
    shape = FinCategory(objects, arrows, comp, ident)
    groups = {x: c.groups[x] for x in cat.objects}
    groups["inf"] = Group.trivial()
    homs = {}
    for g in cat.arrow_ids():
        homs[("0", g)] = dict(c.homs[g])
        homs[("inf", g)] = {"1": c.groups[cat.src(g)].identity}
    homs[("id", "inf")] = {"1": "1"}
    twists = {}
    for (a, b) in shape.composable_pairs():
        if a[0] in ("0", "inf") and b[0] == "0" and \
                not cat.is_identity(a[1]) and not cat.is_identity(b[1]):
            twists[(a, b)] = c.twists[(a[1], b[1])]
        else:
            twists[(a, b)] = groups[shape.src(b)].identity
    return ComplexOfGroups(shape, groups, homs, twists)


def isotropy_at_infinity(c):
    """The isotropy presentation of the cone model, Tietze-rewritten.

    Arrows into the cone point conjugate every generator to a loop
    there; the substitution (g, inf) -> h_{r(g)} . (g, 0) eliminates the
    slanted arrows and the h_x become trivial, so one substitution takes
    (g, inf) and (g, 0) to g.  The result must equal the fundamental group.
    """
    pres = model_presentation(cone_extend(c))
    cat = c.shape
    solutions = {}
    for g in cat.arrow_ids():
        word = () if cat.is_identity(g) else ((("arr", g), 1),)
        solutions[("arr", ("inf", g))] = solutions[("arr", ("0", g))] = word
    gens = {s for sym in pres.generators
            for s, _ in _substitute(((sym, 1),), solutions)}
    return canonical_presentation(
        gens, [_substitute(r, solutions) for r in pres.relators])


def count_homs(p, n):
    """The number of homomorphisms into the symmetric group on n letters.

    The presentation is shrunk first without changing its group: while
    some relator uses a generator exactly once, Tietze elimination
    solves that relator for the generator, substitutes the solution
    into the other relators and drops both.  The remaining generators
    fall into components that share no relator, and the count is the
    product of the components' counts; a generator in no relator
    contributes n!.  Each other component counts the actions of its
    one-object presentation on n points (``diagram.presentation_actions``),
    checking each relator once all of its generators have a permutation.
    """
    gens, rels = _tietze_reduce(p.generators, p.relators)
    comp = canonical_classes(
        gens, ((r[0][0], s) for r in rels for (s, _) in r), repr)
    relators = {}
    for r in rels:
        relators.setdefault(comp[r[0][0]], []).append(r)
    total = 1
    for rep in dict.fromkeys(comp[g] for g in gens):
        if rep in relators:
            total *= sum(1 for _ in presentation_actions(
                {g: ("*", "*") for g in gens if comp[g] == rep},
                relators[rep], {"*": list(range(n))}))
        else:
            total *= factorial(n)
    return total


def _tietze_reduce(generators, relators):
    """Eliminate every generator that some relator uses exactly once.

    A relator P.s^e.Q is conjugate to s^e.Q.P, so s = (Q.P)^-e; the
    shortest such relator is solved first.  Relators that reduce to the
    empty word are dropped.
    """
    gens = list(generators)
    rels = [w for w in map(cyclic_reduce, relators) if w]
    while True:
        found = next(((r, j) for r in sorted(rels, key=len)
                      for j, (s, _) in enumerate(r)
                      if sum(t == s for (t, _) in r) == 1), None)
        if found is None:
            return gens, rels
        r, j = found
        s, power = r[j]
        rest = r[j + 1:] + r[:j]
        solution = _invert(rest) if power > 0 else rest
        rels.remove(r)
        gens.remove(s)
        rels = [w for w in (cyclic_reduce(_substitute(w, {s: solution}))
                            for w in rels) if w]


def _substitute(word, solutions):
    """Replace each letter whose symbol has a solution by that word."""
    out = []
    for (sym, power) in word:
        if sym not in solutions:
            out.append((sym, power))
        else:
            out.extend(solutions[sym] if power > 0
                       else _invert(solutions[sym]))
    return tuple(out)


def morphism_check(c1, c2, psis, vs):
    """Check a morphism of complexes (psi_x, v_g) from c2 to c1 data."""
    report = []
    cat = c1.shape
    for x in cat.objects:
        g2, g1 = c2.groups[x], c1.groups[x]
        psi = psis[x]
        for a in g2:
            for b in g2:
                if psi[g2.op(a, b)] != g1.op(psi[a], psi[b]):
                    report.append(f"psi({x!r}) is not a homomorphism")
    for g in cat.arrow_ids():
        if cat.is_identity(g):
            if vs[g] != c1.groups[cat.src(g)].identity:
                report.append(f"v at unit {g!r} is not 1")
            continue
        x, y = cat.dst(g), cat.src(g)
        g1y = c1.groups[y]
        v = vs[g]
        for gamma in c2.groups[x]:
            lhs = g1y.op(g1y.op(v, psis[y][c2.homs[g][gamma]]), g1y.inv[v])
            rhs = c1.homs[g][psis[x][gamma]]
            if lhs != rhs:
                report.append(f"Ad(v_g) square fails at ({g!r},{gamma!r})")
    for (g, h) in _nonunit_pairs(cat):
        z = cat.src(h)
        g1z = c1.groups[z]
        gh = cat.mul(g, h)
        lhs = g1z.op(g1z.op(c1.twists[(g, h)], c1.homs[h][vs[g]]), vs[h])
        rhs = g1z.op(vs[gh], psis[z][c2.twists[(g, h)]])
        if lhs != rhs:
            report.append(f"transformation cocycle fails at ({g!r},{h!r})")
    return report


def compose_morphisms(c1, c2, c3, m21, m32):
    """The composite of morphisms (c3 -> c2 -> c1 data)."""
    psis21, vs21 = m21
    psis32, vs32 = m32
    cat = c1.shape
    psis = {x: {a: psis21[x][psis32[x][a]] for a in c3.groups[x]}
            for x in cat.objects}
    vs = {}
    for g in cat.arrow_ids():
        y = cat.src(g)
        vs[g] = c1.groups[y].op(vs21[g], psis21[y][vs32[g]])
    return psis, vs


def homotopy_check(c1, c2, m1, m2, ws):
    """Check a homotopy w between two morphisms of complexes."""
    report = []
    cat = c1.shape
    psis1, vs1 = m1
    psis2, vs2 = m2
    for x in cat.objects:
        g1 = c1.groups[x]
        w = ws[x]
        for gamma in c2.groups[x]:
            if g1.op(w, psis1[x][gamma]) != g1.op(psis2[x][gamma], w):
                report.append(f"w({x!r}) does not intertwine the psis")
                break
    for g in cat.arrow_ids():
        if cat.is_identity(g):
            continue
        x, y = cat.dst(g), cat.src(g)
        g1y = c1.groups[y]
        lhs = g1y.op(c1.homs[g][ws[x]], vs1[g])
        rhs = g1y.op(vs2[g], ws[y])
        if lhs != rhs:
            report.append(f"homotopy square fails at {g!r}")
    return report


def presentation_model(c):
    """The model presentation bound to the tight diagram of the complex.

    The arrow generators act as the neutral-element slices of the
    correspondences and the element generators as the groupoid arrows,
    so actions of the presented groupoid translate into diagram actions.
    """
    from .model import PresentationModel
    cat = c.shape
    d = from_complex(c.shape, c.groups, c.homs, c.twists)
    pres = model_presentation(c)
    arrow_of = {g[2][0]: g for g in d.shape.generator_arrows()}
    binding = {}
    for sym in pres.generators:
        if sym[0] == "arr":
            g = sym[1]
            binding[sym] = ("alph", arrow_of[g],
                            c.groups[cat.src(g)].identity)
        else:
            _, x, gamma = sym
            binding[sym] = ("gact", x, gamma)
    object_map = {x: (x, "*") for x in pres.objects}
    return d, PresentationModel(d, list(pres.objects), pres.generators,
                                pres.relators, binding, object_map)

"""Brute-force reference versions of the library's searches.

These are the earlier implementations that the propagating searches in
``gpdcorr.diagram``, its backtracking over bijections (for groupoid
actions and presentation actions), the table comparisons of
``verify_model`` and its naturality check on isomorphism-class
representatives, the Tietze-reduced homomorphism count of
``gpdcorr.cgx`` and its presentations built from ``model_presentation``
alone, the factorised configuration space of ``gpdcorr.mn``,
the unchecked joins of ``gpdcorr.selfsim``, the transversal composition
of ``gpdcorr.corr`` and the block composition that followed it, the
document writer of ``gpdcorr.cli`` with its hand-written payload
builders and per-kind readers, the coordinate pair arrows with the
residual walk and common-refinement product of ``SelfSimPairModel``
that the normal-form germ calculus replaced, the bucketed pair-arrow dedupe of ``SelfSimPairModel.arrows_over`` and the
bucketed representatives of ``verify_model``, the
one action-groupoid constructor ``FinGroupoid.semidirect``, the germ
classes that ``TransformationGroupoid`` builds once per point and the
components that give ``GermGroupoid`` its germs replaced.
They walk every candidate and check at the leaves (the homomorphism
count visits one leaf per homomorphism, the configuration enumerator one
call per tree node, the self-similar walk re-checks every path it joins,
the composition joins fibre pairs along every middle arrow or reads
them one at a time off the transversal, the pair
arrows are compared with every arrow kept so far, a germ class is found
by asking the oracle about every element on every call), so they are
slow but obviously right.  The per-class translators of the finite
models, which one binding-driven translator replaced, are kept here as
well.  The tests compare the library against them, answer for answer
and in the same order.
"""

import json
from itertools import permutations, product

from gpdcorr import cli
from gpdcorr.cgx import (ComplexOfGroups, GroupoidPresentation, _elt,
                         _invert, canonical_presentation, cone_extend)
from gpdcorr.corr import Correspondence
from gpdcorr.diagram import (FAction, _propagated_maps, actions_on,
                             discrete_diagram, from_generators,
                             invariant_check, validate_action)
from gpdcorr.errors import (DepthInsufficient, Mismatch, OracleIncomplete,
                            ParseError, SchemaError, Undefined)
from gpdcorr.fincat import FinCategory, PresentedShape, canonical_classes
from gpdcorr.groupoid import FinGroupoid, Group, pseudogroup_closure
from gpdcorr.model import (DisjointUnionModel, GradedGroupoidModel,
                           PairArrow, PresentationModel, _carries,
                           _invariance_witness, _map_values, _orbits, _table,
                           pair_from_nf)
from gpdcorr.selfsim import (EvPeriodicWord, NormalForm, Path,
                             SelfSimilarData, nf)


def equivariant_maps(a1, a2):
    """All equivariant maps a1 -> a2, by walking the product of fibres."""
    carrier = list(a1.carrier)
    candidates = {y: [z for z in a2.carrier
                      if a2.part[z] == a1.part[y]
                      and a2.anchor[z] == a1.anchor[y]]
                  for y in carrier}
    out = []
    for values in product(*(candidates[y] for y in carrier)):
        f = dict(zip(carrier, values))
        if is_equivariant(a1, a2, f):
            out.append(f)
    return out


def is_equivariant(a1, a2, f):
    for (gamma, y), z in a1.gact.items():
        if a2.gact.get((gamma, f[y])) != f[z]:
            return False
    for g, table in a1.alph.items():
        for (xi, y), z in table.items():
            if a2.alph[g].get((xi, f[y])) != f[z]:
                return False
    return True


def actions_isomorphic(a1, a2):
    if len(a1.carrier) != len(a2.carrier):
        return False
    for f in equivariant_maps(a1, a2):
        if len(set(f.values())) == len(a2.carrier):
            return True
    return False


def enumerate_actions(d, n):
    """Representatives up to isomorphism, deduplicated pairwise."""
    out = []
    for k in range(n + 1):
        for a in actions_on(d, list(range(k))):
            if not any(actions_isomorphic(a, b) for b in out):
                out.append(a)
    return out


def _bijections(dom, cod):
    """Every bijection dom -> cod as a dict, the image of dom[0] varying
    slowest."""
    if len(dom) != len(cod):
        return
    if not dom:
        yield {}
        return
    y, rest = dom[0], dom[1:]
    for z in cod:
        for tail in _bijections(rest, [c for c in cod if c != z]):
            yield {y: z, **tail}


def left_actions(gpd, ys, anchor):
    """All left actions of a groupoid on a fibred finite set, one arrow
    at a time, checked for associativity at the leaves."""
    arrows = [g for g in gpd.arrow_ids() if not gpd.is_unit(g)]
    base = {(gpd.unit(anchor[y]), y): y for y in ys}

    def extend(i, act):
        if i == len(arrows):
            ok = all(
                act.get((gpd.mul(g, h), y)) == act.get((g, act[(h, y)]))
                for g in gpd.arrow_ids() for h in gpd.arrow_ids()
                if gpd.composable(g, h)
                for y in ys if (h, y) in act)
            if ok:
                yield dict(act)
            return
        g = arrows[i]
        dom = [y for y in ys if anchor[y] == gpd.src(g)]
        cod = [y for y in ys if anchor[y] == gpd.dst(g)]
        for image in _bijections(dom, cod):
            nxt = dict(act)
            nxt.update({(g, y): image[y] for y in dom})
            yield from extend(i + 1, nxt)

    yield from extend(0, base)


def presentation_actions_on(model, carrier):
    """PresentationModel.enumerate_on, one generator at a time, with the
    relators checked at the leaves."""
    out = []
    names = sorted(model.gens)

    def extend(i, act, fibers, anchor):
        if i == len(names):
            if all(_relator_trivial(act, r) for r in model.relators):
                out.append((dict(anchor), dict(act)))
            return
        name = names[i]
        dst, src = model.gens[name]
        for bij in _bijections(fibers[src], fibers[dst]):
            act.update({(name, y): z for y, z in bij.items()})
            extend(i + 1, act, fibers, anchor)
            for y in bij:
                del act[(name, y)]

    for anchors in product(model.objects, repeat=len(carrier)):
        anchor = dict(zip(carrier, anchors))
        fibers = {x: [y for y in carrier if anchor[y] == x]
                  for x in model.objects}
        extend(0, {}, fibers, anchor)
    return out


def _relator_trivial(act, relator):
    step = {}
    for (name, y), z in act.items():
        step[(name, 1, y)] = z
        step[(name, -1, z)] = y
    for y in {y for (_, _, y) in step}:
        z = y
        for name, power in reversed(relator):
            sign = 1 if power > 0 else -1
            for _ in range(abs(power)):
                z = step.get((name, sign, z))
                if z is None:
                    break
            if z is None:
                break
        if z is not None and z != y:
            return False
    return True


def equivariant_bijections(c, gact, ys_src, ys_dst, anchor):
    """All candidate alpha tables for one generator arrow, checked for
    bijectivity only at the leaves of the search."""
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

    def act_left(gamma, rep):
        xi, y = rep
        moved = c.lact.get((gamma, xi))
        return None if moved is None else canon[(moved, y)]

    gpd = c.left

    def left_moves():
        for rep in reps:
            for gamma in gpd.arrow_ids():
                moved = act_left(gamma, rep)
                if moved is not None:
                    yield rep, moved

    orbit = canonical_classes(reps, left_moves(), repr)
    orbit_reps = sorted(set(orbit.values()), key=repr)

    def place(i, assign):
        if i == len(orbit_reps):
            vals = {assign[rep] for rep in reps}
            if len(vals) == len(reps) == len(ys_dst):
                table = {}
                for rep in reps:
                    for p in classes[rep]:
                        table[p] = assign[rep]
                yield table
            return
        base = orbit_reps[i]
        for z in ys_dst:
            if anchor[z] != c.rmap[base[0]]:
                continue
            nxt = dict(assign)
            nxt[base] = z
            good = True
            for gamma in gpd.arrow_ids():
                moved = act_left(gamma, base)
                if moved is None:
                    continue
                want = gact.get((gamma, z))
                if want is None or nxt.get(moved, want) != want:
                    good = False
                    break
                nxt[moved] = want
            if good:
                yield from place(i + 1, nxt)

    yield from place(0, {})


# -- the per-class translators of the finite models ---------------------------

def disjoint_union_to_faction(model, ua):
    anchor, act = ua
    part = {y: anchor[y][0] for y in anchor}
    fanchor = {y: anchor[y][1] for y in anchor}
    gact = {(g, y): z for (((tag, g), y), z) in act.items()}
    alph = {g: {} for g in model.d.gen_arrows()}
    return FAction(model.d, sorted(anchor, key=repr), part, fanchor,
                   gact, alph)


def graded_to_faction(model, ua):
    anchor, act = ua
    d = model.d
    part = {y: model.obj for y in anchor}
    unit_arrow = d.shape.identity(model.obj)
    gact = {(xi, y): z for (((c, xi), y), z) in act.items()
            if c == unit_arrow}
    alph = {g: {(xi, y): z for (((c, xi), y), z) in act.items() if c == g}
            for g in d.gen_arrows()}
    return FAction(d, sorted(anchor, key=repr), part, dict(anchor),
                   gact, alph)


def presentation_to_faction(model, ua):
    """Seeds the alpha tables from the bound slices and closes them under
    the two groupoid actions, in full passes until one adds nothing,
    scanning all of gact for every preimage."""
    anchor, act = ua
    d = model.d
    part, fanchor, gact = {}, {}, {}
    for y in anchor:
        x, u = model.object_map[anchor[y]]
        part[y], fanchor[y] = x, u
        gact[(d.gr[x].unit(u), y)] = y
    alph = {g: {} for g in d.gen_arrows()}
    for (name, y), z in act.items():
        kind = model.binding[name]
        if kind[0] == "alph":
            _, g, xi = kind
            alph[g][(xi, y)] = z
        else:
            _, x, gamma = kind
            gact[(gamma, y)] = z
    for g, table in alph.items():
        c = d.X(g)
        changed = True
        while changed:
            changed = False
            for (xi, y), z in list(table.items()):
                for gamma in c.right.arrow_ids():
                    if (xi, gamma) in c.ract:
                        for (gamma2, y2), yv in gact.items():
                            if gamma2 == gamma and yv == y:
                                key = (c.ract[(xi, gamma)], y2)
                                if key not in table:
                                    table[key] = z
                                    changed = True
                for gamma in c.left.arrow_ids():
                    if (gamma, xi) in c.lact and (gamma, z) in gact:
                        key = (c.lact[(gamma, xi)], y)
                        if key not in table:
                            table[key] = gact[(gamma, z)]
                            changed = True
    return FAction(d, sorted(anchor, key=repr), part, fanchor, gact, alph)


TO_FACTION = {DisjointUnionModel: disjoint_union_to_faction,
              GradedGroupoidModel: graded_to_faction,
              PresentationModel: presentation_to_faction}


def _signature(a):
    return (tuple(sorted(a.part.items(), key=repr)),
            tuple(sorted(a.anchor.items(), key=repr)),
            tuple(sorted(a.gact.items(), key=repr)),
            tuple(sorted(((g, tuple(sorted(t.items(), key=repr)))
                          for g, t in a.alph.items()), key=repr)))


def verify_model(d, model, n):
    """The model-defining bijection, with naturality checked by scanning
    every map between every two actions, equivariant or not, and every
    map into max(k, 2) values for invariance."""
    per_size = {}
    for k in range(n + 1):
        carrier = list(range(k))
        fas = list(actions_on(d, carrier))
        fsigs = {_signature(a) for a in fas}
        uas = model.enumerate_on(carrier)
        translated, tsigs = [], set()
        for ua in uas:
            fa = model.to_faction(ua)
            report = validate_action(d, fa)
            if report:
                raise Mismatch(
                    f"translated action invalid at size {k}: {report[0]}")
            translated.append((ua, fa))
            tsigs.add(_signature(fa))
        if len(tsigs) != len(uas):
            raise Mismatch(f"translation not injective at size {k}")
        if tsigs != fsigs:
            raise Mismatch(
                f"action sets differ at size {k}: {len(uas)} model actions "
                f"vs {len(fas)} diagram actions")
        per_size[k] = translated
    for k1 in range(n + 1):
        for k2 in range(n + 1):
            for ua1, fa1 in per_size[k1]:
                for ua2, fa2 in per_size[k2]:
                    for values in product(range(k2), repeat=k1):
                        f = dict(zip(range(k1), values))
                        if _ua_equivariant(ua1, ua2, f) != \
                                _fa_equivariant(fa1, fa2, f):
                            raise Mismatch(
                                f"naturality fails for {f!r} between sizes "
                                f"{k1} and {k2}")
        for ua1, fa1 in per_size[k1]:
            for values in product(range(max(k1, 2)), repeat=k1):
                f = dict(zip(range(k1), values))
                if _ua_invariant(ua1, f) != invariant_check(fa1, f):
                    raise Mismatch(
                        f"invariant maps differ for {f!r} at size {k1}")
    return True


def representatives(tables):
    """The first action of each isomorphism class of the diagram side,
    each compared with every representative kept so far; None if the
    isomorphism found onto it does not carry both tables."""
    reps = []
    for u, f in tables:
        for ru, rf in reps:
            p = next(_propagated_maps(f, rf, injective=True), None)
            if p is not None:
                if not (_carries(p, u, ru) and _carries(p, f, rf)):
                    return None
                break
        else:
            reps.append((u, f))
    return reps


def verify_model_all_pairs(d, model, n):
    """verify_model as it was before it checked naturality on
    isomorphism-class representatives: the same propagated maps and
    orbit partitions, compared for every pair of labelled actions."""
    per_size = {}
    for k in range(n + 1):
        carrier = list(range(k))
        fas = list(actions_on(d, carrier))
        fsigs = {_signature(a) for a in fas}
        uas = model.enumerate_on(carrier)
        tables, tsigs = [], set()
        for ua in uas:
            fa = model.to_faction(ua)
            report = validate_action(d, fa)
            if report:
                raise Mismatch(
                    f"translated action invalid at size {k}: {report[0]}")
            tables.append((_table(ua), fa.table()))
            tsigs.add(_signature(fa))
        if len(tsigs) != len(uas):
            raise Mismatch(f"translation not injective at size {k}")
        if tsigs != fsigs:
            raise Mismatch(
                f"action sets differ at size {k}: {len(uas)} model actions "
                f"vs {len(fas)} diagram actions")
        per_size[k] = tables
    for k1 in range(n + 1):
        for k2 in range(n + 1):
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


def _ua_equivariant(ua1, ua2, f):
    anchor1, act1 = ua1
    anchor2, act2 = ua2
    for y in anchor1:
        if anchor2[f[y]] != anchor1[y]:
            return False
    for (g, y), z in act1.items():
        if act2.get((g, f[y])) != f[z]:
            return False
    return True


def _ua_invariant(ua, f):
    _, act = ua
    return all(f[y] == f[z] for (g, y), z in act.items())


def _fa_equivariant(a1, a2, f):
    for y in a1.carrier:
        if a2.part.get(f[y]) != a1.part[y] or \
                a2.anchor.get(f[y]) != a1.anchor[y]:
            return False
    return is_equivariant(a1, a2, f)


def invariance_witness(k, c1, c2):
    """The invariance scan on two partitions of range(k) (item -> class
    representative): the first map into max(k, 2) values that is
    constant on the classes of exactly one of them, or None."""
    for values in product(range(max(k, 2)), repeat=k):
        f = dict(zip(range(k), values))
        if all(f[y] == f[c1[y]] for y in f) != \
                all(f[y] == f[c2[y]] for y in f):
            return f
    return None


def _relators_of(c, arrow_symbol):
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
            word = ((arrow_symbol(g), 1),) + _elt(y, c.homs[g][gamma], gy) + \
                ((arrow_symbol(g), -1),) + _invert(_elt(x, gamma, gx))
            rels.append(word)
    for g in c.nonunit_arrows():
        for h in c.nonunit_arrows():
            if not cat.composable(g, h):
                continue
            gh = cat.mul(g, h)
            gs = c.groups[cat.src(h)]
            ghw = () if cat.is_identity(gh) else ((arrow_symbol(gh), 1),)
            word = ((arrow_symbol(g), 1), (arrow_symbol(h), 1)) + \
                _invert(_elt(cat.src(h), c.twists[(g, h)], gs)) + _invert(ghw)
            rels.append(word)
    return rels


def _generators_of(c, arrow_symbol):
    gens = [arrow_symbol(g) for g in c.nonunit_arrows()]
    for x in c.shape.objects:
        gens.extend(("elt", x, gamma) for gamma in c.groups[x]
                    if gamma != c.groups[x].identity)
    return gens


def fundamental_group(c):
    """The presented fundamental group, from its own generator list."""
    sym = lambda g: ("arr", g)
    return canonical_presentation(_generators_of(c, sym),
                                  _relators_of(c, sym))


def model_presentation(c):
    """The groupoid-model presentation: generators with endpoints."""
    cat = c.shape
    sym = lambda g: ("arr", g)
    generators = {}
    for g in c.nonunit_arrows():
        generators[sym(g)] = (cat.dst(g), cat.src(g))
    for x in cat.objects:
        for gamma in c.groups[x]:
            if gamma != c.groups[x].identity:
                generators[("elt", x, gamma)] = (x, x)
    return GroupoidPresentation(cat.objects, generators,
                                _relators_of(c, sym))


def isotropy_at_infinity(c):
    """The cone model's isotropy, by expanding every slanted arrow
    (g, inf) -> h_{r(g)} . (g, 0) and then dropping the h_x."""
    ext = cone_extend(c)
    pres = model_presentation(ext)
    cat = c.shape

    def rewrite_letter(sym, power):
        if sym[0] == "arr":
            tag, g = sym[1]
            if tag == "inf":
                if cat.is_identity(g):
                    return ()       # an h_x letter becomes trivial
                word = ((("arr", ("inf", cat.identity(cat.dst(g)))), 1),
                        (("arr", ("0", g)), 1))
                return word if power == 1 else _invert(word)
        return ((sym, power),)

    def tform(word):
        expanded = []
        for sym, power in word:
            expanded.extend(rewrite_letter(sym, power))
        out = []
        for sym, power in expanded:
            if sym[0] == "arr":
                tag, g = sym[1]
                if tag == "inf" and cat.is_identity(g):
                    continue        # h_x conjugators vanish
                out.append((("arr", g), power))
            else:
                out.append((sym, power))
        return tuple(out)

    gens = []
    for sym in pres.generators:
        if sym[0] == "arr":
            tag, g = sym[1]
            if tag == "0" and not cat.is_identity(g):
                gens.append(("arr", g))
        else:
            gens.append(sym)
    return canonical_presentation(gens, [tform(r) for r in pres.relators])


def count_homs(p, n):
    """The number of homomorphisms into the symmetric group on n letters.

    Backtracking over generator images with relator pruning; a relator
    that uses the generator being placed exactly once forces its image,
    so such generators are solved rather than scanned.
    """
    perms = list(permutations(range(n)))
    gens = _placement_order(p)
    index = {g: i for i, g in enumerate(gens)}
    by_stage = [[] for _ in range(len(gens) + 1)]
    for r in p.relators:
        stage = max((index[s] for (s, _) in r), default=-1) + 1
        by_stage[stage].append(r)
    identity = tuple(range(n))

    def pinv(perm):
        out = [0] * n
        for i in range(n):
            out[perm[i]] = i
        return tuple(out)

    inverses = {perm: pinv(perm) for perm in perms}

    def ev(word, images):
        out = identity
        for sym, power in reversed(word):
            perm = images[sym]
            if power < 0:
                perm = inverses[perm]
            out = tuple(perm[i] for i in out)
        return out

    def forced(i, images):
        """Solve P.g^e.Q == 1 for g when some relator uses g once."""
        g = gens[i]
        for r in by_stage[i + 1]:
            spots = [j for j, (sym, _) in enumerate(r) if sym == g]
            if len(spots) != 1 or abs(r[spots[0]][1]) != 1:
                continue
            j = spots[0]
            pre = inverses[ev(r[:j], images)]
            post = inverses[ev(r[j + 1:], images)]
            img = tuple(pre[post[k]] for k in range(n))
            return (img if r[j][1] == 1 else inverses[img]), r
        return None, None

    def backtrack(i, images):
        if i == len(gens):
            return 1
        g = gens[i]
        solved, via = forced(i, images)
        if solved is not None and solved not in inverses:
            return 0
        candidates = [solved] if solved is not None else perms
        checks = [r for r in by_stage[i + 1] if r is not via]
        total = 0
        for perm in candidates:
            images[g] = perm
            if all(ev(r, images) == identity for r in checks):
                total += backtrack(i + 1, images)
            del images[g]
        return total

    if any(ev(r, {}) != identity for r in by_stage[0]):
        return 0
    return backtrack(0, {})


def _placement_order(p):
    """Order generators so forcing relators resolve as early as possible."""
    remaining = sorted(p.generators, key=repr)
    order = []
    placed = set()
    while remaining:
        pick = None
        for g in remaining:
            for r in p.relators:
                support = {s for (s, _) in r}
                uses = sum(1 for (s, _) in r if s == g)
                if support <= placed | {g} and uses == 1:
                    pick = g
                    break
            if pick:
                break
        if pick is None:
            for g in remaining:
                if any({s for (s, _) in r} <= placed | {g}
                       for r in p.relators):
                    pick = g
                    break
        if pick is None:
            pick = remaining[0]
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)
    return order


def check_basic_bruteforce(action):
    """Independent oracle: literal injectivity of (y, g) -> (y.g, y)."""
    seen = {}
    for (g, y), z in sorted(action.act.items(), key=repr):
        key = (z, y)
        if key in seen and seen[key] != g:
            return False
        seen[key] = g
    return True


def dumps(doc):
    """A CLI document's text, as json's own indenting encoder writes it."""
    return json.dumps(doc, indent=1) + "\n"


# The hand-written payload builders that the layouts of gpdcorr.cli
# replaced, one per kind, with the encoder and pair list they call.

def _enc(value):
    if type(value) is str or type(value) is int:
        return value
    if isinstance(value, tuple):
        return ["t", [_enc(v) for v in value]]
    if isinstance(value, (list, frozenset, set)):
        return ["l", [_enc(v) for v in sorted(value, key=repr)]]
    return value


def _pairs(mapping):
    return [[_enc(k), _enc(v)] for k, v in
            sorted(mapping.items(), key=lambda kv: repr(kv[0]))]


def category_payload(cat):
    return {"objects": [_enc(x) for x in cat.objects],
            "arrows": _pairs(cat.arrows),
            "compose": _pairs(cat.compose),
            "identities": _pairs(cat.identities)}


def groupoid_payload(gpd):
    return {"category": category_payload(gpd), "inv": _pairs(gpd.inv)}


def correspondence_payload(c):
    return {"left": groupoid_payload(c.left),
            "right": groupoid_payload(c.right),
            "carrier": [_enc(x) for x in c.carrier],
            "r": _pairs(c.rmap), "s": _pairs(c.smap),
            "lact": _pairs(c.lact), "ract": _pairs(c.ract)}


def group_payload(g):
    return {"elements": [_enc(x) for x in g.elements],
            "mul": _pairs(g.mul), "identity": _enc(g.identity)}


def selfsimilar_payload(data):
    return {"group": group_payload(data.group),
            "vertices": [_enc(v) for v in data.vertices],
            "edges": [_enc(e) for e in data.edges],
            "er": _pairs(data.er), "es": _pairs(data.es),
            "vact": _pairs(data.vact), "eact": _pairs(data.eact),
            "cocycle": _pairs(data.cocycle)}


def complex_payload(c):
    return {"shape": category_payload(c.shape),
            "groups": [[_enc(x), group_payload(g)]
                       for x, g in sorted(c.groups.items(), key=repr)],
            "homs": [[_enc(g), _pairs(h)]
                     for g, h in sorted(c.homs.items(), key=repr)],
            "twists": _pairs(c.twists)}


def diagram_payload(d):
    shape = d.shape
    payload = {"shape_kind": shape.kind,
               "objects": [_enc(x) for x in shape.objects],
               "gens": _pairs({g: (shape.gen_dst[g], shape.gen_src[g])
                               for g in shape.gens}),
               "bound": d.bound,
               "groupoids": [[_enc(x), groupoid_payload(gp)]
                             for x, gp in sorted(d.gr.items(), key=repr)]}
    gens = d.gen_data or {g[2][0]: d.X(g) for g in d.gen_arrows()}
    payload["generators"] = [[_enc(a), correspondence_payload(c)]
                             for a, c in sorted(gens.items(), key=repr)]
    if d.sigma:
        payload["braidings"] = [[_enc(ab), _pairs(t)]
                                for ab, t in sorted(d.sigma.items(), key=repr)]
    if d.selfsim is not None:
        payload["selfsimilar"] = selfsimilar_payload(d.selfsim)
    return payload


def action_payload(d, a):
    return {"diagram": diagram_payload(d),
            "carrier": [_enc(y) for y in a.carrier],
            "part": _pairs(a.part), "anchor": _pairs(a.anchor),
            "gact": _pairs(a.gact),
            "alph": [[_enc(g), _pairs(t)]
                     for g, t in sorted(a.alph.items(), key=repr)]}


# the builder of each kind, taking the value that cli.write_document takes
PAYLOADS = {"category": category_payload, "groupoid": groupoid_payload,
            "correspondence": correspondence_payload,
            "group": group_payload, "selfsimilar": selfsimilar_payload,
            "complex_of_groups": complex_payload,
            "diagram": diagram_payload,
            "action": lambda da: action_payload(*da)}


# The readers that one layout walker in gpdcorr.cli replaced: a reader per
# kind with a hand-written diagram reader, two kind tables, and the
# envelope check and payload reading that used them.

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


def _unpairs(pairs):
    return {_dec(k): _dec(v) for k, v in _array(pairs)}


def _values_from(kind, payload):
    return [_read(how, payload[key]) for key, how, *_ in cli.LAYOUTS[kind]]


def _read(how, p):
    if how in cli.LAYOUTS:
        return READERS[how](p)
    if type(how) is tuple:
        return {_dec(k): _read(how[1], v) for k, v in _array(p)}
    return p if how is cli.RAW else _dec(p) if how is cli.ENC else \
        [_dec(x) for x in _array(p)] if how is cli.LIST else _unpairs(p)


def groupoid_from(payload):
    return FinGroupoid(*_values_from("category", payload["category"]),
                       _unpairs(payload["inv"]))


def _from(make, kind):
    return lambda payload: make(*_values_from(kind, payload))


def diagram_from(payload):
    kind = payload["shape_kind"]
    bound = cli.at_least("bound", payload["bound"], 0)
    objects = [_dec(x) for x in _array(payload["objects"])]
    gens_ep = _unpairs(payload["gens"])
    groupoids = {_dec(x): groupoid_from(gp)
                 for x, gp in _array(payload["groupoids"])}
    gens = {_dec(a): READERS["correspondence"](c)
            for a, c in _array(payload["generators"])}
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
    braidings = payload.get("braidings", [])
    d = from_generators(shape, gens, groupoids, braidings={
        _dec(ab): _unpairs(t) for ab, t in _array(braidings)})
    if "selfsimilar" in payload:
        d.selfsim = READERS["selfsimilar"](payload["selfsimilar"])
    return d


def action_from(payload):
    d, *fields = _values_from("action", payload)
    return d, FAction(d, *fields)


PAYLOADERS = {"category": _from(FinCategory, "category"),
              "groupoid": groupoid_from,
              "correspondence": _from(Correspondence, "correspondence"),
              "diagram": diagram_from,
              "complex_of_groups": _from(ComplexOfGroups,
                                         "complex_of_groups"),
              "selfsimilar": _from(SelfSimilarData, "selfsimilar"),
              "mn": lambda payload: cli.mn_params(payload["m"], payload["n"]),
              "action": action_from}
READERS = {**PAYLOADERS, "group": _from(Group, "group")}


def parse_document(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(str(exc))
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise SchemaError("missing format_version")
    if doc["format_version"] != cli.FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {doc['format_version']!r}")
    kind = doc.get("kind")
    if type(kind) is not str or kind not in PAYLOADERS:
        raise SchemaError(f"unknown kind {kind!r}")
    if "payload" not in doc:
        raise SchemaError("missing payload")
    return kind, doc["payload"]


def value_of(kind, payload):
    if kind not in PAYLOADERS:
        raise SchemaError(f"no loader for kind {kind!r}")
    try:
        return PAYLOADERS[kind](payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {kind} payload: {exc}")


def compose(c1, c2):
    """(X x_s,r Y) / G by union-find over every (fibre pair, middle arrow)
    move, each class named by its key-least pair."""
    if c1.right is not c2.left and \
            c1.right.arrows != c2.left.arrows:
        raise ParseError("middle groupoids differ")
    mid = c1.right
    fibre = [(x, y) for x in c1.carrier for y in c2.carrier
             if c1.smap[x] == c2.rmap[y]]
    fset = set(fibre)

    def key(p):
        return (c1._index[p[0]], c2._index[p[1]])

    def moves():
        for (x, y) in fibre:
            for g in mid.arrow_ids():
                gy = c2.lact.get((g, y))
                xg = c1.ract.get((x, mid.invert(g)))
                if gy is not None and xg is not None and (xg, gy) in fset:
                    yield (x, y), (xg, gy)

    canon = canonical_classes(fibre, moves(), key)
    reps = sorted(set(canon.values()), key=key)
    index = {rep: i for i, rep in enumerate(reps)}
    cls = {p: index[canon[p]] for p in fibre}
    carrier = list(range(len(reps)))
    pairs = {i: rep for i, rep in enumerate(reps)}
    rmap = {i: c1.rmap[pairs[i][0]] for i in carrier}
    smap = {i: c2.smap[pairs[i][1]] for i in carrier}
    lact = {}
    for h in c1.left.arrow_ids():
        for i in carrier:
            x, y = pairs[i]
            if (h, x) in c1.lact:
                lact[(h, i)] = cls[(c1.lact[(h, x)], y)]
    ract = {}
    for g in c2.right.arrow_ids():
        for i in carrier:
            x, y = pairs[i]
            if (y, g) in c2.ract:
                ract[(i, g)] = cls[(x, c2.ract[(y, g)])]
    return Correspondence(c1.left, c2.right, carrier, rmap, smap, lact, ract,
                          pairs=pairs, cls=cls)


def transversal_compose(c1, c2):
    """(X x_s,r Y) / G read off the transversal of the free right action,
    one fibre pair at a time, with its error texts.

    The right G-action on X must be free.  Then each x is p(x).t[x] for
    exactly one middle arrow t[x], where p(x) is the first point of the
    orbit of x in carrier order, and the class of a fibre pair (x, y)
    holds exactly one pair whose first factor is an orbit representative:
    (p(x), t[x].y), its least pair in carrier order.  These pairs,
    listed by x and then by y in carrier order, become the points
    0, 1, ... of the composite; ``pairs`` maps each point to its pair and
    ``cls`` maps every fibre pair to its point.

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
    fibre = {}                  # r-fibres of Y: y -> its index in the fibre
    for y in c2.carrier:
        ys = fibre.setdefault(c2.rmap[y], {})
        ys[y] = len(ys)
    base = {}                   # each rep's first point
    pairs, rmap, smap = {}, {}, {}
    by_range, by_source = {}, {}
    for x in c1.carrier:
        if c1.p(x) != x:
            continue
        base[x] = len(pairs)
        r = c1.rmap[x]
        for y in fibre.get(c1.smap[x], ()):
            i = len(pairs)
            pairs[i] = (x, y)
            rmap[i] = r
            smap[i] = s = c2.smap[y]
            by_range.setdefault(r, []).append((i, x, y))
            by_source.setdefault(s, []).append((i, x, y))
    cls = {}
    for x in c1.carrier:
        px = c1.p(x)
        tx = t.get(x)
        if tx is None:
            raise ParseError(f"{x!r} is not one arrow away from its orbit "
                             f"representative {px!r}")
        b, index = base[px], fibre.get(c1.smap[px], {})
        try:
            for y in fibre.get(c1.smap[x], ()):
                cls[(x, y)] = b + index[c2.lact.get((tx, y))]
        except KeyError:
            raise ParseError(f"{tx!r}.{y!r} is not a point of the second "
                             f"factor over {c1.smap[px]!r}") from None
    lact = {}
    src = c1.left.src
    try:
        for h in c1.left.arrow_ids():
            for i, x, y in by_range.get(src(h), ()):
                hx = c1.lact.get((h, x))
                if hx is not None:
                    lact[(h, i)] = cls[(hx, y)]
    except KeyError:
        raise ParseError(f"s({h!r}.{x!r}) != s({x!r})") from None
    ract = {}
    dst = c2.right.dst
    try:
        for g in c2.right.arrow_ids():
            for i, x, y in by_source.get(dst(g), ()):
                yg = c2.ract.get((y, g))
                if yg is not None:
                    ract[(i, g)] = cls[(x, yg)]
    except KeyError:
        raise ParseError(f"r({y!r}.{g!r}) != r({y!r})") from None
    return Correspondence(c1.left, c2.right, range(len(pairs)), rmap, smap,
                          lact, ract, pairs=pairs, cls=cls)


def _node_type(word):
    """'1' for points forced into Y1, '2' for Y2, None at the root."""
    if not word:
        return None
    return "2" if word[0] > 0 else "1"


def omega_depth(m, n, d):
    """All consistent configurations at depth d.

    A configuration is the set of reduced words defined at a point; it
    is suffix-closed and every interior node carries the local shadow
    of the five conditions.  Boundary nodes are unconstrained.
    """
    rank = n + m
    hs = list(range(1, n + 1))
    vs = list(range(n + 1, rank + 1))
    out = []

    def expand(frontier, config):
        if not frontier:
            out.append(frozenset(config))
            return
        word, rest = frontier[0], frontier[1:]
        if len(word) >= d:
            expand(rest, config)
            return
        t = _node_type(word)
        cancel = -word[0] if word else None
        if t is None:
            # root in Y1: all generators defined, no inverses;
            # root in Y2: one h-inverse and one v-inverse defined
            branches = [list(hs + vs)]
            branches.extend([-hi, -vj] for hi in hs for vj in vs)
        elif t == "1":
            branches = [[ell for ell in hs + vs if ell != cancel]]
        else:
            # the cancelling inverse is defined implicitly; the other
            # block contributes exactly one inverse, freely chosen
            if word[0] in hs:
                branches = [[-vj] for vj in vs]
            else:
                branches = [[-hi] for hi in hs]
        for new_letters in branches:
            children = [(ell,) + word for ell in new_letters]
            expand(rest + children, config | set(children))

    expand([()], {()})
    return sorted(out, key=lambda s: sorted(s))



# -- the checked self-similar walk ---------------------------------------------

class CheckedWalk:
    """Self-similar arithmetic in which every join is a checked path.

    It reads the tables of a ``gpdcorr.selfsim.SelfSimilarData``; every
    path it builds re-checks composability and every point it builds
    goes through the checking, canonicalising ``ev``.
    """

    def __init__(self, data):
        self.group = data.group
        self.vertices, self.edges = data.vertices, data.edges
        self.er, self.es = data.er, data.es
        self.vact, self.eact = data.vact, data.eact
        self.cocycle = data.cocycle

    def path(self, edges, rv=None):
        edges = tuple(edges)
        if edges:
            rv = self.er[edges[0]]
            for a, b in zip(edges, edges[1:]):
                if self.es[a] != self.er[b]:
                    raise ParseError(f"path breaks at {a!r},{b!r}")
        else:
            if rv is None and len(self.vertices) == 1:
                rv = self.vertices[0]
            if rv not in self.vertices:
                raise ParseError("empty path needs a vertex")
        return Path(rv, edges)

    def ps(self, p):
        return self.es[p.edges[-1]] if p.edges else p.rv

    def pr(self, p):
        return p.rv

    def paths(self, n):
        """All paths of length exactly n, deterministically ordered."""
        out = [self.path((), v) for v in sorted(self.vertices, key=repr)]
        for _ in range(n):
            out = [self.path(p.edges + (e,), p.rv)
                   for p in out for e in sorted(self.edges, key=repr)
                   if self.ps(p) == self.er[e]]
        return out

    def act_path(self, g, p):
        """g . (e1...en) and the residual restriction g|_(e1...en)."""
        h, out = g, []
        for e in p.edges:
            out.append(self.eact[(h, e)])
            h = self.cocycle[(h, e)]
        return self.path(tuple(out), self.vact[(g, p.rv)]), h

    def ev(self, pre, per, rv=None):
        """Canonical eventually periodic point pre . per^infinity."""
        pre, per = tuple(pre), tuple(per)
        if not per:
            raise ParseError("period must be nonempty")
        if self.es[per[-1]] != self.er[per[0]]:
            raise ParseError("period does not loop")
        self.path(pre + per, rv)   # composability check
        k = next(k for k in range(1, len(per) + 1)
                 if len(per) % k == 0 and per == per[:k] * (len(per) // k))
        per = per[:k]
        while pre and pre[-1] == per[-1]:
            pre, per = pre[:-1], (per[-1],) + per[:-1]
        rv = self.er[pre[0]] if pre else self.er[per[0]]
        return EvPeriodicWord(rv, pre, per)

    def ev_letter(self, z, i):
        if i < len(z.pre):
            return z.pre[i]
        return z.per[(i - len(z.pre)) % len(z.per)]

    def ev_phase(self, z, i):
        """Canonical index used for pigeonhole walks along z."""
        if i < len(z.pre):
            return i
        return len(z.pre) + (i - len(z.pre)) % len(z.per)

    def ev_drop(self, z, k):
        if k <= len(z.pre):
            return self.ev(z.pre[k:], z.per)
        j = (k - len(z.pre)) % len(z.per)
        return self.ev((), z.per[j:] + z.per[:j])

    def ev_starts_with(self, z, p):
        if self.pr(p) != z.rv:
            return False
        return all(self.ev_letter(z, i) == e for i, e in enumerate(p.edges))

    def group_act_ev(self, g, z):
        """g . z for an eventually periodic z; again eventually periodic."""
        out_pre, h = self.act_path(g, Path(z.rv, z.pre))
        blocks, seen = [], {}
        while h not in seen:
            seen[h] = len(blocks)
            block, h = self.act_path(h, self.path(z.per))
            blocks.append(block.edges)
        j = seen[h]
        pre = out_pre.edges + sum(blocks[:j], ())
        per = sum(blocks[j:], ())
        return self.ev(pre, per, self.vact[(g, z.rv)])


class CheckedNF:
    """A normal form (w1, g, w2) whose constructor checks g.s(w2) == s(w1)."""

    def __init__(self, data, w1=None, g=None, w2=None, zero=False):
        self.data = data
        self.zero = zero
        if zero:
            self.w1 = self.g = self.w2 = None
        else:
            self.w1, self.g, self.w2 = w1, g, w2
            if data.ps(w1) != data.vact[(g, data.ps(w2))]:
                raise ParseError("incompatible normal form")

    def key(self):
        return ("0",) if self.zero else (self.w1, self.g, self.w2)

    def __eq__(self, other):
        return isinstance(other, CheckedNF) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.zero:
            return "nf<0>"

        def word(w):            # an empty word names its vertex if needed
            if w.edges:
                return "".join(map(str, w.edges))
            return "e" if len(self.data.vertices) == 1 else f"e@{w.rv}"
        return f"nf<{word(self.w1)},{self.g},{word(self.w2)}>"


def checked_nf(walk, t):
    """The checked copy over a CheckedWalk of a library normal form."""
    if t.zero:
        return CheckedNF(walk, zero=True)
    return CheckedNF(walk, t.w1, t.g, t.w2)


def _split(data, long, short):
    """The path x with long == short . x, or None."""
    if long.edges[:len(short.edges)] != short.edges or \
            data.pr(long) != data.pr(short):
        return None
    rest = long.edges[len(short.edges):]
    return data.path(rest, data.ps(short))


def nf_mul(t1, t2):
    """The three-case product of normal forms."""
    data = t1.data
    assert data is t2.data, "operands over different data"
    if t1.zero or t2.zero:
        return CheckedNF(data, zero=True)
    G = data.group
    x = _split(data, t2.w1, t1.w2)
    if x is not None:
        gx, res = data.act_path(t1.g, x)
        w1 = data.path(t1.w1.edges + gx.edges, data.pr(t1.w1))
        return CheckedNF(data, w1, G.op(res, t2.g), t2.w2)
    x = _split(data, t1.w2, t2.w1)
    if x is not None:
        g2inv = G.inv[t2.g]
        g2x, res = data.act_path(g2inv, x)
        w2 = data.path(t2.w2.edges + g2x.edges, data.pr(t2.w2))
        return CheckedNF(data, t1.w1, G.op(t1.g, G.inv[res]), w2)
    return CheckedNF(data, zero=True)


def nf_restrict(t, x):
    """Restrict the slice of t along a path x in its source domain."""
    data = t.data
    assert data.ps(t.w2) == data.pr(x)
    gx, res = data.act_path(t.g, x)
    w1 = data.path(t.w1.edges + gx.edges, data.pr(t.w1))
    w2 = data.path(t.w2.edges + x.edges, data.pr(t.w2))
    return CheckedNF(data, w1, res, w2)


def act_on_word(t, z):
    """Apply a normal form to a finite path or eventually periodic point."""
    data = t.data
    if t.zero:
        raise Undefined("the zero element has empty domain")
    if isinstance(z, Path):
        x = _split(data, z, t.w2)
        if x is None:
            raise Undefined(f"{z!r} does not start with {t.w2!r}")
        gx, _ = data.act_path(t.g, x)
        return data.path(t.w1.edges + gx.edges, data.pr(t.w1))
    if not data.ev_starts_with(z, t.w2):
        raise Undefined(f"{z!r} does not start with {t.w2!r}")
    tail = data.ev_drop(z, len(t.w2.edges))
    moved = data.group_act_ev(t.g, tail)
    return data.ev(t.w1.edges + moved.pre, moved.per, data.pr(t.w1))


def germ_equal(t1, t2, z):
    """Whether t1 and t2 have the same germ at the point z."""
    data = t1.data
    if t1.zero or t2.zero:
        return t1.zero == t2.zero
    if not (data.ev_starts_with(z, t1.w2) and data.ev_starts_with(z, t2.w2)):
        raise ParseError("z outside a domain")
    if len(t1.w1.edges) - len(t1.w2.edges) != \
            len(t2.w1.edges) - len(t2.w2.edges):
        return False
    p0 = max(len(t1.w2.edges), len(t2.w2.edges))

    def aligned(t):
        x = data.path(tuple(data.ev_letter(z, i)
                            for i in range(len(t.w2.edges), p0)),
                      data.ps(t.w2))
        return nf_restrict(t, x)

    a, b = aligned(t1), aligned(t2)
    if data.pr(a.w1) != data.pr(b.w1):
        return False
    out_a, out_b = list(a.w1.edges), list(b.w1.edges)
    if out_a != out_b:
        return False
    ra, rb = a.g, b.g
    p, seen = p0, set()
    while True:
        if ra == rb:
            return True
        state = (ra, rb, data.ev_phase(z, p))
        if state in seen:
            return False
        seen.add(state)
        e = data.ev_letter(z, p)
        if data.eact[(ra, e)] != data.eact[(rb, e)]:
            return False
        ra, rb = data.cocycle[(ra, e)], data.cocycle[(rb, e)]
        p += 1


def slice_intersections(t1, t2, depth=None):
    """Decompose the intersection of two normal-form slices."""
    data = t1.data
    if t1.zero or t2.zero:
        return []
    x = _split(data, t2.w2, t1.w2)
    if x is not None:
        t1 = nf_restrict(t1, x)
    else:
        x = _split(data, t1.w2, t2.w2)
        if x is None:
            return []
        t2 = nf_restrict(t2, x)
    if len(t1.w1.edges) != len(t2.w1.edges):
        return []

    out = []

    def descend(a, b, visited, d):
        if a.w1 != b.w1:
            return
        if a.g == b.g:
            out.append(a)
            return
        state = (a.g, b.g, data.ps(a.w2))
        if state in visited:
            return
        if depth is not None and d >= depth:
            raise DepthInsufficient(
                f"intersection of {t1!r} and {t2!r} needs depth > {depth}")
        for e in sorted(data.edges, key=repr):
            if data.er[e] != data.ps(a.w2):
                continue
            descend(nf_restrict(a, data.path((e,))),
                    nf_restrict(b, data.path((e,))),
                    visited | {state}, d + 1)

    descend(t1, t2, frozenset(), 0)
    return out


class CheckedPairArrow:
    """A pair-construction arrow whose extensions and ends are checked."""

    def __init__(self, data, w1, g1, w2, g2, z):
        self.data = data
        self.w1, self.g1, self.w2, self.g2, self.z = w1, g1, w2, g2, z

    def extend(self, k):
        """Append the first k letters of the tail to both legs."""
        data = self.data
        out = self
        for _ in range(k):
            e = data.ev_letter(out.z, 0)
            tail = data.ev_drop(out.z, 1)
            w1, r1 = data.act_path(out.g1, data.path((e,)))
            w2, r2 = data.act_path(out.g2, data.path((e,)))
            out = CheckedPairArrow(
                data, data.path(out.w1.edges + w1.edges, out.w1.rv),
                r1, data.path(out.w2.edges + w2.edges, out.w2.rv), r2, tail)
        return out

    def source(self):
        data = self.data
        moved = data.group_act_ev(self.g2, self.z)
        return data.ev(self.w2.edges + moved.pre, moved.per, self.w2.rv)

    def target(self):
        data = self.data
        moved = data.group_act_ev(self.g1, self.z)
        return data.ev(self.w1.edges + moved.pre, moved.per, self.w1.rv)

    def fields(self):
        return (self.w1, self.g1, self.w2, self.g2, self.z)


class PairCoords:
    """A pair-groupoid arrow [gamma_g, gamma_h] in the coordinates that the
    residual walk reads, as the model kept it before it kept germs.

    The two legs are (w1, g1, z) and (w2, g2, z) over a common tail z;
    the source is w2.(g2.z), the range w1.(g1.z), and the grade is
    len(w1) - len(w2).  The class is stable under the right twist by a
    group element and under extension along the letters of z; twisted
    to g2 = 1, it is the germ of the normal form (w1, g1, w2) there.
    """

    def __init__(self, data, w1, g1, w2, g2, z):
        self.data = data
        self.w1, self.g1, self.w2, self.g2, self.z = w1, g1, w2, g2, z

    def normalised(self):
        """Twist so that the second leg carries the trivial element."""
        data, G = self.data, self.data.group
        if self.g2 == G.identity:
            return self
        return PairCoords(data, self.w1, G.op(self.g1, G.inv[self.g2]),
                          self.w2, G.identity,
                          data.group_act_ev(self.g2, self.z))

    def grade(self):
        return len(self.w1.edges) - len(self.w2.edges)

    def source(self):
        data = self.data
        return data.ev_prepend(self.w2.edges,
                               data.group_act_ev(self.g2, self.z))

    def target(self):
        data = self.data
        return data.ev_prepend(self.w1.edges,
                               data.group_act_ev(self.g1, self.z))


def coords(p):
    """A germ PairArrow (z, t) in coordinates: the legs of t over the tail
    of z past t's source word; coordinates are returned as they are."""
    if isinstance(p, PairCoords):
        return p
    data, t = p.t.data, p.t
    return PairCoords(data, t.w1, t.g, t.w2, data.group.identity,
                      data.ev_drop(p.z, len(t.w2.edges)))


def germ(p):
    """A coordinate arrow as the germ PairArrow it is, at its source."""
    n = p.normalised()
    return PairArrow(n.source(), NormalForm(n.data, n.w1, n.g1, n.w2))


def pair_extend(p, k):
    """The extension of coordinate arrows, which the germ calculus
    replaced: p with the first k letters of its tail appended to both
    legs, joins checked."""
    p = coords(p)
    fields = CheckedPairArrow(p.data, p.w1, p.g1, p.w2, p.g2, p.z)
    return PairCoords(p.data, *fields.extend(k).fields())


def pair_equal(p, q):
    """SelfSimPairModel.equal by the residual walk: align the two pairs
    at a common source, then walk the extensions level by level; a
    repeated pair of residuals at the same phase of the tail certifies
    inequality by pigeonhole."""
    p, q = coords(p).normalised(), coords(q).normalised()
    data = p.data
    z0 = p.source()
    if z0 != q.source() or p.grade() != q.grade():
        return False
    lp, lq = len(p.w2.edges), len(q.w2.edges)
    top = max(lp, lq)
    p, q = pair_extend(p, top - lp), pair_extend(q, top - lq)
    seen = set()
    pos = top
    while True:
        if (p.w1, p.g1, p.w2) == (q.w1, q.g1, q.w2):
            return True
        if p.w1.edges != q.w1.edges or p.w2.edges != q.w2.edges:
            return False
        state = (p.g1, q.g1, data.ev_phase(z0, pos))
        if state in seen:
            return False
        seen.add(state)
        p, q = pair_extend(p, 1), pair_extend(q, 1)
        pos += 1


def pair_mult(p, q, depth=4):
    """SelfSimPairModel.mult by common refinement: extend both arrows
    up to depth letters until q's first leg meets p's second leg."""
    p, q = coords(p).normalised(), coords(q)
    data = p.data
    G = data.group
    if p.source() != q.target():
        raise DepthInsufficient("arrows not composable")
    for k1 in range(depth + 1):
        pe = pair_extend(p, k1)
        mid_p = (pe.w2.edges, pe.g2)
        for k2 in range(depth + 1):
            qe = pair_extend(q, k2)
            # twist q so that its first leg matches p's second leg
            if qe.w1.edges != mid_p[0]:
                continue
            h = G.op(G.inv[qe.g1], mid_p[1])
            if data.group_act_ev(G.inv[h], qe.z) != pe.z:
                continue
            return PairCoords(data, pe.w1, pe.g1, qe.w2, G.op(qe.g2, h),
                              pe.z)
    raise DepthInsufficient(f"no common refinement within depth {depth}")


def arrows_over(model, points, word_len=2):
    """All distinct arrows with legs of the given length, as reps."""
    data = model.data
    out = []
    paths = [w for n in range(word_len + 1) for w in data.paths(n)]
    for z in points:
        for w1 in paths:
            for g in data.group:
                for w2 in paths:
                    if data.ps(w1) != data.vact[(g, data.ps(w2))]:
                        continue
                    t = nf(data, w1.edges, g, w2.edges,
                           rv1=w1.rv, rv2=w2.rv)
                    if not data.ev_starts_with(z, t.w2):
                        continue
                    p = pair_from_nf(data, t, z)
                    if not any(model.equal(p, q) for q in out):
                        out.append(p)
    return out


def transformation(group, points, action):
    """The groupoid of a group action, built by hand: arrows (g, v) from
    v to g.v."""
    points = tuple(points)
    arrows = {(g, v): (v, action[(g, v)]) for g in group for v in points}
    comp = {}
    for (g2, v2) in arrows:
        for (g1, v1) in arrows:
            if v2 == action[(g1, v1)]:
                comp[((g2, v2), (g1, v1))] = (group.op(g2, g1), v1)
    ident = {v: (group.identity, v) for v in points}
    inv = {(g, v): (group.inv[g], action[(g, v)]) for (g, v) in arrows}
    return FinGroupoid(points, arrows, comp, ident, inv)


def groupoid_semidirect(gpd, carrier, anchor, act):
    """The transformation groupoid of a groupoid action on a finite set.

    Arrows are pairs (gamma, w) from w to gamma.w for anchor-matching
    points w.
    """
    arrows = {}
    for g in gpd.arrow_ids():
        for w in carrier:
            if anchor[w] == gpd.src(g):
                arrows[(g, w)] = (w, act[(g, w)])
    comp = {}
    for (g2, w2) in arrows:
        for (g1, w1) in arrows:
            if w2 == act[(g1, w1)]:
                comp[((g2, w2), (g1, w1))] = (gpd.mul(g2, g1), w1)
    ident = {w: (gpd.unit(anchor[w]), w) for w in carrier}
    inv = {(g, w): (gpd.invert(g), act[(g, w)]) for (g, w) in arrows}
    return FinGroupoid(tuple(carrier), arrows, comp, ident, inv)


def germs(gens, carrier):
    """The germs of a pseudogroup: the pairs (y, f(y)) of every member f
    of its closure under composition and inverse, and (y, y) on the
    carrier."""
    out = {(y, y) for y in carrier}
    for f in pseudogroup_closure(gens):
        out.update(f.mapping.items())
    return sorted(out, key=repr)


class TransformationGroupoid:
    """Arrows [t, x] of an element calculus with a germ oracle, per call.

    ``arrow(t, x)`` asks the oracle about t and every element defined at
    x and names the class by its least-index member; ``arrows`` dedupes
    the arrows of every (t, x) by a list scan.
    """

    def __init__(self, elements, mul, apply, oracle, carrier, unit_of):
        self.elements = list(elements)
        self._index = {t: i for i, t in enumerate(self.elements)}
        self.mul = mul
        self.apply = apply
        self.oracle = oracle
        self.carrier = tuple(carrier)
        self.unit_of = unit_of

    def _ask(self, t, u, x):
        ans = self.oracle(t, u, x)
        if ans is None:
            raise OracleIncomplete(f"germ query ({t!r},{u!r},{x!r}) declined")
        return ans

    def arrow(self, t, x):
        """Canonical class representative of (t, x)."""
        if self.apply(t, x) is None:
            raise Undefined("{!r} is not defined at {!r}", t, x)
        best = min((u for u in self.elements
                    if self.apply(u, x) is not None and self._ask(t, u, x)),
                   key=lambda u: self._index[u])
        return (best, x)

    def arrows(self):
        out = []
        for t in self.elements:
            for x in self.carrier:
                if self.apply(t, x) is not None:
                    a = self.arrow(t, x)
                    if a not in out:
                        out.append(a)
        return out

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
        return self._ask(t, self.unit_of(x), x)

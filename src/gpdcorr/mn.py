"""(m,n)-dynamical systems and their depth-truncated universal space.

An (m,n)-system is a set split as Y1 | Y2 with n injections and m
injections from Y1 whose images each partition Y2.  Such systems are
the actions of the two-arrow equaliser diagram with correspondences of
sizes n and m, and equivalently partial actions of the free group on
n+m generators subject to five conditions.  The universal space is
touched only through depth-d configurations: consistently labelled
balls of the reduced-word tree, with no exactness claim at finite
depth.

Words are tuples of signed integers: letter +i is the i-th generator
(h-block first, then the v-block), -i its inverse; composition applies
the rightmost letter first.
"""

from functools import reduce
from itertools import product, starmap

from .corr import space_correspondence
from .diagram import FAction, from_generators
from .errors import DepthInsufficient, ParseError
from .fincat import PresentedShape
from .groupoid import PartialBijection


def make_emn(m, n):
    """The equaliser diagram with |X_h| = n and |X_v| = m."""
    if m < 1 or n < 1:
        raise ParseError(f"m and n must be at least 1, got {m!r}, {n!r}")
    shape = PresentedShape.path_category(
        ("1", "2"), {"h": ("2", "1"), "v": ("2", "1")}, length_bound=2)
    xh = space_correspondence(
        ("*",), ("*",), {("h", i): "*" for i in range(n)},
        {("h", i): "*" for i in range(n)},
        carrier=[("h", i) for i in range(n)])
    xv = space_correspondence(
        ("*",), ("*",), {("v", j): "*" for j in range(m)},
        {("v", j): "*" for j in range(m)},
        carrier=[("v", j) for j in range(m)])
    return from_generators(shape, {"h": xh, "v": xv})


class MNAction:
    """A carrier split as Y1 | Y2 with h- and v-injections from Y1."""

    def __init__(self, y1, y2, hmaps, vmaps):
        self.y1 = tuple(y1)
        self.y2 = tuple(y2)
        self.hmaps = [dict(f) for f in hmaps]
        self.vmaps = [dict(f) for f in vmaps]

    @property
    def carrier(self):
        return self.y1 + self.y2


def validate_mn_action(a):
    report = []
    if set(a.y1) & set(a.y2):
        report.append("Y1 and Y2 overlap")
    for kind, maps in (("h", a.hmaps), ("v", a.vmaps)):
        seen = set()
        for i, f in enumerate(maps):
            if set(f) != set(a.y1):
                report.append(f"{kind}{i} is not defined on all of Y1")
            vals = list(f.values())
            if len(set(vals)) != len(vals):
                report.append(f"{kind}{i} is not injective")
            if not set(vals) <= set(a.y2):
                report.append(f"{kind}{i} does not map into Y2")
            if seen & set(vals):
                report.append(f"image of {kind}{i} overlaps the {kind}-block")
            seen |= set(vals)
        if seen != set(a.y2):
            report.append(f"the {kind}-images do not cover Y2")
    return report


class PartialFreeAction:
    """Partial bijections for the generators of a free group."""

    def __init__(self, n, m, gens, carrier):
        self.n = n
        self.m = m
        self.gens = {i: PartialBijection(dict(g.mapping))
                     for i, g in gens.items()}
        self.carrier = tuple(carrier)

    def letter(self, ell):
        pb = self.gens[abs(ell)]
        return pb if ell > 0 else pb.star()

    def rho(self, word):
        out = PartialBijection.identity(self.carrier)
        for ell in reversed(word):
            out = self.letter(ell) * out
        return out


def to_partial_action(a):
    n, m = len(a.hmaps), len(a.vmaps)
    gens = {}
    for i, f in enumerate(a.hmaps, start=1):
        gens[i] = PartialBijection(f)
    for j, f in enumerate(a.vmaps, start=n + 1):
        gens[j] = PartialBijection(f)
    return PartialFreeAction(n, m, gens, a.carrier)


def reduced_words(rank, max_len):
    """All reduced words up to a length, deterministically ordered."""
    letters = [i for i in range(1, rank + 1)] + \
        [-i for i in range(1, rank + 1)]
    out = [()]
    layer = [()]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            for ell in letters:
                if w and w[0] == -ell:
                    continue
                nxt.append((ell,) + w)
        out.extend(nxt)
        layer = nxt
    return out


def reduce_word(word):
    out = []
    for ell in reversed(word):
        if out and out[-1] == -ell:
            out.pop()
        else:
            out.append(ell)
    return tuple(reversed(out))


def check_conditions(p):
    """The five conditions for a partial action to come from a system."""
    report = []
    rank = p.n + p.m
    empty = PartialBijection.empty()
    for g in reduced_words(rank, 2):
        for h in reduced_words(rank, 2):
            gh = reduce_word(g + h)
            if len(gh) != len(g) + len(h):
                continue
            if p.rho(g) * p.rho(h) != p.rho(gh):
                report.append(f"(1) fails at {g!r},{h!r}")
    domains = {i: p.gens[i].domain for i in p.gens}
    y1 = domains[1]
    for i in p.gens:
        if domains[i] != y1:
            report.append(f"(2) fails: generator {i} has a different domain")
    for i in p.gens:
        for j in p.gens:
            if p.gens[i] * p.gens[j] != empty:
                report.append(f"(3) fails at {i},{j}")
    blocks = [range(1, p.n + 1), range(p.n + 1, rank + 1)]
    for block in blocks:
        for i in block:
            for j in block:
                if i != j and p.gens[i].star() * p.gens[j] != empty:
                    report.append(f"(4) fails at {i},{j}")
    whole = set(p.carrier)
    for block in blocks:
        cover = set(y1)
        for i in block:
            cover |= p.gens[i].image
        if cover != whole:
            report.append(f"(5) fails for the block starting at {block[0]}")
    return report


def mn_to_faction(d, a):
    """Read an (m,n)-system as an action of the equaliser diagram."""
    part = {y: "1" for y in a.y1}
    part.update({y: "2" for y in a.y2})
    anchor = {y: "*" for y in a.carrier}
    gact = {(("u", "*"), y): y for y in a.carrier}
    arrows = {g[2][0]: g for g in d.shape.generator_arrows()}
    alph = {arrows["h"]: {((("h", i),), y): f[y]
                          for i, f in enumerate(a.hmaps) for y in a.y1},
            arrows["v"]: {((("v", j),), y): f[y]
                          for j, f in enumerate(a.vmaps) for y in a.y1}}
    return FAction(d, a.carrier, part, anchor, gact, alph)


# -- depth-truncated universal space -----------------------------------------

def _fold(m, n, d, combine):
    """combine(first, branches) folded up the depth-d configuration tree,
    once per (first letter, levels left): a node's choices depend only on
    those (None at the root), and its children choose independently."""
    if d < 0:
        raise ParseError(f"depth must be at least 0, got {d!r}")
    hs, vs = list(range(1, n + 1)), list(range(n + 1, n + m + 1))
    # root: Y1 (all generators) or Y2 (one h- and one v-inverse); inverse
    # first: Y1 bar the cancelling letter; generator first: Y2, one free
    # inverse from the other block; a boundary node has one empty branch
    rule = {None: [hs + vs] + [[-hi, -vj] for hi in hs for vj in vs]}
    for ell in hs + vs:
        rule[-ell] = [[g for g in hs + vs if g != ell]]
        rule[ell] = [[-x] for x in (vs if ell in hs else hs)]
    below = {c: combine(c, [[]]) for c in rule if (c is None) == (d == 0)}
    for levels in range(1, d + 1):
        below = {c: combine(c, [[below[x] for x in new] for new in rule[c]])
                 for c in rule if (c is None) == (levels == d)}
    return below[None]


def omega_depth(m, n, d):
    """All consistent configurations at depth d.

    A configuration is the set of reduced words defined at a point; it
    is suffix-closed and every interior node carries the local shadow
    of the five conditions.  Boundary nodes are unconstrained.

    The order is that of ``sorted(config)``: branches are disjoint, so no
    configuration contains another, and A comes first exactly when the
    least word of A ^ B is in A, i.e. when A has the larger mask with bit
    1 << (N-1-i) for the i-th least of the N words in use.  Masks of
    disjoint parts add, so only the root's children's options are weighed.
    """
    def options(first, branches):
        if first is not None:   # words relative to the node's parent
            node = (first,)
            lifted = [[[frozenset(w + node for w in o) for o in opts]
                       for opts in children] for children in branches]
            return [frozenset([node]).union(*parts)
                    for children in lifted for parts in product(*children)]
        bit = {w: 1 << i for i, w in enumerate(sorted(
            {w for ch in branches for opts in ch for o in opts for w in o},
            reverse=True))}
        ranked = {}
        for children in branches:
            masks = [[sum(map(bit.get, o)) for o in opts] for opts in children]
            ranked.update(zip(map(sum, product(*masks)), starmap(
                frozenset([()]).union, product(*children))))
        return [ranked[mask] for mask in sorted(ranked, reverse=True)]

    return _fold(m, n, d, options)


def omega_counts(m, n, d):
    """(configurations, arrows) at depth d: omega_depth's fold, counted."""
    def join(a, b):   # (count, words) of independent parts
        return a[0] * b[0], a[1] * b[0] + a[0] * b[1]

    def tally(first, branches):   # each configuration also holds the node
        parts = [reduce(join, children, (1, 1)) for children in branches]
        return sum(c for c, _ in parts), sum(w for _, w in parts)

    return _fold(m, n, d, tally)


def restrict_config(config, d):
    return frozenset(w for w in config if len(w) <= d)


def point_config(p, x, d):
    """The defined-word set of a point, the canonical map to omega."""
    return frozenset(w for w in reduced_words(p.n + p.m, d)
                     if x in p.rho(w).domain)


def translate_config(g, config, d, rank):
    """The configuration at the g-image of a point; partial beyond d."""
    known = {}
    for h in reduced_words(rank, d):
        hg = reduce_word(h + g)
        if len(hg) <= d:
            known[h] = hg in config
    return known


def mn_groupoid_depth(m, n, d):
    """The depth-d truncation of the universal transformation groupoid."""
    configs = omega_depth(m, n, d)
    return MNGroupoidDepth(m, n, d, configs)


class MNGroupoidDepth:

    def __init__(self, m, n, d, configs):
        self.m = m
        self.n = n
        self.d = d
        self.configs = configs

    def arrows(self):
        out = []
        for omega in self.configs:
            for g in sorted(omega, key=lambda w: (len(w), w)):
                out.append((g, omega))
        return out

    def s(self, arrow):
        return arrow[1]

    def r(self, arrow):
        g, omega = arrow
        known = translate_config(g, omega, self.d, self.n + self.m)
        matches = [c for c in self.configs
                   if all((h in c) == v for h, v in known.items())]
        if len(matches) != 1:
            raise DepthInsufficient(
                f"translated configuration of {g!r} not determined "
                f"at depth {self.d}")
        return matches[0]

    def mul(self, a2, a1):
        (g2, w2), (g1, w1) = a2, a1
        if self.r(a1) != w2:
            return None
        g = reduce_word(g2 + g1)
        if len(g) > self.d:
            raise DepthInsufficient(f"word {g!r} exceeds depth {self.d}")
        if g not in w1:
            raise DepthInsufficient(
                f"composite {g!r} not recorded in the source configuration")
        return (g, w1)

    def inverse(self, arrow):
        g, omega = arrow
        ginv = tuple(-ell for ell in reversed(g))
        return (ginv, self.r(arrow))

    def unit(self, omega):
        return ((), omega)

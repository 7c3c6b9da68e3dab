"""Self-similar groups and self-similar graphs.

The data is a finite group acting on the vertices and edges of a finite
graph together with a restriction cocycle g|_e; a self-similar group is
the one-vertex case, where edges are the letters of an alphabet.  The
inverse semigroup of normal forms (w1, g, w2) acts on finite and on
eventually periodic infinite paths by cut-act-paste.  All germ
decisions on eventually periodic points are exact: the walk along the
periodic tail is pruned by pigeonhole on the pair of residual group
elements.

Paths are pairs Path(rv, edges); the range vertex is stored explicitly
so that empty paths at different vertices stay distinct.  The data
keeps one table ``step[(g, e)] = (g.e, g|_e)``, so a group element walks
an edge tuple with one lookup per letter.  The product of normal forms
and the action on finite paths compare range vertex and prefix, walk
the rest of the longer word with ``act_edges`` and build the answer's
path with ``tuple.__new__``, or reuse the operand's when no rest is left.

Input is checked at the boundary: ``SelfSimilarData`` refuses tables
that are not total, and ``path``, ``ev`` and ``nf`` are the checked
constructors.  Everything else trusts data with ``validate() == []``
and builds its joins unchecked, as r(g.e) = g.r(e) and
s(g.e) = g|_e.s(e) make them compose.  It trusts its points as well:
an eventually periodic point must come from ``ev``, ``ev_canon`` or
``ev_prepend``, which return it in canonical form.
"""

from collections import namedtuple
from itertools import product

from .corr import Correspondence
from .errors import DepthInsufficient, ParseError, Undefined
from .groupoid import FinGroupoid

Path = namedtuple("Path", ["rv", "edges"])
EvPeriodicWord = namedtuple("EvPeriodicWord", ["rv", "pre", "per"])
EffectiveResult = namedtuple("EffectiveResult", ["effective", "witness"])


class SelfSimilarData:

    def __init__(self, group, vertices, edges, er, es, vact, eact, cocycle):
        self.group = group
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.er = dict(er)
        self.es = dict(es)
        self.vact = dict(vact)
        self.eact = dict(eact)
        self.cocycle = dict(cocycle)
        V, ge = set(self.vertices), list(product(group, self.edges))
        for name, keys, values in (
                ("er", self.edges, V), ("es", self.edges, V),
                ("vact", product(group, self.vertices), V),
                ("eact", ge, set(self.edges)),
                ("cocycle", ge, set(group.elements))):
            table = getattr(self, name)
            for k in keys:
                if k not in table or table[k] not in values:
                    raise ParseError(f"{name} has no valid entry for {k!r}")
        self.step = {k: (self.eact[k], self.cocycle[k]) for k in ge}
        self.edges_at = {v: [] for v in self.vertices}
        for e in sorted(self.edges, key=repr):
            self.edges_at[self.er[e]].append(e)
        self._zero = NormalForm(self, zero=True)

    @classmethod
    def group_alphabet(cls, group, letters, eact, cocycle):
        """The one-vertex case: a self-similar group on an alphabet."""
        letters = tuple(letters)
        return cls(group, ("*",), letters,
                   {a: "*" for a in letters}, {a: "*" for a in letters},
                   {(g, "*"): "*" for g in group}, eact, cocycle)

    def validate(self):
        report = []
        G = self.group
        for v in self.vertices:
            if self.vact[(G.identity, v)] != v:
                report.append(f"identity moves vertex {v!r}")
        for e in self.edges:
            if self.eact[(G.identity, e)] != e:
                report.append(f"identity moves edge {e!r}")
            if self.cocycle[(G.identity, e)] != G.identity:
                report.append(f"1|_{e!r} != 1")
        for g in G:
            for h in G:
                gh = G.op(g, h)
                for v in self.vertices:
                    if self.vact[(gh, v)] != self.vact[(g, self.vact[(h, v)])]:
                        report.append(f"vertex action fails at ({g!r},{h!r},{v!r})")
                for e in self.edges:
                    if self.eact[(gh, e)] != self.eact[(g, self.eact[(h, e)])]:
                        report.append(f"edge action fails at ({g!r},{h!r},{e!r})")
                    want = G.op(self.cocycle[(g, self.eact[(h, e)])],
                                self.cocycle[(h, e)])
                    if self.cocycle[(gh, e)] != want:
                        report.append(f"cocycle fails at ({g!r},{h!r},{e!r})")
        for g in G:
            for e in self.edges:
                ge = self.eact[(g, e)]
                if self.es[ge] != self.vact[(self.cocycle[(g, e)], self.es[e])]:
                    report.append(f"s(g.e) != (g|_e).s(e) at ({g!r},{e!r})")
                if self.er[ge] != self.vact[(g, self.er[e])]:
                    report.append(f"r(g.e) != g.r(e) at ({g!r},{e!r})")
        return report

    # -- paths ---------------------------------------------------------------

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
        out = [Path(v, ()) for v in sorted(self.vertices, key=repr)]
        for _ in range(n):
            out = [Path(p.rv, p.edges + (e,))
                   for p in out for e in self.edges_at[self.ps(p)]]
        return out

    def act_path(self, g, p):
        """g . (e1...en) and the residual restriction g|_(e1...en)."""
        edges, h = self.act_edges(g, p.edges)
        return Path(self.vact[(g, p.rv)], edges), h

    def act_edges(self, g, edges):
        """act_path on the edge tuple alone, one step lookup per letter."""
        step, out = self.step, []
        for e in edges:
            e, g = step[g, e]
            out.append(e)
        return tuple(out), g

    # -- eventually periodic points ------------------------------------------

    def ev(self, pre, per, rv=None):
        """Canonical eventually periodic point pre . per^infinity."""
        pre, per = tuple(pre), tuple(per)
        if not per:
            raise ParseError("period must be nonempty")
        if self.es[per[-1]] != self.er[per[0]]:
            raise ParseError("period does not loop")
        self.path(pre + per, rv)   # composability check
        return self.ev_canon(pre, per)

    def ev_canon(self, pre, per):
        """pre . per^infinity in canonical form, for a join that composes."""
        k = next(k for k in range(1, len(per) + 1)
                 if len(per) % k == 0 and per == per[:k] * (len(per) // k))
        return self._rotated(pre, per[:k])

    def ev_prepend(self, w, z):
        """w . z for a canonical z that w joins: ev_canon's rotation only."""
        return self._rotated(w + z.pre, z.per)

    def _rotated(self, pre, per):
        while pre and pre[-1] == per[-1]:
            pre, per = pre[:-1], (per[-1],) + per[:-1]
        return EvPeriodicWord(self.er[(pre or per)[0]], pre, per)

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
        """z without its first k letters; a canonical z stays canonical."""
        j = max(k - len(z.pre), 0) % len(z.per)
        pre, per = z.pre[k:], z.per[j:] + z.per[:j]
        return EvPeriodicWord(self.er[(pre or per)[0]], pre, per)

    def ev_starts_with(self, z, p):
        n = len(p.edges)
        return p.rv == z.rv and \
            (z.pre + z.per * (n // len(z.per) + 1))[:n] == p.edges

    def group_act_ev(self, g, z):
        """g . z for an eventually periodic z; again eventually periodic."""
        out_pre, h = self.act_edges(g, z.pre)
        blocks, seen = [], {}
        while h not in seen:
            seen[h] = len(blocks)
            block, h = self.act_edges(h, z.per)
            blocks.append(block)
        j = seen[h]
        return self.ev_canon(out_pre + sum(blocks[:j], ()),
                             sum(blocks[j:], ()))


class NormalForm:
    """A canonical element (w1, g, w2) of the normal-form semigroup.

    It acts on paths by cutting away the leading path w2, acting by g,
    and pasting w1 in front; the compatibility g.s(w2) == s(w1) makes
    the pasting composable.  There is a single zero element per data,
    and normal forms over different data are never equal.  The
    constructor trusts that compatibility; ``nf`` checks it.
    """

    __slots__ = ("data", "zero", "w1", "g", "w2", "_key")

    def __init__(self, data, w1=None, g=None, w2=None, zero=False):
        self.data = data
        self.zero = zero
        self.w1, self.g, self.w2 = w1, g, w2
        self._key = ("0",) if zero else (w1, g, w2)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, NormalForm) and self._key == other._key \
            and self.data is other.data

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.zero:
            return "nf<0>"

        def word(w):            # an empty word names its vertex if needed
            if w.edges:
                return "".join(map(str, w.edges))
            return "e" if len(self.data.vertices) == 1 else f"e@{w.rv}"
        return f"nf<{word(self.w1)},{self.g},{word(self.w2)}>"

    def __mul__(self, other):
        return nf_mul(self, other)

    def star(self):
        return nf_star(self)


def nf(data, w1_edges, g, w2_edges, rv1=None, rv2=None):
    """The checked constructor: g.s(w2) must be s(w1)."""
    w1, w2 = data.path(w1_edges, rv1), data.path(w2_edges, rv2)
    if data.ps(w1) != data.vact[(g, data.ps(w2))]:
        raise ParseError("incompatible normal form")
    return NormalForm(data, w1, g, w2)


def nf_zero(data):
    return data._zero


def nf_unit(data, v=None):
    v = v if v is not None else data.vertices[0]
    p = data.path((), v)
    return NormalForm(data, p, data.group.identity, p)


def nf_mul(t1, t2):
    """The three-case product: zero unless t1.w2 or t2.w1 starts the other,
    and then t1.g or t2.g^-1 walks the rest x of the longer word."""
    data = t1.data
    if data is not t2.data:
        raise ParseError("operands over different data")
    if t1.zero or t2.zero:
        return data._zero
    (rv1, u1), (rv2, u2) = t1.w2, t2.w1
    n1, n2 = len(u1), len(u2)
    if rv1 != rv2 or (u2[:n1] != u1 if n1 <= n2 else u1[:n2] != u2):
        return data._zero
    mul, inv = data.group.mul, data.group.inv
    if n1 == n2:
        return NormalForm(data, t1.w1, mul[t1.g, t2.g], t2.w2)
    g, w, x = (t1.g, t1.w1, u2[n1:]) if n1 < n2 else \
        (inv[t2.g], t2.w2, u1[n2:])
    gx, g = data.act_edges(g, x)
    w = tuple.__new__(Path, (w.rv, w.edges + gx))
    if n1 < n2:
        return NormalForm(data, w, mul[g, t2.g], t2.w2)
    return NormalForm(data, t1.w1, mul[t1.g, inv[g]], w)


def nf_star(t):
    if t.zero:
        return t
    return NormalForm(t.data, t.w2, t.data.group.inv[t.g], t.w1)


def nf_restrict(t, x):
    """Restrict the slice of t along a path x in its source domain."""
    data = t.data
    if data.ps(t.w2) != data.pr(x):
        raise Undefined("{!r} does not start at the source of {!r}", x, t)
    gx, res = data.act_edges(t.g, x.edges)
    w1 = Path(t.w1.rv, t.w1.edges + gx)
    w2 = Path(t.w2.rv, t.w2.edges + x.edges)
    return NormalForm(data, w1, res, w2)


def act_on_word(t, z):
    """Apply a normal form to a finite path or eventually periodic point."""
    data = t.data
    if t.zero:
        raise Undefined("the zero element has empty domain")
    if isinstance(z, Path):
        (rv, u), edges = t.w2, z.edges
        n = len(u)
        if z.rv != rv or edges[:n] != u:
            raise Undefined("{!r} does not start with {!r}", z, t.w2)
        if len(edges) == n:
            return t.w1
        gx, _ = data.act_edges(t.g, edges[n:])
        return tuple.__new__(Path, (t.w1.rv, t.w1.edges + gx))
    if not data.ev_starts_with(z, t.w2):
        raise Undefined("{!r} does not start with {!r}", z, t.w2)
    tail = data.ev_drop(z, len(t.w2.edges))
    return data.ev_prepend(t.w1.edges, data.group_act_ev(t.g, tail))


def germ_equal(t1, t2, z):
    """Whether t1 and t2 have the same germ at the point z.

    Decides the existence of a prefix x of z past the source words with
    w1.(g.x) == w1'.(g'.x'), g|_x == g'|_{x'} and w2.x == w2'.x'.  The
    walk along z is exact: a mismatch in the output words is permanent,
    and a repeated pair of residuals at the same phase of z never
    equalises later.
    """
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
        x = Path(data.ps(t.w2), tuple(data.ev_letter(z, i)
                                      for i in range(len(t.w2.edges), p0)))
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


def effective_check(data):
    """Effectiveness of the germ data on the infinite path space.

    The kernel of the action is computed as a greatest fixed point;
    each kernel element is then tested for eventual triviality of all
    its restrictions by reachability in the restriction automaton.
    """
    G = data.group
    kernel = {g for g in G
              if all(data.vact[(g, v)] == v for v in data.vertices)
              and all(data.eact[(g, e)] == e for e in data.edges)}
    while True:
        smaller = {g for g in kernel
                   if all(data.cocycle[(g, e)] in kernel for e in data.edges)}
        if smaller == kernel:
            break
        kernel = smaller
    for g in sorted(kernel, key=G.elements.index):
        if g == G.identity:
            continue
        reach, seen = {g}, []
        while reach not in seen:
            if reach == {G.identity}:
                break
            seen.append(reach)
            reach = {data.cocycle[(h, e)] for h in reach for e in data.edges}
        else:
            return EffectiveResult(False, g)
    return EffectiveResult(True, None)


def slice_intersections(t1, t2, depth=None):
    """Decompose the intersection of two normal-form slices.

    Returns a list of normal forms sigma with disjoint domains whose
    slices union to the intersection.  With depth=None the recursion is
    pruned exactly by pigeonhole on residual pairs; a smaller depth
    raises DepthInsufficient when it is reached before resolution.
    """
    data = t1.data
    if t1.zero or t2.zero:
        return []
    (rv1, u1), (rv2, u2) = t1.w2, t2.w2
    if (rv2, u2[:len(u1)]) == t1.w2:
        t1 = nf_restrict(t1, Path(data.ps(t1.w2), u2[len(u1):]))
    elif (rv1, u1[:len(u2)]) == t2.w2:
        t2 = nf_restrict(t2, Path(data.ps(t2.w2), u1[len(u2):]))
    else:
        return []
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
        for e in data.edges_at[data.ps(a.w2)]:
            x = Path(data.er[e], (e,))
            descend(nf_restrict(a, x), nf_restrict(b, x),
                    visited | {state}, d + 1)

    descend(t1, t2, frozenset(), 0)
    return out


def iterate(data, n):
    """The n-fold composite correspondence, with carrier P^n(E) x G."""
    G = data.group
    base = FinGroupoid.transformation(G, data.vertices, data.vact)
    carrier = [(p, g) for p in data.paths(n) for g in G]
    rmap = {(p, g): data.pr(p) for (p, g) in carrier}
    smap = {(p, g): data.vact[(G.inv[g], data.ps(p))] for (p, g) in carrier}
    lact = {}
    for (h, v) in base.arrow_ids():
        for (p, g) in carrier:
            if v != data.pr(p):
                continue
            hp, res = data.act_path(h, p)
            lact[((h, v), (p, g))] = (hp, G.op(res, g))
    ract = {}
    for (h, v) in base.arrow_ids():
        for (p, g) in carrier:
            if smap[(p, g)] != data.vact[(h, v)]:
                continue
            ract[((p, g), (h, v))] = (p, G.op(g, h))
    return Correspondence(base, base, carrier, rmap, smap, lact, ract)

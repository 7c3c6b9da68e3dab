"""Seeded instance families.

Each family is a fixed, finite list of members; a workload's seed picks
a fixed number of members from each family, and ``--pin``/``--check``
walk every member.  Families were chosen so that their members cost
about the same, which keeps a run's time independent of its seed; the
paper corpus, which every seed runs, carries most of the time.
"""

import random
from itertools import product

DEFAULT_SEED = 1


class Picker:
    """Chooses family members: ``count`` of them from a seed, or all."""

    def __init__(self, seed=None):
        self.rng = None if seed is None else random.Random(seed)

    def __call__(self, members, count):
        members = list(members)
        if self.rng is not None:
            members = self.rng.sample(members, min(count, len(members)))
        return members

    def draw(self, pool, count):
        """``count`` draws with replacement from a pool, or the whole pool."""
        if self.rng is None:
            return list(pool)
        return [self.rng.choice(pool) for _ in range(count)]

    def shuffle(self, items):
        if self.rng is not None:
            self.rng.shuffle(items)
        return items


# -- generator correspondences for one-generator diagrams ---------------------

# (r(x0), r(x1), s(x0), s(x1)) for a two-element space correspondence on two
# points; the two with r == s constant are left out because their alpha
# search is two orders of magnitude slower than the rest.
SPACE_MAPS = [m for m in product((0, 1), repeat=4)
              if not (m[0] == m[1] == m[2] == m[3])]


def space_key(m):
    return f"r{m[0]}{m[1]}-s{m[2]}{m[3]}"


def space_corr(P, m):
    carrier = [("x", 0), ("x", 1)]
    return P.corr.space_correspondence(
        (0, 1), (0, 1), dict(zip(carrier, m[:2])), dict(zip(carrier, m[2:])),
        carrier=carrier)


def cyclic_hom(order_from, order_to, j):
    """The homomorphism Z/order_from -> Z/order_to sending a to a^j."""
    def name(k):
        k %= order_to
        return "1" if k == 0 else ("a" if k == 1 else f"a{k}")
    src = ["1"] + ["a" if k == 1 else f"a{k}" for k in range(1, order_from)]
    return {g: name(j * k) for k, g in enumerate(src)}


def homs(order_from, order_to):
    return [j for j in range(order_to) if (j * order_from) % order_to == 0]


# endomorphisms a -> a^j of Z/3 and Z/4
ENDOS = [(n, j) for n in (3, 4) for j in homs(n, n)]


def endo_key(m):
    return f"z{m[0]}-a^{m[1]}"


def hom_corr(P, order_from, order_to, j):
    Group = P.groupoid.Group
    return P.corr.from_group_hom(Group.cyclic(order_from),
                                 Group.cyclic(order_to),
                                 cyclic_hom(order_from, order_to, j))


# chains Z/o0 -> Z/o1 -> Z/o2 -> Z/o3 of homomorphisms, orders in {2, 4}
HOM_CHAINS = [(orders, js)
              for orders in product((2, 4), repeat=4)
              for js in product(*(homs(a, b)
                                   for a, b in zip(orders, orders[1:])))]


def chain_key(chain):
    orders, js = chain
    return "-".join(f"z{o}" for o in orders) + ":" + \
        ",".join(map(str, js))


# discrete diagrams over cyclic groups, checked against the disjoint union
DISC_ORDERS = [(2,), (3,), (4,), (2, 2), (3, 3), (2, 4), (3, 4)]

# one-generator presentation models T^k = 1 of the point diagram; they
# are all quotients of Z and the verifier must refute each of them
POINT_RELATORS = [1, 2, 3, 4]

GRADED_TWISTS = ["1", "a"]

"""Result digests: short hashes of canonical forms of job results.

Digests are computed outside the timed region.  Actions are digested up
to relabelling of their carriers, so a change that returns different
but isomorphic representatives keeps its digest, while one that drops
or duplicates an isomorphism class changes it.
"""

import hashlib
import json
from itertools import permutations, product


def stable(value):
    """A nested tuple form of ``value`` whose repr is order-independent."""
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(
            ((stable(k), stable(v)) for k, v in value.items()), key=repr))
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((stable(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(stable(v) for v in value)
    return value


def h(value):
    """The digest of any value built from dicts, sets, tuples and scalars."""
    return hashlib.sha256(repr(stable(value)).encode()).hexdigest()[:16]


def h_bytes(*parts):
    sha = hashlib.sha256()
    for part in parts:
        sha.update(len(part).to_bytes(8, "big"))
        sha.update(part)
    return sha.hexdigest()[:16]


def h_set(strings):
    """The digest of a large multiset of strings, hashed one at a time."""
    sha = hashlib.sha256()
    for s in sorted(strings):
        sha.update(s.encode() + b"\n")
    return sha.hexdigest()[:16]


def h_json(payload):
    """The digest of a document payload, in the CLI's own key order."""
    return h_bytes(json.dumps(payload, separators=(",", ":")).encode())


def _relabel(a, pi):
    gact = tuple(sorted((((g, pi[y]), pi[z]) for (g, y), z in a.gact.items()),
                        key=repr))
    alph = tuple(sorted(
        ((g, tuple(sorted((((xi, pi[y]), pi[z])
                           for (xi, y), z in table.items()), key=repr)))
         for g, table in a.alph.items()), key=repr))
    return repr((gact, alph))


def action_canon(a):
    """The canonical form of an action: its least relabelled signature.

    Carrier points are first sorted by (piece, anchor); the minimum is
    taken over the relabellings that keep that order, which permute
    points only within a block of equal (piece, anchor).  The result
    depends only on the isomorphism class of the action, and two
    actions with equal forms are isomorphic.
    """
    def label(y):
        return (repr(a.part[y]), repr(a.anchor[y]))

    blocks = {}
    for y in a.carrier:
        blocks.setdefault(label(y), []).append(y)
    keys = sorted(blocks)
    frame = tuple(k for k in keys for _ in blocks[k])
    best = None
    for choice in product(*(permutations(blocks[k]) for k in keys)):
        order = [y for block in choice for y in block]
        pi = {y: i for i, y in enumerate(order)}
        sig = _relabel(a, pi)
        if best is None or sig < best:
            best = sig
    return repr(frame) + (best or "")


def actions_digest(actions):
    """Digest of a list of actions as a multiset of isomorphism classes."""
    return h(tuple(sorted(action_canon(a) for a in actions)))

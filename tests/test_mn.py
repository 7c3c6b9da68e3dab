import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from gpdcorr.diagram import enumerate_actions, validate_action, validate_diagram
from gpdcorr.errors import DepthInsufficient, ParseError
from gpdcorr.groupoid import PartialBijection
from gpdcorr.mn import (
    MNAction, PartialFreeAction, check_conditions, make_emn,
    mn_groupoid_depth, mn_to_faction, omega_counts, omega_depth,
    point_config, reduce_word, reduced_words, restrict_config,
    to_partial_action, translate_config, validate_mn_action)


def test_make_emn_sizes_and_validity():
    d = make_emn(1, 1)
    assert validate_diagram(d) == []
    d23 = make_emn(2, 3)
    arrows = {g[2][0]: g for g in d23.shape.generator_arrows()}
    assert len(d23.X(arrows["h"])) == 3
    assert len(d23.X(arrows["v"])) == 2
    assert validate_diagram(d23) == []


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (-2, 3), (2, -1)])
def test_make_emn_rejects_sizes_below_one(m, n):
    with pytest.raises(ParseError) as exc:
        make_emn(m, n)
    assert str(exc.value) == f"m and n must be at least 1, got {m}, {n}"


def test_make_emn_rejects_sizes_below_one_under_O():
    code = ("from gpdcorr.errors import ParseError\n"
            "from gpdcorr.mn import make_emn\n"
            "try:\n"
            "    make_emn(0, 1)\n"
            "except ParseError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "m and n must be at least 1, got 0, 1\n", "")


def test_simple_valid_system():
    a = MNAction(("p",), ("q",), [{"p": "q"}], [{"p": "q"}])
    assert validate_mn_action(a) == []
    assert check_conditions(to_partial_action(a)) == []


def test_empty_system_valid():
    a = MNAction((), (), [{}], [{}])
    assert validate_mn_action(a) == []
    assert check_conditions(to_partial_action(a)) == []


def test_unbalanced_cardinalities_invalid():
    a = MNAction(("p",), ("q", "r"), [{"p": "q"}], [{"p": "r"}])
    assert validate_mn_action(a) != []


def candidates_11(k):
    """All (1,1) candidates with injective maps on carriers of size k."""
    points = list(range(k))
    for split in range(1 << k):
        y1 = tuple(p for p in points if split & (1 << p))
        y2 = tuple(p for p in points if not split & (1 << p))
        if len(y1) > len(y2):
            continue
        for him in permutations(y2, len(y1)):
            for vim in permutations(y2, len(y1)):
                yield MNAction(y1, y2, [dict(zip(y1, him))],
                               [dict(zip(y1, vim))])


def test_validators_accept_the_same_instances():
    d = make_emn(1, 1)
    for k in range(5):
        for a in candidates_11(k):
            mn_ok = validate_mn_action(a) == []
            pa_ok = check_conditions(to_partial_action(a)) == []
            assert mn_ok == pa_ok
            fa_ok = validate_action(d, mn_to_faction(d, a)) == []
            assert mn_ok == fa_ok


def test_enumerate_unequal_mn_gives_only_empty():
    for (m, n) in ((2, 3), (1, 2)):
        acts = enumerate_actions(make_emn(m, n), 5)
        assert len(acts) == 1 and acts[0].carrier == ()


def test_reduced_words_and_reduction():
    words = reduced_words(2, 2)
    assert () in words and (1, 1) in words and (1, -1) not in words
    assert reduce_word((1, -1)) == ()
    assert reduce_word((2, 1, -1)) == (2,)


def test_omega_depth_configs_are_suffix_closed():
    for (m, n, d) in ((1, 1, 2), (1, 2, 2), (2, 2, 1)):
        for config in omega_depth(m, n, d):
            for w in config:
                for k in range(len(w)):
                    assert w[k:] in config


def test_omega_depth_11_golden_count():
    # one configuration per point type: the system is deterministic
    assert len(omega_depth(1, 1, 2)) == 2
    assert len(omega_depth(1, 1, 3)) == 2


def test_omega_depth_12_counts_and_restriction_surjective():
    shallow = omega_depth(1, 2, 1)
    deep = omega_depth(1, 2, 2)
    assert len(shallow) == 3 and len(deep) == 4
    restricted = {restrict_config(c, 1) for c in deep}
    assert restricted == set(shallow)


ORACLE_CASES = [(m, n, d) for m in (1, 2, 3) for n in (1, 2, 3)
                for d in range(8) if omega_counts(m, n, d)[0] <= 6000]


@pytest.mark.parametrize("m, n, d", ORACLE_CASES + [(2, 2, 4)])
def test_omega_depth_matches_oracle_in_order(m, n, d):
    assert omega_depth(m, n, d) == oracles.omega_depth(m, n, d)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
def test_omega_counts_match_the_listing(m, n, d):
    assume(m * n < 9 or d < 3)
    gd = mn_groupoid_depth(m, n, d)
    assert omega_counts(m, n, d) == (len(gd.configs), len(gd.arrows()))


def test_omega_counts_beyond_listing():
    assert omega_counts(2, 2, 5) == (67174400, 3427074048)
    assert omega_counts(1, 1, 1000) == (2, 2 * 2001)


@pytest.mark.parametrize("fold", [omega_depth, omega_counts])
def test_negative_depth_is_rejected(fold):
    with pytest.raises(ParseError) as exc:
        fold(1, 1, -1)
    assert str(exc.value) == "depth must be at least 0, got -1"


def test_point_config_lands_in_omega_and_is_equivariant():
    d = 2
    for a in candidates_11(4):
        if validate_mn_action(a) != []:
            continue
        p = to_partial_action(a)
        configs = omega_depth(1, 1, d)
        for x in a.carrier:
            cfg = point_config(p, x, d)
            assert cfg in configs
            # equivariance on the determined entries
            for g in reduced_words(2, d):
                img = p.rho(g)(x)
                if img is None:
                    continue
                known = translate_config(g, cfg, d, 2)
                target = point_config(p, img, d)
                for h, val in known.items():
                    assert (h in target) == val
            # restriction compatibility along d+1 -> d
            assert restrict_config(point_config(p, x, d + 1), d) == cfg


def test_mn_groupoid_units_and_inverses():
    gd = mn_groupoid_depth(1, 1, 2)
    for arrow in gd.arrows():
        g, omega = arrow
        assert gd.s(arrow) == omega
        inv = gd.inverse(arrow)
        assert gd.r(inv) == omega
        unit = gd.mul(inv, arrow)
        assert unit == ((), omega)
    assert len(gd.configs) == 2


def test_mn_groupoid_depth_insufficient():
    gd = mn_groupoid_depth(1, 1, 1)
    t1 = next(c for c in gd.configs if (1,) in c)
    a1 = ((1,), t1)
    t2 = gd.r(a1)
    with pytest.raises(DepthInsufficient):
        gd.mul(((-2,), t2), a1)


def test_mn_groupoid_range_restricts_compatibly():
    g1 = mn_groupoid_depth(1, 1, 1)
    g2 = mn_groupoid_depth(1, 1, 2)
    match = {c2: next(c1 for c1 in g1.configs
                      if restrict_config(c2, 1) == c1)
             for c2 in g2.configs}
    for (g, omega2) in g2.arrows():
        if len(g) > 1:
            continue
        omega1 = match[omega2]
        assert (g, omega1) in g1.arrows()
        assert match[g2.r((g, omega2))] == g1.r((g, omega1))


def all_22_systems(k1):
    k2 = 2 * k1
    y1 = tuple(range(k1))
    y2 = tuple(range(k1, k1 + k2))
    injections = list(permutations(y2, k1))
    for h1 in injections:
        for h2 in injections:
            if set(h1) & set(h2) or set(h1) | set(h2) != set(y2):
                continue
            for v1 in injections:
                for v2 in injections:
                    if set(v1) & set(v2) or set(v1) | set(v2) != set(y2):
                        continue
                    yield MNAction(y1, y2,
                                   [dict(zip(y1, h1)), dict(zip(y1, h2))],
                                   [dict(zip(y1, v1)), dict(zip(y1, v2))])


def test_22_point_configs_land_in_omega_and_translate():
    d = 2
    configs = omega_depth(2, 2, d)
    for a in all_22_systems(1):
        assert validate_mn_action(a) == []
        p = to_partial_action(a)
        for x in a.carrier:
            cfg = point_config(p, x, d)
            assert cfg in configs
            for g in reduced_words(4, d):
                img = p.rho(g)(x)
                if img is None:
                    continue
                known = translate_config(g, cfg, d, 4)
                target = point_config(p, img, d)
                for h, val in known.items():
                    assert (h in target) == val


def test_omega_depth_22_restriction_surjective():
    shallow = omega_depth(2, 2, 1)
    deep = omega_depth(2, 2, 2)
    assert len(shallow) == 5 and len(deep) == 20
    assert {restrict_config(c, 1) for c in deep} == set(shallow)


@pytest.mark.parametrize("a, first", [
    (MNAction([0], [0], [{0: 0}], [{0: 0}]), "Y1 and Y2 overlap"),
    (MNAction([0], [1], [{}], [{0: 1}]), "h0 is not defined on all of Y1"),
    (MNAction([0, 1], [2, 3], [{0: 2, 1: 2}], [{0: 2, 1: 3}]),
     "h0 is not injective"),
    (MNAction([0], [1], [{0: 5}], [{0: 1}]), "h0 does not map into Y2"),
    (MNAction([0], [1, 2], [{0: 1}, {0: 1}], [{0: 1}]),
     "image of h1 overlaps the h-block"),
    (MNAction([0], [1, 2], [{0: 1}], [{0: 1}]),
     "the h-images do not cover Y2")],
    ids=["overlap", "domain", "injective", "into", "block", "cover"])
def test_every_mn_action_report_line_is_reached(a, first):
    assert validate_mn_action(a)[0] == first


def partial_action(n, m, gens, carrier):
    return PartialFreeAction(n, m, {i: PartialBijection(g)
                                    for i, g in gens.items()}, carrier)


@pytest.mark.parametrize("p, first", [
    # generator 1 leaves the carrier and comes back: rho is no
    # homomorphism on words without cancellation
    (partial_action(1, 1, {1: {0: 5, 5: 1}, 2: {0: 1}}, (0, 1)),
     "(1) fails at (),(1,)"),
    (partial_action(1, 1, {1: {0: 1}, 2: {}}, (0, 1)),
     "(2) fails: generator 2 has a different domain"),
    (partial_action(1, 1, {1: {0: 1}, 2: {0: 0}}, (0, 1)), "(3) fails at 1,2"),
    (partial_action(2, 0, {1: {0: 1}, 2: {0: 1}}, (0, 1)), "(4) fails at 1,2"),
    (partial_action(1, 1, {1: {0: 1}, 2: {0: 2}}, (0, 1, 2)),
     "(5) fails for the block starting at 1"),
    # no v-maps: the empty v-block covers only Y1
    (to_partial_action(MNAction([0], [1], [{0: 1}], [])),
     "(5) fails for the block starting at 2")],
    ids=["1", "2", "3", "4", "5", "5-empty-block"])
def test_every_condition_report_line_is_reached(p, first):
    assert check_conditions(p)[0] == first

"""Tests of the benchmark itself: digests, planted faults and tracing.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import os
import random
import signal

import pytest

from gpdbench import corpus, harness, program
from gpdbench.digest import action_canon, actions_digest
from gpdbench.trace import TARGETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def P():
    return program.load(ROOT)


def relabel(P, a, names):
    """The same action on a carrier renamed by ``names``."""
    m = names.__getitem__
    return P.diagram.FAction(
        a.diagram, [m(y) for y in a.carrier],
        {m(y): x for y, x in a.part.items()},
        {m(y): u for y, u in a.anchor.items()},
        {(g, m(y)): m(z) for (g, y), z in a.gact.items()},
        {g: {(xi, m(y)): m(z) for (xi, y), z in t.items()}
         for g, t in a.alph.items()})


def test_canonical_form_is_invariant_under_relabelling(P):
    rng = random.Random(7)
    for d in (corpus.swap_diagram(P), corpus.discrete(P, (2,)),
              corpus.broken_graph_diagram(P)):
        found = P.diagram.enumerate_actions(d, 4)
        forms = [action_canon(a) for a in found]
        # representatives of distinct classes have distinct forms
        assert len(set(forms)) == len(forms)
        for a, form in zip(found, forms):
            for _ in range(3):
                labels = [f"p{i}" for i in range(len(a.carrier))]
                rng.shuffle(labels)
                b = relabel(P, a, dict(zip(a.carrier, labels)))
                assert P.diagram.validate_action(d, b) == []
                assert action_canon(b) == form
        shuffled = list(found)
        rng.shuffle(shuffled)
        assert actions_digest(shuffled) == actions_digest(found)


def _few(*keys):
    return lambda key: key in keys


@pytest.mark.parametrize("workload, key, module, fn, plant", [
    ("actions", "enumerate_actions/swap/n4", "diagram", "enumerate_actions",
     lambda r: r[:-1]),
    ("actions", "enumerate_actions/swap/n4", "diagram", "enumerate_actions",
     lambda r: r + r[-1:]),
    ("algebra", "count_homs/twist/n3", "cgx", "count_homs",
     lambda r: r + 1),
])
def test_planted_wrong_answer_is_caught(workload, key, module, fn, plant):
    run = harness.Run(ROOT, workload, 1, select=_few(key))
    run.setup()
    expected = harness.load_expected(workload)
    run.run_pass(expected)
    assert run.attempted == 1 and run.failures == []
    original = getattr(getattr(run.P, module), fn)
    setattr(getattr(run.P, module), fn,
            lambda *args: plant(original(*args)))
    run.run_pass(expected)
    assert run.attempted == 2
    assert len(run.failures) / run.attempted > 0
    assert run.failures[0][0] == key


def _bindings(P):
    """Every attribute of every gpdcorr module and traced class."""
    out = {}
    for m in program.MODULES:
        module = getattr(P, m)
        for attr, value in vars(module).items():
            out[(m, attr)] = value
    for _, m, attr, _ in TARGETS:
        if "." in attr:
            cls, name = attr.split(".")
            out[(m, attr)] = vars(getattr(getattr(P, m), cls))[name]
    return out


def test_untraced_run_installs_no_wrapper():
    run = harness.Run(ROOT, "actions", 1,
                      select=_few("enumerate_actions/swap/n4"))
    seen = []
    original = program.load

    def spy(root):
        P = original(root)
        seen.append((P, _bindings(P)))
        return P

    program.load = spy
    try:
        metrics, _ = harness.untraced(run, 0)
    finally:
        program.load = original
    assert run.failures == [] and set(metrics) == set(harness.END_TO_END)
    # the probe's timer is off and its handler gone
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    for P, before in seen:
        after = _bindings(P)
        assert all(after[k] is v for k, v in before.items())
        assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_tracer_restores_every_binding_and_self_times_fit(P):
    before = _bindings(P)
    tracer = Tracer(P)
    tracer.install()
    try:
        wrapped = _bindings(P)
        assert wrapped[("model", "enumerate_actions")] is not \
            before[("model", "enumerate_actions")]
        assert wrapped[("cli", "compose")] is wrapped[("corr", "compose")]
    finally:
        tracer.uninstall()
    after = _bindings(P)
    assert all(after[k] is v for k, v in before.items())

    run = harness.Run(ROOT, "verify", 1,
                      select=_few("verify_model/disc-z2-z3/n3",
                                  "verify_model/point-Z2/n4"))
    metrics, _ = harness.traced(run, 0)
    after_run = _bindings(run.P)
    assert not any(hasattr(v, "__wrapped__") for v in after_run.values())
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["bench.fail_ratio"] == 0
    assert value["model.verify_model.calls"] == 2
    assert value["diagram.actions_isomorphic.calls"] == 0
    self_total = sum(v for k, v in value.items() if k.endswith(".self_s"))
    assert 0 < self_total <= value["trace.wall_s"] + value["trace.setup_s"]

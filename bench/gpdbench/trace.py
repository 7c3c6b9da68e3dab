"""Spans around the library's public functions, installed from outside.

The tracer replaces every module binding of each named function (and
the class attribute of each named method) with a wrapper, and puts the
originals back on ``uninstall``.  Nothing under ``src/`` is edited.  A
span records its name, start and end (``perf_counter_ns``), its parent
span and the job it ran in; spans stay in memory until the run writes
them out.  Functions called hundreds of thousands of times per run get
lighter wrappers: leaf wrappers time and count calls but keep no span
objects, and count-only wrappers (``FinCategory.arrow_ids``) only count,
leaving their time to the caller's self time.
"""

import json
import math
from time import perf_counter_ns

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (layer name, module, attribute or Class.attribute, mode); several
# targets may share one layer name, e.g. cli.parse covers both
# parse_document and value_of.
TARGETS = [
    ("fincat.ore_check", "fincat", "ore_check", SPAN),
    ("fincat.groupoid_completion", "fincat", "groupoid_completion", SPAN),
    ("fincat.arrow_ids", "fincat", "FinCategory.arrow_ids", COUNT),
    ("groupoid.transformation_groupoid", "groupoid",
     "transformation_groupoid", SPAN),
    ("groupoid.germ_groupoid", "groupoid", "germ_groupoid", SPAN),
    ("corr.compose", "corr", "compose", SPAN),
    ("corr.associator", "corr", "associator", SPAN),
    ("corr.classify", "corr", "classify", SPAN),
    ("corr.morita_check", "corr", "morita_check", SPAN),
    ("corr.validate_correspondence", "corr", "validate_correspondence",
     SPAN),
    ("diagram.from_generators", "diagram", "from_generators", SPAN),
    ("diagram.enumerate_actions", "diagram", "enumerate_actions", SPAN),
    ("diagram.actions_isomorphic", "diagram", "actions_isomorphic", SPAN),
    ("diagram.equivariant_maps", "diagram", "equivariant_maps", SPAN),
    ("diagram.validate_action", "diagram", "validate_action", SPAN),
    ("diagram.invariant_check", "diagram", "invariant_check", SPAN),
    ("model.verify_model", "model", "verify_model", SPAN),
    ("model.enumerate_on", "model", "DisjointUnionModel.enumerate_on",
     SPAN),
    ("model.enumerate_on", "model", "GradedGroupoidModel.enumerate_on",
     SPAN),
    ("model.enumerate_on", "model", "PresentationModel.enumerate_on", SPAN),
    ("model.to_faction", "model", "DisjointUnionModel.to_faction", SPAN),
    ("model.to_faction", "model", "GradedGroupoidModel.to_faction", SPAN),
    ("model.to_faction", "model", "PresentationModel.to_faction", SPAN),
    ("model.check_terminal", "model", "check_terminal", SPAN),
    ("model.pair_equal", "model", "SelfSimPairModel.equal", SPAN),
    ("model.pair_groupoid_model", "model", "pair_groupoid_model", SPAN),
    ("selfsim.nf_mul", "selfsim", "nf_mul", LEAF),
    ("selfsim.act_on_word", "selfsim", "act_on_word", LEAF),
    ("selfsim.germ_equal", "selfsim", "germ_equal", SPAN),
    ("selfsim.slice_intersections", "selfsim", "slice_intersections", SPAN),
    ("selfsim.iterate", "selfsim", "iterate", SPAN),
    ("cgx.count_homs", "cgx", "count_homs", SPAN),
    ("cgx.fundamental_group", "cgx", "fundamental_group", SPAN),
    ("cgx.isotropy_at_infinity", "cgx", "isotropy_at_infinity", SPAN),
    ("cgx.presentation_model", "cgx", "presentation_model", SPAN),
    ("mn.omega_depth", "mn", "omega_depth", SPAN),
    ("mn.make_emn", "mn", "make_emn", SPAN),
    ("cli.main", "cli", "main", SPAN),
    ("cli.parse", "cli", "parse_document", SPAN),
    ("cli.parse", "cli", "value_of", SPAN),
] + [("cli.serialise", "cli", fn, SPAN) for fn in (
    "dumps", "envelope", "category_payload", "groupoid_payload",
    "correspondence_payload", "group_payload", "selfsimilar_payload",
    "complex_payload", "diagram_payload", "action_payload")]

LAYERS = sorted({t[0] for t in TARGETS if t[3] != COUNT})
COUNTED = sorted({t[0] for t in TARGETS if t[3] == COUNT})


def _candidate_maps(a1, a2):
    """How many maps equivariant_maps walks: the product of fibre sizes."""
    fibre = {}
    for z in a2.carrier:
        key = (a2.part[z], a2.anchor[z])
        fibre[key] = fibre.get(key, 0) + 1
    return math.prod(fibre.get((a1.part[y], a1.anchor[y]), 0)
                     for y in a1.carrier)


# result counters kept beside the spans: name -> (counter, value(args, result))
EXTRAS = {
    "diagram.enumerate_actions": [
        ("diagram.actions_found", lambda a, r: len(r))],
    "diagram.actions_isomorphic": [
        ("diagram.actions_isomorphic.true", lambda a, r: int(bool(r)))],
    "diagram.equivariant_maps": [
        ("diagram.equivariant_maps.returned", lambda a, r: len(r)),
        ("diagram.equivariant_maps.candidates",
         lambda a, r: _candidate_maps(a[0], a[1]))],
    "cgx.count_homs": [("cgx.homs_counted", lambda a, r: r)],
    "corr.compose": [("corr.compose.out_elems", lambda a, r: len(r))],
    "mn.omega_depth": [("mn.omega_depth.configs", lambda a, r: len(r))],
}


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self, P):
        self.P = P
        self.job = None
        self.paused = False      # set while the harness digests results
        self.spans = []          # (id, parent id, name, job, start, end)
        self.stack = []          # open spans: [id, name, start, child ns]
        self.self_ns = {}
        self.calls = {}
        self.extra = {}
        self.installed = []      # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap_span(self, name, fn, keep=True):
        extras = EXTRAS.get(name, ())
        stack, spans = self.stack, self.spans
        self_ns, calls, extra = self.self_ns, self.calls, self.extra

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [len(spans) + len(stack), name, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[2]
                self_ns[name] = self_ns.get(name, 0) + dur - frame[3]
                calls[name] = calls.get(name, 0) + 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                if keep:
                    spans.append((frame[0], parent[0] if parent else None,
                                  name, self.job, frame[2], end))
            if extras:
                # bookkeeping time is charged to no layer
                t0 = perf_counter_ns()
                for counter, value in extras:
                    extra[counter] = extra.get(counter, 0) + \
                        value(args, result)
                if parent is not None:
                    parent[3] += perf_counter_ns() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if not self.paused:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing -------------------------------------------------------

    def _modules(self):
        from .program import MODULES
        return [getattr(self.P, m) for m in MODULES]

    def install(self):
        """Wrap every module binding and class attribute of each target."""
        modules = self._modules()
        for name, module, attr, mode in TARGETS:
            owner = getattr(self.P, module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                bindings = [(m, a) for m in modules
                            for a, v in vars(m).items() if v is original]
            if mode == COUNT:
                wrapper = self._wrap_count(name, original)
            else:
                wrapper = self._wrap_span(name, original, keep=mode == SPAN)
            for target, a in bindings:
                setattr(target, a, wrapper)
                self.installed.append((target, a, original))

    def uninstall(self):
        while self.installed:
            target, attr, original = self.installed.pop()
            setattr(target, attr, original)

    # -- reading ----------------------------------------------------------

    def snapshot(self):
        return (dict(self.self_ns), dict(self.calls), dict(self.extra))

    def write(self, path):
        """Write the spans as JSON lines: id, parent, name, job, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

"""The benchmark tracer names only functions that the library still has.

``bench/gpdbench/trace.py`` wraps every (module, attribute) of its
TARGETS list, looking up a ``Class.method`` in the class's own
``__dict__``; a library change that renames or deletes one of them
fails here rather than in the traced benchmark run.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def trace_targets():
    path = os.path.join(ROOT, "bench", "gpdbench", "trace.py")
    spec = importlib.util.spec_from_file_location("gpdbench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for _, module, target, _ in trace_targets():
        owner = importlib.import_module("gpdcorr." + module)
        if "." in target:
            cls, attr = target.split(".")
            owner = vars(owner).get(cls)
            found = owner is not None and callable(vars(owner).get(attr))
        else:
            found = callable(getattr(owner, target, None))
        if not found:
            missing.append(f"{module}.{target}")
    assert missing == []

"""Importing the program under test from the checkout's own sources."""

import importlib
import os
import sys
from types import SimpleNamespace

# the library's modules, in dependency order; these are the trace layers
# together with the CLI
MODULES = ("errors", "fincat", "groupoid", "corr", "diagram", "model",
           "selfsim", "cgx", "mn", "cli")


def load(root):
    """Import gpdcorr afresh from ``root/src`` and return its modules.

    Earlier imports are dropped first, so every call pays the full
    import cost; that cost is part of the benchmark's set-up time.
    Raises ImportError when the package is missing from the checkout or
    resolves to another copy.
    """
    src = os.path.join(os.path.abspath(root), "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "gpdcorr" or m.startswith("gpdcorr.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("gpdcorr")
    where = os.path.abspath(getattr(pkg, "__file__", None) or "")
    if not where.startswith(src + os.sep):
        raise ImportError(f"gpdcorr resolved to {where!r}, not under {src!r}")
    return SimpleNamespace(src=src, **{
        m: importlib.import_module("gpdcorr." + m) for m in MODULES})

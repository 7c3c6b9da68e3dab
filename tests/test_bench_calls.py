"""The benchmark's calls into the library still bind.

``bench/gpdbench`` calls the library as ``P.<module>.<name>(...)`` and
``P.<module>.<Class>.<attr>(...)``.  A change that drops or renames a
parameter one of these calls passes would pass the library's own tests
and fail only in the benchmark run, so every such call is resolved on
the current library and its positional and keyword arguments are bound
to the signature.  Calls with ``*`` or ``**`` arguments are skipped.
"""

import ast
import glob
import importlib
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dotted(expr):
    """The names of an ``a.b.c`` expression, or None for anything else."""
    names = []
    while isinstance(expr, ast.Attribute):
        names.append(expr.attr)
        expr = expr.value
    return [expr.id] + names[::-1] if isinstance(expr, ast.Name) else None


def bench_calls():
    """(file:line, names after P, call node) for each library call."""
    pattern = os.path.join(ROOT, "bench", "gpdbench", "*.py")
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            names = isinstance(node, ast.Call) and dotted(node.func)
            if names and names[0] == "P" and len(names) in (3, 4):
                yield f"{os.path.basename(path)}:{node.lineno}", names[1:], node


def binding_error(names, call):
    """Why the call does not bind, or None when it does."""
    owner = importlib.import_module("gpdcorr." + names[0])
    for name in names[1:]:
        if not hasattr(owner, name):
            return f"{'.'.join(names)} does not exist"
        owner = getattr(owner, name)
    try:
        inspect.signature(owner).bind(
            *call.args, **{k.arg: k.value for k in call.keywords})
    except TypeError as exc:
        return f"{'.'.join(names)}: {exc}"
    return None


def test_every_bench_call_binds():
    checked, errors = 0, []
    for where, names, call in bench_calls():
        if any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords):
            continue
        checked += 1
        error = binding_error(names, call)
        if error:
            errors.append(f"{where}: {error}")
    assert errors == []
    assert checked >= 50

"""The statements of ``src/gpdcorr`` that no test runs, with the standard
library only (no coverage package is needed).

Run it from the repository root, with any pytest arguments:

    PYTHONPATH=src python tests/linecov.py [-x] [tests/test_model.py ...]

It runs pytest in this process with a plugin that arms a ``sys.settrace``
line tracer over ``src/gpdcorr`` at the start and again before every test
(a test that reaches the recursion limit switches a tracer off), and turns
off hypothesis deadlines, which the tracer's slowdown would exceed.  The
Python processes that tests start (``gpdcorr`` commands among them) load
a ``sitecustomize`` from a temporary directory put first on PYTHONPATH,
which traces them alike and adds their lines at exit.  Then it prints
each statement that never ran, as ``path:line``, and the count.  A
statement has run when a line from its first line (decorators included)
to its last one has; docstrings, ``global`` and ``nonlocal`` have no line
of their own and are not counted.  The file's name keeps pytest from
collecting it, and it is not part of the Tier-1 run.
"""

import ast
import atexit
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gpdcorr")
# what a traced child process runs at start-up
CHILD = f"""import sys
sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
import linecov
linecov.trace_child()
"""


def statements(path):
    """(first line, last line) of every counted statement of a module."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or \
                isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", [])])
        spans.append((first, node.end_lineno))
    return sorted(spans)


class LineTracer:
    """Every (file, line) that ran in a module of the package."""

    def __init__(self):
        self.seen = {}
        self.lines = {}         # co_filename -> its set in seen, or None

    def global_trace(self, frame, event, arg):
        path = frame.f_code.co_filename
        if path not in self.lines:
            full = os.path.abspath(path)
            self.lines[path] = self.seen.setdefault(full, set()) \
                if full.startswith(PACKAGE + os.sep) else None
        lines = self.lines[path]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace
        return local_trace

    def arm(self):
        sys.settrace(self.global_trace)

    # pytest hooks
    def pytest_configure(self, config):
        from hypothesis import settings
        settings.register_profile("linecov", deadline=None)
        settings.load_profile("linecov")

    def pytest_runtest_setup(self, item):
        self.arm()


def trace_child():
    """Trace this process and append its lines to LINECOV_OUT at exit."""
    tracer = LineTracer()

    def dump():
        sys.settrace(None)
        with open(os.environ["LINECOV_OUT"], "a", encoding="utf-8") as out:
            out.writelines(f"{path}\t{line}\n"
                           for path, lines in tracer.seen.items()
                           for line in lines)
    atexit.register(dump)
    tracer.arm()


def never_run(seen):
    """path:line of every statement whose lines never ran, in order, and
    the number of statements."""
    missed, total = [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = seen.get(path, set())
        spans = statements(path)
        total += len(spans)
        missed += [f"{os.path.relpath(path, ROOT)}:{first}"
                   for first, last in spans
                   if lines.isdisjoint(range(first, last + 1))]
    return missed, total


def main(args):
    import pytest

    tracer = LineTracer()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w",
                  encoding="utf-8") as handle:
            handle.write(CHILD)
        os.environ["LINECOV_OUT"] = os.path.join(tmp, "lines")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [tmp] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        tracer.arm()
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                           plugins=[tracer])
        sys.settrace(None)
        if os.path.exists(os.environ["LINECOV_OUT"]):
            with open(os.environ["LINECOV_OUT"], encoding="utf-8") as lines:
                for record in lines:
                    path, line = record.rstrip("\n").split("\t")
                    tracer.seen.setdefault(path, set()).add(int(line))
    missed, total = never_run(tracer.seen)
    print("\n".join(missed))
    print(f"{len(missed)} of {total} statements never ran "
          f"(pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

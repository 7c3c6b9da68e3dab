"""Run the same CLI requests against two source trees and count the
requests whose (exit code, stdout, stderr) differ.

    python tests/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``gpdcorr`` package (the
``src`` of two checkouts).  The requests are every single-node break of
the documents of ``test_cli_fuzz.DOCS``, built with the ``gpdcorr`` of
this checkout:

- ``validate`` on every break;
- ``model`` and ``model --verify 2`` on the diagram, action and complex
  breaks, and ``model`` on the mn breaks;
- ``cgx pi1``, ``cgx isotropy`` and ``cgx homs -n 2`` on the complex
  breaks;
- ``compose`` of each correspondence break with itself;

and ``compose`` of the 64-point correspondence ``iterate(e1, 5)`` with
itself.  Each tree runs them in one child process, in-process through
``gpdcorr.cli.main``, and reports a digest per request.  The script
prints the number of requests and of differing ones, with the first few
that differ, and exits 1 if any differ.  It needs only the standard
library and what the tests import, and its file name keeps it out of
the Tier-1 run.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SHOWN = 10


def requests(tmp):
    """(argv, description) of every request, with the documents written
    to tmp."""
    sys.path[:0] = [os.path.join(ROOT, "src"), TESTS]
    from corpus import e1
    from gpdcorr import cli
    from gpdcorr.selfsim import iterate
    from test_cli_fuzz import broken_at, single_node_breaks

    out = []
    for i, (doc, at, change) in enumerate(single_node_breaks()):
        path = os.path.join(tmp, f"break{i}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(broken_at(doc, at, change)))
        kind = doc["kind"]
        argvs = [["validate", path]]
        if kind in ("diagram", "action", "complex_of_groups"):
            argvs += [["model", path], ["model", path, "--verify", "2"]]
        if kind == "mn":
            argvs.append(["model", path])
        if kind == "complex_of_groups":
            argvs += [["cgx", path, "pi1"], ["cgx", path, "isotropy"],
                      ["cgx", path, "homs", "-n", "2"]]
        if kind == "correspondence":
            argvs.append(["compose", path, path])
        out += [(argv, f"{kind} {list(at)} -> {change!r}: {argv[0]}")
                for argv in argvs]
    path = os.path.join(tmp, "corr64.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(cli.write_document("correspondence", iterate(e1(), 5)))
    out.append((["compose", path, path], "compose corr64.json corr64.json"))
    return out


def run_requests(src, listing):
    """Print one digest of (exit code, stdout, stderr) per request."""
    sys.path.insert(0, src)
    from gpdcorr import cli
    with open(listing, encoding="utf-8") as handle:
        argvs = json.load(handle)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:   # a traceback: compared as its repr
                code = repr(exc)
        triple = repr((code, out.getvalue(), err.getvalue()))
        print(hashlib.sha256(triple.encode()).hexdigest())


def digests(src, listing):
    """Start a child that runs the requests against src."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--run", src, listing],
        stdout=subprocess.PIPE, env=env, text=True)


def main(argv):
    if argv[:1] == ["--run"]:
        run_requests(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    srcs = [os.path.abspath(src) for src in argv]
    with tempfile.TemporaryDirectory() as tmp:
        todo = requests(tmp)
        listing = os.path.join(tmp, "requests.json")
        with open(listing, "w", encoding="utf-8") as handle:
            json.dump([argv for argv, _ in todo], handle)
        children = [digests(src, listing) for src in srcs]
        outputs = [child.communicate()[0].split() for child in children]
    if any(child.returncode for child in children) or \
            any(len(out) != len(todo) for out in outputs):
        print("a child process failed", file=sys.stderr)
        return 2
    differ = [what for (_, what), old, new in zip(todo, *outputs)
              if old != new]
    print(f"{len(todo)} requests, {len(differ)} differ")
    for what in differ[:SHOWN]:
        print(f"  {what}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

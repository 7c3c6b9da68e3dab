"""Input checks in these modules raise typed errors, never ``assert``.

``python -O`` strips assert statements, so a check written as one
silently stops checking.  The modules listed here have none left; this
test keeps it that way.
"""

import ast
import os

import pytest

import gpdcorr

CHECKED = ("selfsim.py", "corr.py", "cgx.py", "mn.py")


@pytest.mark.parametrize("module", CHECKED)
def test_module_has_no_assert_statements(module):
    path = os.path.join(os.path.dirname(gpdcorr.__file__), module)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"

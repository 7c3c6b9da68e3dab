"""Input checks in these modules raise typed errors, never ``assert``.

``python -O`` strips assert statements, so a check written as one
silently stops checking.  No module of the package has one left; this
test keeps it that way.
"""

import ast
import os

import pytest

import gpdcorr

CHECKED = sorted(name for name in os.listdir(os.path.dirname(gpdcorr.__file__))
                 if name.endswith(".py"))


@pytest.mark.parametrize("module", CHECKED)
def test_module_has_no_assert_statements(module):
    path = os.path.join(os.path.dirname(gpdcorr.__file__), module)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements in {module} at lines {lines}"

"""Every module-level import is read in its module.

No linter ships with the package, so this parses ``src/qfca/*.py`` and
``tests/*.py`` with ``ast`` and fails on a name that a module-level import
binds and the module never reads.  ``__init__.py`` is skipped: its imports
are the package's exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
FILES = [path for path in sorted(ROOT.glob("src/qfca/*.py")) + sorted(ROOT.glob("tests/*.py"))
         if path.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """The names that the module-level imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport a.b\nimport json as j\n"
              "from m import c, d as e\n\ndef f(x: c) -> None:\n    return a.b\n")
    assert unused_imports(source) == ["os", "j", "e"]


def test_no_module_imports_an_unused_name():
    found = {str(path.relative_to(ROOT)): names for path in FILES
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}

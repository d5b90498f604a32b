"""Every module-level import is read in its module, and every public
definition of the library is read in the library.

No linter ships with the package, so this parses ``src/qfca/*.py`` and
``tests/*.py`` with ``ast`` and fails on a name that a module-level import
binds and the module never reads.  It also fails on a public module-level
``def`` or ``class`` of ``src/qfca`` that no other statement there reads, by
name or as an attribute: such a definition serves no command, so it belongs
in the tests or nowhere.  The same holds for a public method of a class
there that no attribute read elsewhere in ``src/qfca`` names.  The functions
and methods that ``perfbench/tracing.py`` wraps are exempt, since the
benchmark reads them by name.  A definition that only a dunder method such as
``__eq__`` reads passes the scan, since the method reads it by name; such a
method needs its own reason to be in the library.  ``__init__.py`` is skipped: its imports are the
package's exports.
"""

import ast
import importlib
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


def unread_definitions(sources: dict) -> list:
    """The public module-level definitions in ``sources`` (module name to source)
    that no top-level statement of any module reads, their own excepted, as
    (module, name) pairs."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [(node, {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
              | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})
             for _, node in statements]
    return [(module, node.name) for module, node in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and not any(node.name in names for other, names in reads if other is not node)]


def test_the_scan_finds_unread_definitions():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    return b.h\n\nclass C:\n    pass\n",
               "b": "def h():\n    pass\n\ndef _k():\n    return a.g()\n"}
    assert unread_definitions(sources) == [("a", "f"), ("a", "C")]


def unread_methods(sources: dict) -> list:
    """The public methods of the module-level classes in ``sources`` that no
    attribute read outside the method itself names, as (module,
    ``Class.method``) pairs."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    methods = [(module, cls.name, node) for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    attributes = [n for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)]
    unread = []
    for module, cls, node in methods:
        own = set(map(id, ast.walk(node)))
        if not any(n.attr == node.name and id(n) not in own for n in attributes):
            unread.append((module, f"{cls}.{node.name}"))
    return unread


def test_the_scan_finds_unread_methods():
    sources = {"a": "class C:\n    def f(self):\n        return self.f()\n\n"
                    "    def g(self):\n        pass\n\n    def _h(self):\n        pass\n",
               "b": "def k(c):\n    return c.g()\n"}
    assert unread_methods(sources) == [("a", "C.f")]


def test_every_public_definition_is_read_in_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    traced = {name for names in tracing.SPAN_TARGETS.values() for name in names}
    traced |= set(tracing.HOT_TARGETS)
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in FILES if path.parent.name == "qfca"}
    assert [(module, name) for module, name in unread_definitions(sources)
            if name not in traced] == []
    assert [(module, name) for module, name in unread_methods(sources)
            if name not in traced] == []

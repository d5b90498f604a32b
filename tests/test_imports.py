"""Every module-level import is read in its module, and every public
definition of the library is read in the library.

No linter ships with the package, so this parses ``src/qfca/*.py`` and
``tests/*.py`` with ``ast`` and fails on a name that a module-level import
binds and the module never reads.  It also fails on a public module-level
``def`` or ``class`` of ``src/qfca`` that no other statement there reads, by
name or as an attribute: such a definition serves no command, so it belongs
in the tests or nowhere.  The same holds for a public method of a class
there that no attribute read elsewhere in ``src/qfca`` names; where a builtin
type or another method or attribute of the library shares the method's name,
only the reader that ``SHARED_READS`` pins counts.  The functions
and methods that ``perfbench/tracing.py`` wraps are exempt, since the
benchmark reads them by name.  A definition that only a dunder method such as
``__eq__`` reads passes the scan, since the method reads it by name; such a
method needs its own reason to be in the library.  ``__init__.py`` is skipped: its imports are the
package's exports.
"""

import ast
import builtins
import collections
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


# The public methods of builtin types, by name.
BUILTIN_METHODS = {name for kind in vars(builtins).values() if isinstance(kind, type)
                   for name in dir(kind) if not name.startswith("_")}

# Each method of ``src/qfca`` whose name is shared and which is really read,
# with the function that reads it, as ``module.function`` or
# ``module.Class.method``.  A name is shared when a builtin type has a method
# of that name, or another method or assigned attribute of the library has it;
# a read of a shared name may then be a read of the other one, so it counts
# only for the method pinned here.
SHARED_READS = {
    "_ClosurePair.coded": "concept._fixpoint_lattice",
    "IsbellPair.spaces": "represent.canonical_adjunction",
    "IsbellPair.lattice": "cli.cmd_concepts",
    "KanPair.spaces": "represent.canonical_adjunction",
    "KanPair.lattice": "cli.cmd_concepts",
    "Issue.to_json": "errors.ValidationReport.to_json",
    "ValidationReport.add": "qcat.validate_category",
    "ValidationReport.to_json": "cli.cmd_validate",
    "Condition.to_json": "errors.Report.to_json",
    "Report.extend": "cli.cmd_verify",
    "Report.to_json": "cli.cmd_verify",
    "_Vector.key": "cli.cmd_concepts",
    "_SetCode.decode": "concept._meet_closure",
    "_SetCode.value_rows": "presheaf._member_rows",
    "PresheafFamily.value_rows": "presheaf.PresheafFamily.functor_to",
    "QCategory.index": "presheaf.yoneda",
    "Preorder.leq": "presheaf._join_dense",
    "QDistributor.q": "concept.KanPair._tables",
    "HomLattice.leq": "quantaloid.Quantaloid.leq",
    "HomLattice.index": "quantaloid.Quantaloid.arrow",
    "Quantaloid.hom": "quantaloid.Quantaloid.label",
    "Quantaloid.arrow": "cli._parse_category",
    "Quantaloid.top": "concept.codense_probe",
    "Quantaloid.bottom": "concept.codense_probe",
    "Quantaloid.leq": "qcat.validate_category",
    "CyclicDualizingFamily.arrow": "quantaloid.complement_arrow",
    "CyclicDualizingFamily.labels": "cli.cmd_girard",
}


def _functions(trees: dict) -> dict:
    """Every module-level function and method of a module-level class, by
    ``module.function`` or ``module.Class.method``."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found[f"{module}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                found.update((f"{module}.{node.name}.{f.name}", f) for f in node.body
                             if isinstance(f, ast.FunctionDef))
    return found


def _names(trees: dict) -> collections.Counter:
    """How often each name is a method, a class attribute or an assigned attribute."""
    names = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
                names.update(t.id for f in node.body if isinstance(f, ast.Assign)
                             for t in f.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names[node.attr] += 1
    return names


def _reads(node, name: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))


def unread_methods(sources: dict, pinned: dict) -> list:
    """The public methods of the module-level classes in ``sources`` that no
    attribute read outside the method itself names, as (module,
    ``Class.method``) pairs.  A method whose name is shared (see
    ``SHARED_READS``) is read only where ``pinned`` names a function that reads
    its name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    methods = [(module, cls.name, node) for module, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    attributes = [n for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)]
    functions, names = _functions(trees), _names(trees)
    unread = []
    for module, cls, node in methods:
        qualname = f"{cls}.{node.name}"
        if node.name in BUILTIN_METHODS or names[node.name] > 1:
            reader = functions.get(pinned.get(qualname))
            read = reader is not None and reader is not node and _reads(reader, node.name)
        else:
            own = set(map(id, ast.walk(node)))
            read = any(n.attr == node.name and id(n) not in own for n in attributes)
        if not read:
            unread.append((module, qualname))
    return unread


def test_the_scan_finds_unread_methods():
    sources = {"a": "class C:\n    def f(self):\n        return self.f()\n\n"
                    "    def g(self):\n        pass\n\n    def _h(self):\n        pass\n",
               "b": "def k(c):\n    return c.g()\n"}
    assert unread_methods(sources, {}) == [("a", "C.f")]


def test_the_scan_counts_a_read_of_a_shared_name_only_where_pinned():
    # keys is a dict method, and g is also a method of D: their reads in k may
    # be of a dict and of a D, so they count only where a pin names k
    sources = {"a": "class C:\n    def keys(self):\n        pass\n\n"
                    "    def g(self):\n        pass\n\nclass D:\n    g = None\n",
               "b": "def k(c, d):\n    return d.keys(), c.g()\n\ndef m():\n    pass\n"}
    assert unread_methods(sources, {}) == [("a", "C.keys"), ("a", "C.g")]
    assert unread_methods(sources, {"C.keys": "b.m", "C.g": "b.k"}) == [("a", "C.keys")]
    assert unread_methods(sources, {"C.keys": "b.k", "C.g": "b.k"}) == []


def test_every_pin_names_a_shared_method_and_a_function_that_reads_it():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in FILES if path.parent.name == "qfca"}
    methods = {f"{cls.name}.{node.name}": node.name for tree in trees.values()
               for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    functions, names = _functions(trees), _names(trees)
    for method, reader in SHARED_READS.items():
        name = methods.get(method)
        assert name in BUILTIN_METHODS or names[name] > 1, method
        assert reader in functions and _reads(functions[reader], name), (method, reader)


def test_every_public_definition_is_read_in_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    traced = {name for names in tracing.SPAN_TARGETS.values() for name in names}
    traced |= set(tracing.HOT_TARGETS)
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in FILES if path.parent.name == "qfca"}
    assert [(module, name) for module, name in unread_definitions(sources)
            if name not in traced] == []
    assert [(module, name) for module, name in unread_methods(sources, SHARED_READS)
            if name not in traced] == []

"""Every name a package module, test module or demo imports is used in that
module, every private module-level name is used somewhere in the package,
and the demos import only public names."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "irssec"
DEMOS = sorted(ROOT.glob("demos/*.py"))
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(ROOT.glob("tests/*.py")) + DEMOS)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport math\nx = math.pi\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["c (line 1)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """"name (line n)" for every imported module or name of which some dotted
    part starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            module = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            for alias in node.names:
                name = ".".join(module + [alias.name])
                if any(part.startswith("_") for part in name.split(".")):
                    found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_flags_a_private_import():
    assert private_imports("from a._b import c\nimport d\nfrom e import _f, g\n") == [
        "a._b.c (line 1)", "e._f (line 3)"]
    assert private_imports("from __future__ import annotations\nimport a.b\n") == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_only_public_names(path):
    # a demo shows the library as a user sees it
    assert private_imports(path.read_text()) == []


def private_definitions(source: str) -> dict:
    """The module-level functions, classes and constants of a module whose
    names start with one underscore, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node.lineno
    return {name: line for name, line in found.items()
            if name.startswith("_") and not name.startswith("__")}


def unreferenced(sources: dict) -> list[str]:
    """"module.name (line n)" for every private definition of the modules
    (name -> source) that no module reads by name or as an attribute."""
    used = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{name} (line {line})" for module, source in sources.items()
                  for name, line in private_definitions(source).items() if name not in used)


def test_checker_flags_an_unreferenced_private_name():
    sources = {"a": "_LIMIT = 3\n_kept = 1\ndef _helper():\n    return _kept\n"
                    "class _Box:\n    pass\n__all__ = []\n",
               "b": "from . import a\nx = a._Box()\n"}
    assert unreferenced(sources) == ["a._LIMIT (line 1)", "a._helper (line 3)"]


def test_every_private_name_is_referenced_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == []


def test_the_solver_has_one_entry_point():
    import irssec
    from irssec import sdp
    assert irssec.SdpBatch is sdp.SdpBatch and irssec.solve_batch is sdp.solve_batch
    for name in ("solve", "solve_many", "SdpProblem"):
        assert not hasattr(irssec, name) and not hasattr(sdp, name), name

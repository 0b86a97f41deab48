"""Every name a package module imports is used in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "irssec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_the_solver_has_one_entry_point():
    import irssec
    from irssec import sdp
    assert irssec.SdpBatch is sdp.SdpBatch and irssec.solve_batch is sdp.solve_batch
    for name in ("solve", "solve_many", "SdpProblem"):
        assert not hasattr(irssec, name) and not hasattr(sdp, name), name

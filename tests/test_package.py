import ast
from pathlib import Path

import pytest

import grassnorm

SRC = Path(grassnorm.__file__).resolve().parent


def test_every_export_exists_once():
    names = grassnorm.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(grassnorm, name)] == []


def test_init_imports_exactly_the_exports():
    # a deletion must take the import and the __all__ entry together
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == set(grassnorm.__all__) - {"__version__"}


def imported_but_unused(source: str) -> list:
    """Names a module imports and never reads: no linter is needed to see them."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# __init__ imports to re-export, which __all__ checks above
MODULES = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in Path(__file__).resolve().parent.glob("*.py")})


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_a_name_it_never_uses(module):
    assert imported_but_unused(MODULES[module].read_text(encoding="utf-8")) == []


def test_the_unused_import_check_sees_one():
    source = "import json\nfrom os import path, sep\nfrom .x import y as z\nprint(path)\n"
    assert imported_but_unused(source) == [(1, "json"), (2, "sep"), (3, "z")]

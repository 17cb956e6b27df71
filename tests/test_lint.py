"""Source hygiene with the standard library alone: every module of the
package (its ``__init__`` re-exports aside) and every script imports only
names it uses, and keeps its lines within 99 characters."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "posehsmm").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
)
MAX_LINE = 99


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no expression reads, with their lines;
    a dotted ``import a.b`` binds ``a``, and ``__future__`` binds nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_import_and_no_long_line(path):
    text = path.read_text()
    assert unused_imports(ast.parse(text, str(path))) == []
    long = [i for i, line in enumerate(text.splitlines(), 1) if len(line) > MAX_LINE]
    assert long == []


def test_finds_an_unused_import_and_reads_a_dotted_one():
    tree = ast.parse("from functools import partial\nimport os.path\nos.path.join\n")
    assert unused_imports(tree) == ["1: partial"]

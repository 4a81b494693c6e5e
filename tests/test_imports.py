"""Every module-level import of cibpath's modules and of the test modules
is used, or marked as a re-export with ``# noqa: F401`` on its line."""

import ast
from pathlib import Path

import pytest

import cibpath

MODULES = sorted(p for p in Path(cibpath.__file__).parent.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that source's module-level imports bind and nothing in it
    reads, each with its line, skipping ``__future__`` and ``# noqa: F401``
    lines."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for statement in tree.body:
        if not isinstance(statement, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES],
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from dataclasses import dataclass, field\n"
        "from .engine import succession_step  # noqa: F401\n"
        "from .analytics import (\n"
        "    flat_rows,\n"
        "    screen_candidates,\n"
        ")\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = math.pi\n"
        "screen_candidates\n"
    )
    assert unused_imports(source) == ["3: field", "6: flat_rows"]

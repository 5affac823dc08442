import ast
from pathlib import Path

import nilforge

SOURCES = sorted(Path(nilforge.__file__).parent.glob("*.py"))


def test_sources_found():
    assert any(path.name == "lab.py" for path in SOURCES)


def test_no_assert_statements_in_sources():
    # python -O strips assert statements: every check must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the sources: {found}"

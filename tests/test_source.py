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


def _mutable_value(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set,
                         ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set"))


def test_no_module_level_mutable_state_in_sources():
    # derived data is memoized on the object that owns it, never in a
    # module-global container (`__all__` is the one exempt list)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and _mutable_value(node.value)
        and not (isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["__all__"])
    ]
    assert not found, f"module-level mutable state in the sources: {found}"

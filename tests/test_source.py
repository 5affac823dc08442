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


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_only_builtin_basis_is_memoized_by_value():
    # a quotient and its tables belong to whoever builds them; the one
    # value-keyed memo is the constructor of the two built-in bases
    found = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and {_decorator_name(d) for d in node.decorator_list} & {"lru_cache", "cache"}
    ]
    assert found == ["hall.builtin_basis"]


# The scalar symbolic oracle, per module, and the names of the table builder
# that makes the dense tables.  The oracle checks those tables
# (`test_dense_tables_agree_with_the_symbolic_oracle`), so it must not reach
# the code it checks.
SCALAR_PATH = {
    "hall.py": {"_collect_letters", "_collect_onto"},
    "quotients.py": {"FiniteQuotient.reduce", "FiniteQuotient.reduce_letters",
                     "FiniteQuotient.pc_multiply"},
}
ARRAY_ENGINE = {"DenseGroup", "dense", "_pc_rows", "np"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_scalar_oracle_is_independent_of_the_array_engine():
    seen = set()
    found = []
    for path in SOURCES:
        wanted = SCALAR_PATH.get(path.name, set())
        for name, node in _definitions(ast.parse(path.read_text(), filename=str(path))):
            if name not in wanted:
                continue
            seen.add((path.name, name))
            used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            found += [f"{path.name}:{name} uses {ref}" for ref in sorted(used & ARRAY_ENGINE)]
    assert seen == {(mod, name) for mod, names in SCALAR_PATH.items() for name in names}
    assert not found, found
    # collection in the free group has no array form to reach
    hall = next(path for path in SOURCES if path.name == "hall.py")
    assert "numpy" not in _imported(ast.parse(hall.read_text(), filename=str(hall)))


def test_reduce_is_one_pass_with_no_cap():
    # every tail lies on the later symbols (the constructor checks it), so
    # one pass down the symbols reduces any element: nothing loops to a
    # fixpoint, and no cap bounds such a loop
    path = next(path for path in SOURCES if path.name == "quotients.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    reduce = dict(_definitions(tree))["FiniteQuotient.reduce"]
    assert not any(isinstance(node, ast.While) for node in ast.walk(reduce))
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    assert not any("CAP" in name for name in constants), constants


def _imported(tree) -> set[str]:
    """Top-level package names that a module imports."""
    names = {alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    return names | {(node.module or "").split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    if not node.level}


def test_consistency_proof_samples_nothing():
    # `consistency_check` is a proof at every order: quotients.py draws no
    # random numbers, and the check takes the quotient and no seed or knob
    path = next(path for path in SOURCES if path.name == "quotients.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "random" not in _imported(tree)
    (check,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "consistency_check"]
    args = check.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    assert [a.arg for a in params] == ["q"] and not (args.vararg or args.kwarg)


def test_campaigns_do_not_call_the_symbolic_psi_oracle():
    # the psi claim runs on `orbits.PsiBatch`; the symbolic suite stays an
    # independent oracle for it in the tests
    path = next(path for path in SOURCES if path.name == "campaigns.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    oracle = {"psi_congruence_suite", "psi_transports", "psi_endomorphism"}
    assert not used & oracle, sorted(used & oracle)

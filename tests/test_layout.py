"""Library code that only tests reach does not stay in the library: every
public top-level name of `src/infkit/*.py` must be used by the program
(`src/infkit` and `tools`) outside its own definition. Test oracles live in
`tests/test_reference_paths.py` and test inputs in `tests/inputs.py`."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "infkit").glob("*.py"))
PROGRAM = LIBRARY + sorted((ROOT / "tools").glob("*.py"))

def _public_definitions(tree: ast.Module):
    """(name, statement) for each public name a top-level statement binds."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, stmt


def _names_read(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_by_program() -> set[str]:
    """Library names no program statement reads, apart from the statement
    that defines them."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in PROGRAM}
    reads = [(stmt, _names_read(stmt))
             for tree in trees.values() for stmt in tree.body]
    return {f"{path.stem}.{name}"
            for path in LIBRARY
            for name, defining in _public_definitions(trees[path])
            if not any(name in names for stmt, names in reads
                       if stmt is not defining)}


def test_library_names_are_used_by_the_program():
    unused = sorted(_unused_by_program())
    assert not unused, (
        f"not used by the program: {unused}; delete them with the tests "
        f"that exist only for them, or move a test input to tests/inputs.py")

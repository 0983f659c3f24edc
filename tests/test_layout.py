"""No test-only API in src: every public module-level function, class
and constant of src/roundgroup is referenced from outside tests/.

References count from src (anywhere but the name's own definition),
from demos/ and from perfbench/, where string constants count too
because the tracer names the functions it wraps by string.  Names are
matched without their module, so the check is one-sided: it can miss
a test-only name that shares its name with a used one, never flag a
used name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "roundgroup"


def public_definitions(tree):
    """(name, statement) for each public name bound at module level by
    a def, a class or an assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, stmt


def references(node, strings=False):
    """Names that node loads, reads as attributes or imports; with
    strings, its string constants as well."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and \
                isinstance(sub.value, str):
            out.add(sub.value)
    return out


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_src_name_is_used_outside_tests():
    outside = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        outside |= references(parse(path))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= references(parse(path), strings=True)
    modules = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    # one reference set per top-level statement of src, so a name's
    # own definition (recursion included) can be left out
    statements = [(stmt, references(stmt)) for tree in modules.values()
                  for stmt in tree.body]
    unused = []
    for module, tree in modules.items():
        for name, definition in public_definitions(tree):
            if name in outside or any(
                    name in refs for stmt, refs in statements
                    if stmt is not definition):
                continue
            unused.append(f"{module}.{name}")
    assert not unused, f"referenced only from tests/: {', '.join(unused)}"

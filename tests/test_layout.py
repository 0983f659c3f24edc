"""No test-only API in src, and no helper left behind: every
module-level function, class and constant of src/roundgroup, private
ones included, and every method of its classes is referenced from
outside tests/.

References count from src (anywhere but the name's own definition),
from demos/ and from perfbench/, where string constants count too
because the tracer names the functions it wraps by string.  A
module-level name's own definition is its whole statement; a method's
is the method alone, so a method that only a sibling calls counts as
used.  Dunder names (`__init__`, `__version__`) are called or read by
Python itself and are not checked.  Names are matched without their
module or class, so the check is one-sided: it can miss an unused name
that shares its name with a used one, never flag a used name.

The size caps are held to one table the same way: no src module but
words binds a cap constant, and only words.check_cap raises a cap error.
Likewise one function builds the round maps densely: only the word
evaluator and the block scan's scope check the materialize cap;
sigma has one vectorized form, cipher.swap on state halves; and a
stabilizer chain's inverse rows are read through the level that builds
them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "roundgroup"


def bound_names(stmt):
    """Names a statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def definitions(tree):
    """(label, name, statement) for each non-dunder name bound at
    module level, and for each method of a module-level class, whose
    statement is its def."""
    for stmt in tree.body:
        for name in bound_names(stmt):
            if not name.startswith("__"):
                yield name, name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) and \
                        not sub.name.startswith("__"):
                    yield f"{stmt.name}.{sub.name}", sub.name, sub


def parts(tree):
    """(statement, part) pairs covering the module: each top-level
    statement is one part, except that a class is split into its
    methods and its other children."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for sub in (stmt.body + stmt.bases + stmt.keywords
                        + stmt.decorator_list):
                yield stmt, sub
        else:
            yield stmt, stmt


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


def unused_names():
    """module.label for each src definition that nothing outside its
    own definition references."""
    outside = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        outside |= references(parse(path))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= references(parse(path), strings=True)
    modules = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    # one reference set per part of src, so a name's own definition
    # (recursion included) can be left out
    refs_by_part = [(stmt, part, references(part))
                    for tree in modules.values()
                    for stmt, part in parts(tree)]
    unused = []
    for module, tree in modules.items():
        for label, name, definition in definitions(tree):
            if name in outside or any(
                    name in refs for stmt, part, refs in refs_by_part
                    if definition not in (stmt, part)):
                continue
            unused.append(f"{module}.{label}")
    return unused


def public(label):
    """Is label (module.name, or module.Class.method for a method) a
    public module-level name?"""
    module, name = label.split(".", 1)
    return not name.startswith("_") and "." not in name


def test_every_public_src_name_is_used_outside_tests():
    unused = [label for label in unused_names() if public(label)]
    assert not unused, f"referenced only from tests/: {', '.join(unused)}"


def test_every_private_src_name_and_method_is_used_outside_tests():
    labels = [label for path in sorted(SRC.glob("*.py"))
              for label, _, _ in definitions(parse(path))]
    # the walk sees private helpers and methods, and no dunder
    assert "_is_prime" in labels and "StabilizerChain._inverse" in labels
    assert "_Level.ustack" in labels and "CipherSpec.digest" in labels
    assert not any("__" in label for label in labels)
    unused = [label for label in unused_names() if not public(label)]
    assert not unused, f"referenced only from tests/: {', '.join(unused)}"


def test_size_caps_live_in_one_table():
    # every size cap is an entry of words.CAPS, and only words.check_cap
    # raises an error naming one
    stray, raisers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        stray += [f"{path.stem}.{name}" for stmt in tree.body
                  for name in bound_names(stmt)
                  if path.stem != "words"
                  and re.fullmatch(r"MAX_\w+|\w+_CAP", name)]
        raisers += [f"{path.stem}.{func.name}" for func in ast.walk(tree)
                    if isinstance(func, ast.FunctionDef)
                    and any(isinstance(node, ast.Raise)
                            and " cap" in ast.unparse(node)
                            for node in ast.walk(func))]
    assert not stray, f"size caps outside words.CAPS: {', '.join(stray)}"
    assert raisers == ["words.check_cap"]


def test_one_dense_builder_of_the_round_maps():
    # the materialize cap guards the word evaluator, the one dense form
    # of the round maps, and the scope of the block scan, nothing else
    guarded = [f"{path.stem}.{func.name}" for path in sorted(SRC.glob("*.py"))
               for func in ast.walk(parse(path))
               if isinstance(func, ast.FunctionDef)
               and any(isinstance(node, ast.Call)
                       and ast.unparse(node.func).split(".")[-1] == "check_cap"
                       and ast.unparse(node.args[0]) == "'materialize'"
                       for node in ast.walk(func))]
    assert guarded == ["perms.word_evaluator", "verify.block_scan"]


def test_one_swap_map():
    # sigma has one vectorized form, cipher.swap on state halves: the
    # word evaluator, the probe filter and the block scan call it, and
    # nothing else in src computes sigma on arrays
    callers = [f"{path.stem}.{label}" for path in sorted(SRC.glob("*.py"))
               for label, _, stmt in definitions(parse(path))
               if isinstance(stmt, ast.FunctionDef)
               and any(isinstance(node, ast.Call)
                       and ast.unparse(node.func).split(".")[-1] == "swap"
                       for node in ast.walk(stmt))]
    assert callers == ["perms.word_evaluator", "verify.probe_refuted",
                       "verify.block_scan"]


def row_indexers(tree):
    """Functions outside `_Level` that index some `.uinv` list."""
    skip = {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_Level"
            for node in ast.walk(cls)}
    return [func.name for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and id(func) not in skip
            and any(isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "uinv"
                    for node in ast.walk(func))]


def test_inverse_rows_are_read_through_their_level():
    # a level's inverse rows are built on first read, by _Level.row or
    # _Level.uinvstack, so nothing else in src indexes the row list,
    # where an unbuilt row is None
    assert row_indexers(ast.parse(
        "def sift(lvl, j, r):\n    return lvl.uinv[j][r]")) == ["sift"]
    offenders = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                 for name in row_indexers(parse(path))]
    assert not offenders, f"unbuilt rows readable in: {', '.join(offenders)}"

"""No library code that only tests call.

Every top-level function and class in src/utpoly, every module-level
name bound by assignment, and every method of a class defined there
must be referenced by name somewhere in src/utpoly or bench/ outside its
own definition; the package's re-exports in __init__.py do not count as
a use.  A name with no such reference is either dead code or a public
helper kept on purpose, and the latter is listed below with its reason.

The check is by name alone, not by class: a method passes when any use
of its name exists, so a method that shares its name with another
(NcPolynomial.degree and a CPolynomial.degree, say, or a zero method
beside FieldDescriptor.zero) is not caught by it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "utpoly"
BENCH = ROOT / "bench"
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")

ALLOWED = {}

# methods Python calls with no use of their name, each listed by name
IMPLICIT = {
    "__pow__": "_Lanes: ** on a lane vector, in the evaluation routes",
    "__mod__": "_Lanes: % p on a lane vector, in the evaluation routes",
    "__bool__": "_Lanes: a lane vector's truth, in the zero filter",
    "__eq__": "_Lanes: == in UTMatrix.eq",
    "__repr__": "UTMatrix, CPolynomial and NcPolynomial: repr in test "
                "failure messages",
    "__post_init__": "FieldDescriptor: the dataclass calls it after __init__",
}


def _uses(tree) -> Counter:
    """How often each name is used in tree: names, attribute names, and
    identifier-like string constants with their dotted parts
    (bench/tracer.py names its targets as "UTMatrix.__matmul__")."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            out.update(node.value.split("."))
    return out


def _defined(node) -> list:
    """The names a top-level statement binds: a function or class, or
    the plain names an assignment targets (Word = tuple, say)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _trees() -> dict:
    """{path: module tree} for src/utpoly and bench/, __init__.py left out."""
    return {path: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
            if path.name != "__init__.py"}


def _used(trees) -> Counter:
    """The uses of each name in src/utpoly and bench/."""
    used = sum((_uses(tree) for path, tree in trees.items()
                if path.parent == SRC), Counter())
    # the bench's own helpers (bench/oracle.py's commutator, say) share
    # names with utpoly's; a use of such a name in bench/ is the bench's
    own = {name for path, tree in trees.items() if path.parent == BENCH
           for node in tree.body for name in _defined(node)}
    for path, tree in trees.items():
        if path.parent == BENCH:
            used.update({name: count for name, count in _uses(tree).items()
                         if name not in own})
    return used


def _unreferenced() -> dict:
    """{name: module} for top-level definitions with no reference."""
    trees = _trees()
    used = _used(trees)
    out = {}
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            for name in _defined(node):
                if used[name] == _uses(node)[name]:
                    out[name] = path.name
    return out


def _unreferenced_methods() -> dict:
    """{Class.method: module} for methods of src/utpoly's classes whose
    name has no reference outside the method itself."""
    trees = _trees()
    used = _used(trees)
    out = {}
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) \
                        and used[node.name] == _uses(node)[node.name]:
                    out[f"{cls.name}.{node.name}"] = path.name
    return out


def test_every_definition_has_a_library_or_bench_reference():
    unreferenced = _unreferenced()
    unexpected = {name: module for name, module in unreferenced.items()
                  if name not in ALLOWED}
    assert not unexpected, (
        f"defined in src/utpoly but referenced only by tests (or not at "
        f"all): {unexpected}; delete them or list them in ALLOWED with a "
        f"reason")
    # an allowlist entry for a name that gained a reference, or is gone,
    # is stale
    assert set(ALLOWED) <= set(unreferenced), set(ALLOWED) - set(unreferenced)


def test_every_method_has_a_library_or_bench_reference():
    unreferenced = _unreferenced_methods()
    unexpected = {name: module for name, module in unreferenced.items()
                  if name.split(".")[1] not in IMPLICIT}
    assert not unexpected, (
        f"methods in src/utpoly referenced only by tests (or not at all): "
        f"{unexpected}; delete them, or list a method Python calls "
        f"implicitly in IMPLICIT with a reason")
    # an entry for a name that gained a reference, or is gone, is stale
    names = {name.split(".")[1] for name in unreferenced}
    assert set(IMPLICIT) <= names, set(IMPLICIT) - names

"""Every public name of `src/colorlie` has a caller outside the tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# public names kept although nothing in src/ or perfbench/ references them
ALLOWED = {
    "betti",            # documented entry point (README)
    "representatives",  # documented entry point (README)
    # the one public read of d itself: the matrices are D d, and D is private
    "apply_monomial",
}


def _scan(tree, defs, refs, enclosing=()):
    """Collect the public functions, classes and methods of `tree` into
    defs, and every reference (a Name, an Attribute or an identifier
    string) into refs as (name, the definitions around it)."""
    for node in ast.iter_child_nodes(tree):
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = enclosing + (node,)
            if defs is not None and not node.name.startswith("_"):
                defs.append(node)
        elif isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.append((node.value, enclosing))
        _scan(node, defs, refs, inner)


def unreferenced_names():
    """The public definitions of src/colorlie (dunders and _names exempt,
    ALLOWED kept) that nothing references, as sorted (name, file, line)
    triples.  A reference inside the definition itself, or inside another
    unreferenced definition, does not count; the second rule is iterated to
    a fixpoint.

    Names are matched as bare identifiers, so a reference to any other
    name that collides with a definition's (an attribute of the same name
    on another object, a dict key) keeps it: this finds a floor of the
    unused surface, not all of it."""
    defs, refs = [], []
    where = {}
    for path in sorted((ROOT / "src" / "colorlie").glob("*.py")):
        before = len(defs)
        _scan(ast.parse(path.read_text(encoding="utf-8")), defs, refs)
        for node in defs[before:]:
            where[node] = path.name
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        _scan(ast.parse(path.read_text(encoding="utf-8")), None, refs)
    by_name = {}
    for name, around in refs:
        by_name.setdefault(name, []).append(around)
    dead = set()
    while True:
        found = {node for node in defs
                 if node not in dead and node.name not in ALLOWED
                 and not any(node not in around and dead.isdisjoint(around)
                             for around in by_name.get(node.name, ()))}
        if not found:
            break
        dead |= found
    return sorted((node.name, where[node], node.lineno) for node in dead)


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function, class or method of src/colorlie that only the
    tests call belongs in the tests; see `unreferenced_names` for what
    counts as a reference."""
    assert unreferenced_names() == []

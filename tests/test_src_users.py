"""Every definition in the package has a user in the program.

A top-level function or class of ``src/afmgate``, or a public method of a
top-level class, must be referenced outside its own definition by the
package or by the benchmark (``bench/*.py``), or be exported in
``afmgate.__all__``.  A reference is a name, an attribute, an import alias
or a string constant that is an identifier (the bench tracer wraps
functions by name).  References made inside a definition that has no user
do not count, nor does an import whose name its module uses only there, so
a chain of definitions that only tests reach is found whole.  Reference
implementations that only tests compare against live in ``tests/oracles.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import afmgate

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "afmgate").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
PACKAGE = ROOT / "src" / "afmgate"
# ROADMAP item 4 gives these two a caller (the error model's E_min in terms
# of the interaction strength, and its large-N scaling law)
ALLOWED = {"gate.e_min_vs_interaction", "gate.scaling_emin"}


def _definitions(tree: ast.Module, module: str) -> dict:
    """Qualified name -> (bare name, node) of the top-level functions and
    classes and the public methods of the top-level classes."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[f"{module}.{node.name}"] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        defs[f"{module}.{node.name}.{item.name}"] = (item.name, item)
    return defs


def _references(node: ast.AST, skip: set) -> list:
    """The references under ``node``, not descending into the nodes in
    ``skip``: ("use", name) for a name, an attribute or an identifier
    string, ("import", bound name, imported name) for an import alias."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in skip:
            continue
        if isinstance(n, ast.Name):
            out.append(("use", n.id))
        elif isinstance(n, ast.Attribute):
            out.append(("use", n.attr))
        elif isinstance(n, ast.alias):
            out.append(("import", n.asname or n.name.split(".")[0], n.name.split(".")[-1]))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.append(("use", n.value))
        stack.extend(ast.iter_child_nodes(n))
    return out


def unused_definitions() -> list:
    """Qualified names of the definitions with no user, sorted."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    defs = {}
    for path, tree in trees.items():
        if path.parent == PACKAGE:
            defs.update(_definitions(tree, path.stem))
    dead: dict = {}
    while True:
        # a definition's own body, and the bodies of the definitions found
        # unused so far, are no users
        skip = {id(node) for _, node in dead.values()}
        counts = Counter()
        for tree in trees.values():
            refs = _references(tree, skip)
            used_here = {ref[1] for ref in refs if ref[0] == "use"}
            counts.update(ref[1] if ref[0] == "use" else ref[2] for ref in refs
                          if ref[0] == "use" or ref[1] in used_here)
        newly = {}
        for qual, (name, node) in defs.items():
            if qual in dead or qual in ALLOWED or name in afmgate.__all__:
                continue
            inside = sum(1 for ref in _references(node, skip) if ref[0] == "use" and ref[1] == name)
            if counts[name] <= inside:
                newly[qual] = (name, node)
        if not newly:
            return sorted(dead)
        dead.update(newly)


def test_every_src_definition_has_a_program_user():
    unused = unused_definitions()
    assert not unused, "no caller in src/afmgate or bench/, not in afmgate.__all__: " + ", ".join(unused)


def test_allowlist_names_existing_definitions():
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs.update(_definitions(ast.parse(path.read_text()), path.stem))
    assert ALLOWED <= set(defs)

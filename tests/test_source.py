"""The package source itself: every definition is used by the package."""

import ast
from pathlib import Path

import nicensus

SRC = Path(nicensus.__file__).parent

# definitions no name in the package references, each with the reason it stays
UNREFERENCED = {
    "census.ni_verify": "the documented one-spec audit API; the package calls ni_verify_all",
    "cli._Parser.error": "argparse calls it by name",
    "gf.FieldCtx.div": "perfbench counts it among the field ops it traces",
    "matrix.companion": "a test helper, and the representative of a class type",
}


def _definitions(node, prefix):
    """(qualified name, name) of every def and class below node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _unreferenced():
    """The defs and classes whose name no Name or Attribute node in the
    package mentions, dunders left out."""
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs += _definitions(tree, f"{path.stem}.")
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return {qual for qual, name in defs
            if name not in used and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_referenced_or_allowed():
    assert _unreferenced() == set(UNREFERENCED)

"""The package source itself: every definition is used by the package,
only the kernels that choose between the full tables and the generic code
read those tables, and no module reads the environment."""

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


# Outside gf, the only readers of the full tables: each list kernel chooses
# its loop inside itself, so no caller picks a kernel for a field.
FULL_TABLES = {"mul_rows", "add_rows", "neg_table", "inv_table"}
TABLE_READERS = {"poly._mul_lists", "poly._divmod_lists", "poly._frobenius_rows",
                 "poly._pth_power", "matrix.charpoly", "matrix._charpoly_tables"}


def _table_reads(node, owner):
    """The owner (innermost def or class, else the module) of every mention
    of a full table below node, as an attribute or a string."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _table_reads(child, f"{owner}.{child.name}")
            continue
        if (isinstance(child, ast.Attribute) and child.attr in FULL_TABLES
                or isinstance(child, ast.Constant) and child.value in FULL_TABLES):
            yield owner
        yield from _table_reads(child, owner)


def test_only_the_kernels_read_the_full_tables():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "gf":
            readers.update(_table_reads(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert readers == TABLE_READERS


def test_no_module_reads_the_environment():
    # the arguments are the only configuration: no module names environ or
    # getenv, as a name, an attribute, an import or a definition
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found.update(f"{path.stem}.{name}" for name in names & {"environ", "getenv"})
    assert not found


def test_no_module_imports_dataclasses_or_re():
    # the package imports without generating classes or compiling a pattern
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module.partition(".")[0]}
            else:
                continue
            found.update(f"{path.stem}:{name}" for name in names & {"dataclasses", "re"})
    assert not found

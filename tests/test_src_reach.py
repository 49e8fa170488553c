import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "adicspace").glob("*.py"))


def named(tree):
    """Every name the module reads: as a Name, as an Attribute, or in an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.split(".")[-1] for alias in node.names)


def test_every_top_level_definition_is_exported_or_reached_from_the_package():
    # code that only tests reach belongs in tests/ (see tests/path_oracle.py, tests/tower_oracle.py);
    # a read inside the definition itself, as a recursive helper's call of itself, does not count
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert "__init__.py" in trees
    # the names each top-level statement reads
    reads = {(module, i): set(named(node)) for module, tree in trees.items()
             for i, node in enumerate(tree.body)}
    defined = [(module, i, node) for module, tree in trees.items() for i, node in enumerate(tree.body)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    unreached = [f"{module}: {node.name}" for module, i, node in defined
                 if not any(node.name in names for key, names in reads.items() if key != (module, i))]
    assert not unreached, unreached

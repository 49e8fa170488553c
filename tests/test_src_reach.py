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
    # code that only tests reach belongs in tests/ (see tests/path_oracle.py, tests/tower_oracle.py)
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert "__init__.py" in trees
    reached = {name for tree in trees.values() for name in named(tree)}
    unreached = [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name not in reached]
    assert not unreached, unreached

import ast

from test_src_reach import SOURCES


def bound_names(node):
    """The names an import statement binds: ``import a.b`` binds a, ``as c`` binds c."""
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_every_imported_name_is_read_in_its_module():
    # __init__.py imports to re-export; any other module has no use for a name it never reads
    stale = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                stale += [f"{path.name}: {name}" for name in bound_names(node) if name not in read]
    assert not stale, stale

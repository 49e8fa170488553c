import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "adicspace").glob("*.py"))


def absolute_imports(path):
    """The top-level module of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {f"{path.name}: {module}" for path in SOURCES for module in absolute_imports(path)
               if module not in sys.stdlib_module_names}
    assert not outside, sorted(outside)

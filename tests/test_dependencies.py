"""The package runs on the standard library alone: ``dependencies = []``."""

import ast
import pathlib
import sys

import oddcolor


def test_every_import_is_relative_or_standard_library():
    modules = sorted(pathlib.Path(oddcolor.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []

"""Source layout rules that no single module's tests can see."""

import ast
from pathlib import Path

import vcgen

SRC = Path(vcgen.__file__).resolve().parent


def test_no_private_imports_across_modules():
    # a module uses another module's public names only; a private helper
    # that two modules need is made public in one of them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "vcgen"
            )
            if internal:
                found += [
                    f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert not found, found

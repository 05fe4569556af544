"""The reference module stays independent of the code it checks."""

import ast
from pathlib import Path

import gridlink


def test_reference_reads_only_the_public_api():
    tree = ast.parse((Path(__file__).resolve().parent / "reference.py").read_text())
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            assert all(a.name.split(".")[0] != "gridlink" or a.name == "gridlink" for a in n.names), ast.unparse(n)
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "gridlink":
            assert n.module == "gridlink", ast.unparse(n)
            assert all(a.name in gridlink.__all__ for a in n.names), ast.unparse(n)
        elif isinstance(n, ast.Attribute):
            assert not n.attr.startswith("_"), ast.unparse(n)

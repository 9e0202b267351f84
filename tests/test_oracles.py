"""The oracles stay independent of the checkers they are compared against."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

# The data types an oracle may receive; nothing that evaluates an identity.
ALLOWED = {("clusteralg.core", "ClusterAlgebra"), ("clusteralg.linalg", "Tensor3")}


def test_oracles_import_only_data_types():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    package = {(mod, name) for mod, name in imported
               if (mod or "").split(".")[0] == "clusteralg"}
    assert package <= ALLOWED, sorted(package - ALLOWED, key=str)

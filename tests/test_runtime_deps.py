"""numpy is the only runtime dependency, and BEARFACE_VERBOSE the only
environment variable."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bearface

# Run in a fresh interpreter: the test session has pytest, hypothesis and
# their dependencies loaded. Modules the interpreter loads at startup are
# in the snapshot, so only what importing the package adds is counted.
_PROBE = """
import json, sys
before = set(sys.modules)
import bearface, bearface.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_only_numpy_is_imported_beside_the_package():
    src = str(Path(bearface.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(result.stdout) == ["bearface", "numpy"]


def _environment_reads() -> list[tuple[str, object]]:
    """(module, variable) of every use of os.environ or os.getenv in the package.

    The variable is None where the use names no constant, such as a whole
    `os.environ` passed on.
    """
    reads = []
    for path in sorted(Path(bearface.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name in ("environ", "getenv"):
                reads.append((path.name, None))  # from os import environ
                continue
            if not (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")):
                continue
            use = parent[node]
            if isinstance(use, ast.Attribute):  # os.environ.get(...)
                use = parent[use]
            key = None
            if isinstance(use, ast.Call) and use.args and isinstance(use.args[0], ast.Constant):
                key = use.args[0].value
            elif isinstance(use, ast.Subscript) and isinstance(use.slice, ast.Constant):
                key = use.slice.value
            reads.append((path.name, key))
    return reads


def test_the_only_environment_variable_is_bearface_verbose():
    assert _environment_reads() == [("diagnostics.py", "BEARFACE_VERBOSE")]

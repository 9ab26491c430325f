"""numpy is the only runtime dependency."""

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

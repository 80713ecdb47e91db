"""`import xpv.cli` loads no numpy submodule beyond those `import numpy`
loads, and computes no constant: the benchmark's setup_s times this
import, so a lazy numpy submodule (numpy.polynomial, say) or ledger work
at import would show there."""

import json
import os
import subprocess
import sys
from pathlib import Path

import xpv

CHILD = """
import json, sys
def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))
import numpy
bare = numpy_modules()
import xpv.cli, xpv.meanvalue as mv
print(json.dumps({"bare": bare, "cli": numpy_modules(),
                  "cached": mv.solve_K.cache_info().currsize}))
"""


def test_import_loads_only_what_numpy_loads_and_computes_nothing():
    src = str(Path(xpv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    got = json.loads(out)
    assert sorted(set(got["cli"]) - set(got["bare"])) == []
    assert got["cached"] == 0

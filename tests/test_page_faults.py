"""A sweep reuses its memory from chunk to chunk.  Per-chunk temporaries
of 256 KiB and more are mapped and faulted in anew on every chunk under
glibc's malloc, so a sweep's minor page faults grow with its chunk count;
with temporaries the heap serves again they stay near the cost of the
table and the report."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import xpv

CHILD = """
import contextlib, io, json, resource, sys
import xpv.cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = xpv.cli.run(argv)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"code": code, "faults": after - before}))
"""

# 6256 and 4186 minor faults with 2^16-state chunks; about 1100 with 2^14
JOBS = [
    "verify --check pi-li-1 --from 2 --to 5e6",
    "dickman --xmax 100 --exponent-check 1,100,1.15,table "
    "--exponent-check 6,100,1.10,buchstab",
]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault counts are glibc malloc's")
@pytest.mark.parametrize("argv", JOBS)
def test_sweep_faults_stay_flat(argv):
    src = str(Path(xpv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv.split())],
                         env=env, check=True, capture_output=True, text=True).stdout
    got = json.loads(out)
    assert got["code"] == 1  # both claims fail by design at small x
    assert got["faults"] < 2500, got

"""A pi-li sweep reads exact pi at Lucy points and sieves small windows
only, so its peak memory no longer grows with the prime table: to 1e8 it
keeps its report's bytes with a peak RSS (VmHWM) under 60 MB, against
78 MB for a sweep over the table of all primes to 1e8.  The child process
reads its own peak from /proc/self/status."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xpv

CHILD = """
import contextlib, hashlib, io, json, sys
import xpv.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = xpv.cli.run(json.loads(sys.argv[1]))
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "hwm_kb": hwm,
                  "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_pi_li_to_1e8_keeps_its_bytes_in_bounded_memory():
    argv = "verify --check pi-li-1 --from 2 --to 1e8".split()
    src = str(Path(xpv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                         env=env, check=True, capture_output=True, text=True).stdout
    got = json.loads(out)
    assert got["code"] == 1  # the claim fails by design at small x
    assert got["sha256"].startswith("8e0ff1c233f7"), got
    assert got["hwm_kb"] < 60 * 1024, got

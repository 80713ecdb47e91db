"""Run one xpv invocation in a fresh interpreter and describe it.

    python3 child.py SRC_DIR {plain|trace} ARGV...

Imports ``xpv.cli`` from SRC_DIR, times ``cli.run(ARGV)`` with the
report captured in memory, and prints one JSON line: the exit code,
the report text, the clock reading when ``xpv.cli`` was ready, the run
time, the process's own peak RSS and, in trace mode, the spans.  Only
the import of ``xpv.cli`` sits between interpreter start and "ready",
so the harness can time set-up from its own clock reading at spawn.
"""

import sys
import time


def main() -> int:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import xpv.cli as cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"xpv.cli was imported from {where}, not from {src}", file=sys.stderr)
        return 2
    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code
        except Exception:  # a traceback; the harness fails the job on it
            code, error = None, traceback.format_exc()
    run_s = time.perf_counter() - start
    record = {
        "code": code,
        "error": error,
        "report": out.getvalue(),
        "stderr": err.getvalue(),
        "ready": ready,
        "run_s": run_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        record["spans"] = recorder.spans
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

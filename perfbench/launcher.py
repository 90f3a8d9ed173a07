"""Spawn sympgeo CLI children on request and report wall time, peak RSS and digest.

    python3 -S perfbench/launcher.py SRC_DIR

Reads one JSON request per line on stdin, ``{"argv": [...], "fmt":
"csv"|"json"}``, runs ``python -m sympgeo argv`` with ``SRC_DIR`` on
PYTHONPATH, and answers with one JSON line: ``wall_s``, ``rss_mb``,
``code``, ``digest`` and ``bytes``.  Exits at end of input.

Why a separate process: a child's peak RSS, as ``wait4`` reports it,
starts from the peak of the address space it was forked from, so children
forked straight from the benchmark (which holds every generated input)
would all report the benchmark's own size.  This launcher stays small, so
the figure it reports is the CLI's own.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time

_WALL_TIME = re.compile(rb',\n  "wall_time_ms": [^\n]*\n}\n$')


def stdout_digest(out: bytes, fmt: str) -> str:
    """sha256 of CLI stdout; JSON reports drop their ``wall_time_ms`` line first."""
    if fmt == "json":
        out = _WALL_TIME.sub(b"\n}\n", out)
    return hashlib.sha256(out).hexdigest()


def spawn(src: str, argv: list[str], fmt: str) -> dict:
    """The clock runs from spawn to exit with stdout fully drained."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sympgeo", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "digest": stdout_digest(out, fmt), "bytes": len(out)}


def main() -> int:
    src = sys.argv[1]
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(spawn(src, request["argv"], request["fmt"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Usage: check-json-digest.sh DIGEST SUBCOMMAND [ARGS...]
# Runs `sympgeo SUBCOMMAND ARGS...` and fails unless the benchmark's digest
# of its JSON report (perfbench/launcher.py, timing stripped) is DIGEST.
set -e
digest=$(sympgeo "${@:2}" \
         | python -c "import sys; sys.path.insert(0, 'perfbench'); from launcher import stdout_digest; print(stdout_digest(sys.stdin.buffer.read(), 'json'))")
test "$digest" = "$1"

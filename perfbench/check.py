"""Check one CLI output read from standard input against the reference oracle.

Usage: ``python3 perfbench/check.py '["check_table", {"n": 2, ...}]' < output``.
Prints the problems found as a JSON list; an empty list passes. ``run.py``
checks outputs here, in a separate process, so that parsing a large output
never raises its own peak RSS: a child started from it would inherit that
peak as its ``ru_maxrss``.
"""

import json
import sys

import workloads

if __name__ == "__main__":
    name, kw = json.loads(sys.argv[1])
    print(json.dumps(workloads.run_check((name, kw), sys.stdin.buffer.read())))

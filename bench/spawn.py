"""Starts commands for the benchmark and reports their wall time and peak RSS.

Reads one JSON request per line on stdin, ``{"argv": [...], "stderr": path}``,
runs the command to completion and answers with one JSON line,
``{"elapsed_ns": ..., "code": ..., "maxrss_kb": ...}``. It exits at end of
input.

A child's ``ru_maxrss`` also covers the memory of the process that started
it (Linux carries the parent's peak across fork and exec), so commands are
started from this small process rather than from the benchmark, whose output
checks use hundreds of MB. It imports nothing beyond the standard library.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as stderr:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(request["argv"], stdout=subprocess.DEVNULL, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed_ns = time.perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"elapsed_ns": elapsed_ns, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

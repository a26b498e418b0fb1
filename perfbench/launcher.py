"""Spawn the benchmark's commands and report each one's resource usage.

Started once per run by run.py.  Reads one JSON request per line on stdin
(argv, stdout and stderr paths, timeout), runs the command to completion,
killing it at the timeout, and answers with one JSON line: exit code,
wall seconds, CPU seconds and ru_maxrss.  Commands are spawned from this
small process rather than from run.py because a child's ru_maxrss also
counts the resident size of the process that spawned it, and this one
stays smaller than any kcycles command.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "returncode": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one command and print how it ran as one JSON line on stdout.

    python3 perfbench/spawn.py TIMEOUT_S LOG -- COMMAND...

The benchmark starts every measured process through this small one. The peak
RSS that wait4 reports for a child includes the peak of the address space it
was spawned from, and the benchmark process can be larger than the program
it measures. Wall time runs from spawn to exit. CPU time and peak RSS come
from wait4. The command is killed after TIMEOUT_S seconds, and its stderr
goes to LOG.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, log, argv = float(sys.argv[1]), sys.argv[2], sys.argv[4:]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

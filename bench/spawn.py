"""Run one command and record its wall time and its own resource usage.

    python spawn.py TIMEOUT_S ARGV...

Writes {"code", "wall_s", "cpu_s", "rss_mb"} to spawn.json in the working
directory; the command inherits stdin, stdout, stderr, cwd and env.

The benchmark starts every child through this small process.  Linux
records the peak RSS of the process that spawned a child into the
child's own peak when the child calls exec, so a child spawned straight
from the benchmark (which holds numpy, its oracles and a 19 MB
calibration table) would never report less than the benchmark's peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(timeout: str, *argv: str) -> None:
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    watchdog = threading.Timer(float(timeout), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open("spawn.json", "w") as f:
        json.dump(
            {
                "code": proc.returncode,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
            },
            f,
        )


if __name__ == "__main__":
    main(*sys.argv[1:])

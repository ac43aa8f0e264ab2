"""Starts the benchmark's commands and reports how each one ran.

The benchmark process grows large (numpy, generated catalogs, parsed
outputs).  On Linux a process started from it carries that process's peak
resident set into its own ``ru_maxrss``, because exec records the peak of
the memory image it replaces.  So the measured commands are started from
this small process instead, whose own peak stays below any of theirs.

Protocol: one JSON request per line on stdin, ``{"argv", "stderr",
"timeout"}``; one JSON reply per line on stdout, ``{"wall_s", "exit_code",
"cpu_s", "maxrss_mb"}``.  It exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list, stderr_path: str, timeout: float) -> dict:
    """Run one process to completion; its wall time, exit code and rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

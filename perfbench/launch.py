"""Run one command and report its wall time and resource usage.

    python3 -I -S perfbench/launch.py REPORT_FILE PROGRAM [ARGS...]

Linux starts a child's peak RSS at its parent's peak at the time of the
fork, so the benchmark does not start the measured commands itself: it
starts this small process, which spawns the command, reaps it with
``wait4`` and writes ``exit-code wall-seconds cpu-seconds maxrss-kb`` to
REPORT_FILE. Standard streams pass through to the command.
"""

import os
import sys
import time


def main() -> int:
    report, *argv = sys.argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
                 f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

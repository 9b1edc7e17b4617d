"""Run one command and print what it cost.

    python3 -S perfbench/launch.py STDOUT_FILE STDERR_FILE PROGRAM ARGS...

Prints "start end cpu_seconds maxrss_kib status": monotonic start and end
times around the command, its user plus system time and its peak resident
set, both including the children it waited for, and its wait status.

The benchmark starts every eclab process through this small process. A
process started by fork, vfork or posix_spawn inherits its parent's peak
resident set, so eclab started straight from the benchmark would report
the benchmark's peak whenever that is the larger.
"""
import os
import sys
import time


def main() -> None:
    out_path, err_path, *cmd = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.monotonic()
        pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
    print(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, status)


if __name__ == "__main__":
    main()

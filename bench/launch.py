"""Run one command to its end or to a deadline, and report what it cost.

    python3 -S bench/launch.py DEADLINE_S STDOUT_PATH CMD [ARG ...]

Prints one JSON object: wall_s, rss_mb, exit_code, timed_out.  The command
leads its own session, so a kill at the deadline also takes the pool
workers it started; rss_mb is the largest ru_maxrss of the command and of
every descendant it waited for.

This is a process of its own because a child's ru_maxrss starts at its
parent's peak RSS.  Spawned from run.py, which holds the golden answers
and the library, every op would report at least run.py's memory; spawned
from this small process, the floor is a few MB below any op's own.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    deadline, stdout_path, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    killed = []

    def on_deadline(signum, frame):
        killed.append(True)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, on_deadline)
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions,
                         setsid=True)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
                      "exit_code": os.waitstatus_to_exitcode(status),
                      "timed_out": bool(killed) and os.WIFSIGNALED(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

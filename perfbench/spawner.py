"""Child-process launcher for the benchmark.

The benchmark starts this script before it builds any trace. A spawned child
runs in its spawner's memory until it calls ``exec``, and Linux carries the
peak RSS of that memory across ``exec`` into the child's rusage. Children
launched straight from the benchmark would therefore report the benchmark's
own peak RSS whenever it is the larger; launched from this small process,
they report their own.

Protocol, one JSON object per line: the request on stdin is
``{"argv", "env", "out", "err", "timeout_s"}``; the reply on stdout is
``{"wall_s", "exit_code", "maxrss_kb"}``, where ``wall_s`` runs from spawn to
exit and ``exit_code`` is null when the child outlived ``timeout_s`` and was
killed. The script exits at end of input.
"""

import json
import os
import signal
import sys
import time


class _Timeout(Exception):
    pass


_running = None  # pid of the child being waited for


def _on_alarm(signum, frame):
    raise _Timeout()


def _on_term(signum, frame):
    if _running is not None:
        os.kill(_running, signal.SIGKILL)
        os.waitpid(_running, 0)
    sys.exit(128 + signum)


def run(req: dict) -> dict:
    global _running
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _running = pid
        status = None
        signal.setitimer(signal.ITIMER_REAL, max(req["timeout_s"], 0.01))
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    if status is None:  # timed out: the child is not reaped yet, so its pid is still ours
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        code = None
    else:
        code = os.waitstatus_to_exitcode(status)
    _running = None
    return {"wall_s": wall, "exit_code": code, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

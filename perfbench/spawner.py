"""Starts the benchmark's commands from a small resident process.

    python3 -I -S perfbench/spawner.py

On Linux a child's max-RSS starts at the RSS of the process that forked
it, so the benchmark does not fork its commands itself: this helper, which
imports nothing beyond the interpreter's built-in modules, forks them. It
reads requests from stdin and answers on stdout, both in `marshal` format,
one command at a time, until stdin closes.

A request is (argv, cwd, env, stdout path, stderr path, time limit in s).
The answer is (wall s, wait status, user CPU s, sys CPU s, max-RSS KiB,
timed out): the child is killed when it runs past the limit.
"""
import marshal
import os
import signal
import sys
import time


def run(argv, cwd, env, out_path, err_path, limit):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(os.open(out_path, flags, 0o644), 1)
            os.dup2(os.open(err_path, flags, 0o644), 2)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    timed_out = False

    def expire(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return (wall, status, usage.ru_utime, usage.ru_stime, usage.ru_maxrss,
            timed_out)


def main():
    requests, answers = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            request = marshal.load(requests)
        except EOFError:
            return 0
        marshal.dump(run(*request), answers)
        answers.flush()


if __name__ == "__main__":
    sys.exit(main())

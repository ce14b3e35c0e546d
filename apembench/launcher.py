"""Runs CLI passes in forked children of a lean process, to measure their peak RSS.

``ru_maxrss`` is a high-water mark, and a forked child starts with its
parent's resident pages. The benchmark process grows with the training set,
the set-up trainings and the output checks, so a child forked from it would
report that memory as its own. ``Launcher`` therefore forks a small server
process as soon as ``apemkit`` is imported, before any of that happens. The
server forks one child per pass, and ``os.wait4`` on that child gives the
peak RSS of the child and of every pool worker it waited for: an interpreter
with numpy and apemkit loaded, plus what the commands touched.
"""

from __future__ import annotations

import json
import os
import traceback


class Launcher:
    """Context manager; calling it runs a list of argvs in a fresh child.

    `run_commands(argvs)` runs in the child and returns one
    ``(exit code, wall seconds)`` pair per command it ran. A call returns
    those pairs and the child's peak RSS in MB. A child that dies early
    returns fewer pairs than argvs, and the caller counts that as a failure.
    """

    def __init__(self, run_commands, log_path):
        self._run_commands = run_commands
        self._log_path = log_path
        self._pid = None

    def __enter__(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(request_w)
            os.close(reply_r)
            try:
                self._serve(request_r, reply_w)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        self._pid = pid
        self._requests = os.fdopen(request_w, "w")
        self._replies = os.fdopen(reply_r)
        return self

    def __exit__(self, *exc):
        self._requests.close()  # the server reads EOF and exits
        self._replies.close()
        os.waitpid(self._pid, 0)

    def __call__(self, argvs: list[list[str]]) -> tuple[list[tuple[int, float]], float]:
        self._requests.write(json.dumps(argvs) + "\n")
        self._requests.flush()
        reply = self._replies.readline()
        if not reply:
            raise RuntimeError("the pass launcher exited")
        reply = json.loads(reply)
        return [tuple(run) for run in reply["runs"]], reply["peak_rss_mb"]

    def _serve(self, request_fd, reply_fd):
        with os.fdopen(request_fd) as requests, os.fdopen(reply_fd, "w") as replies:
            for line in requests:
                out_r, out_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(out_r)
                    self._child(json.loads(line), out_w)
                os.close(out_w)
                with os.fdopen(out_r) as out:
                    payload = out.read()
                _, _, usage = os.wait4(pid, 0)
                replies.write(json.dumps({
                    "runs": json.loads(payload) if payload else [],
                    "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
                }) + "\n")
                replies.flush()

    def _child(self, argvs, out_fd):
        runs = []
        try:
            runs = self._run_commands(argvs)
        except BaseException:
            with open(self._log_path, "a") as log:
                traceback.print_exc(file=log)
        finally:
            with os.fdopen(out_fd, "w") as out:
                out.write(json.dumps(runs))
            os._exit(0)

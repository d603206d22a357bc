"""Forked worker processes, and how many processes to run.

``training`` forks one :class:`Worker` to compute the end agent's gradients;
``inference`` forks one per search shard after the first.
"""

from __future__ import annotations

import os
import pickle
import signal


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def processes(wanted: int) -> int:
    """How many processes to run ``wanted`` parts of one job in: one per
    usable CPU and at most ``wanted``, or 1 without ``os.fork``."""
    return min(usable_cpus(), wanted) if hasattr(os, "fork") else 1


class Worker:
    """A forked process that answers requests of one byte each.

    For each request :meth:`send` writes, the worker runs ``serve(request)``
    and pickles back ``(True, value)`` or ``(False, exception)``.
    :meth:`result` reads the oldest unread answer: it returns the value, or
    raises the worker's exception here again, with its type and message.  A
    worker that ends without its answer is a ``ChildProcessError`` that
    names the worker and its exit code.  Leaving the ``with`` block ends
    the worker's requests and reaps it, after SIGKILL when the block
    raised.  The worker leaves by ``os._exit``, so nothing of this
    process's (buffers, exit handlers) runs twice.  A worker started while
    another is open holds copies of the other's pipe ends, so open workers
    are left newest first, as an ``ExitStack`` leaves them.
    """

    def __init__(self, name: str, serve):
        self.name = name
        requests, asks, answers, replies = os.pipe() + os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (requests, asks, answers, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(asks)
                os.close(answers)
                self._serve(requests, replies, serve)
                status = 0
            finally:
                os._exit(status)
        os.close(requests)
        os.close(replies)
        self._asks = open(asks, "wb", buffering=0)
        self._answers = open(answers, "rb")

    @staticmethod
    def _serve(requests: int, replies: int, serve) -> None:
        # The worker's loop, until its requests end.
        with open(requests, "rb", buffering=0) as asked, open(replies, "wb") as out:
            while request := asked.read(1):
                try:
                    answer = (True, serve(request[0]))
                except BaseException as exc:  # raised again by result()
                    answer = (False, exc)
                out.write(pickle.dumps(answer))
                out.flush()

    def send(self, request: int) -> None:
        """Ask the worker for ``serve(request)``, ``request`` a byte."""
        try:
            self._asks.write(bytes([request]))
        except BrokenPipeError:
            self._lost()

    def result(self):
        """The value of the oldest answer not read yet; raises what the
        worker raised."""
        try:
            ok, value = pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):
            self._lost()
        if not ok:
            raise value
        return value

    def _lost(self):
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        raise ChildProcessError(f"{self.name} {pid} ended without its answer "
                                f"(exit code {code})") from None

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self._asks.close()
        self._answers.close()
        if self.pid is not None:
            if kind is not None:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

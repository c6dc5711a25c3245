"""Forked worker processes, each with one message channel to the calling process.

A worker is forked from the calling process, so it starts with the
caller's objects and shared memory as they were at the fork; nothing is
re-imported or pickled on the way in. Forking is safe only while the
calling process runs one thread, so callers fork from the main thread and
start no thread of their own. Messages back are pickled.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import socket
import sys
import traceback
from collections.abc import Callable, Iterator
from typing import Any, NoReturn

__all__ = ["Channel", "Worker", "cpus", "forked", "in_worker"]


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class _Failure:
    """A worker's exception, sent in place of a message."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class Channel:
    """Pickled messages both ways over one end of a socket pair."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send(self, message: Any) -> None:
        self._sock.sendall(pickle.dumps(message))

    def recv(self) -> Any:
        """The next message; ``EOFError`` once the other end is closed."""
        try:
            return pickle.load(self._reader)
        except ConnectionResetError:  # closed before it read all that was sent to it
            raise EOFError from None

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class Worker(Channel):
    """The calling process's end of one forked worker."""

    def __init__(self, pid: int, sock: socket.socket):
        super().__init__(sock)
        self.pid = pid
        self.status: int | None = None

    def send(self, message: Any) -> None:
        try:
            super().send(message)
        except OSError:  # the worker has ended: raise what it sent last, or its exit status
            self.recv()
            raise

    def recv(self) -> Any:
        """The worker's next message; raises what the worker raised instead of sending it."""
        try:
            message = super().recv()
        except EOFError:
            raise RuntimeError(
                f"a case worker ended with exit status {self.reap()} and sent no report"
            ) from None
        if isinstance(message, _Failure):
            raise message.exc
        return message

    def reap(self) -> int:
        """Wait for the worker to end; its exit status, negative for a signal."""
        if self.status is None:
            self.close()
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


@contextlib.contextmanager
def forked(n: int, serve: Callable[[Channel], Any]) -> Iterator[list[Worker]]:
    """Fork ``n`` workers; each runs ``serve(channel)`` and sends its return value.

    ``channel`` is the worker's end of its channel to the calling process.
    What ``serve`` raises is sent instead, with :func:`in_worker`'s note, and
    :meth:`Worker.recv` raises it in the calling process. A worker that ends
    without sending, from a signal say, makes ``recv`` raise a
    ``RuntimeError`` that gives its exit status. On leaving the block,
    normally or not, every channel is closed, so a worker waiting on one
    reads ``EOFError``, and every worker is reaped.
    """
    team: list[Worker] = []
    # one BLAS thread in each of the n + 1 processes, or their idle BLAS threads
    # spin on the CPUs the others need
    blas_threads = _blas_threads(1 if n else None)
    try:
        for _ in range(n):
            ours, theirs = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                # an end held open here would keep its worker from ever reading EOF
                for worker in team:
                    worker.close()
                ours.close()
                _serve(serve, Channel(theirs))
            theirs.close()
            team.append(Worker(pid, ours))
        yield team
    finally:
        for worker in team:
            worker.close()
        for worker in team:
            worker.reap()
        _blas_threads(blas_threads)


def _blas_threads(k: int | None) -> int | None:
    """Set numpy's OpenBLAS to ``k`` threads; the count it had.

    Does nothing and returns None for no ``k``, or where numpy's BLAS is not
    an OpenBLAS; other BLAS libraries keep their thread count.
    """
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    if k is None or umath is None:
        return None
    # a symbol lookup on numpy's extension module searches the libraries it links
    lib = ctypes.CDLL(umath.__file__)
    # the names in numpy's own OpenBLAS builds, 2.x then 1.x, and in a system OpenBLAS
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        try:
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        had = get()
        set_(k)
        return had
    return None


def _serve(serve: Callable[[Channel], Any], channel: Channel) -> NoReturn:
    """In a forked worker: run ``serve``, send its result or its failure, exit."""
    status = 1
    try:
        try:
            channel.send(serve(channel))
        except BaseException as exc:  # sent to the caller, which raises it
            channel.send(_Failure(in_worker(exc)))
        status = 0
    finally:
        os._exit(status)  # never return into the caller's stack


def in_worker(exc: BaseException) -> BaseException:
    """``exc`` ready to be sent from a worker: its traceback attached as a note,
    and a ``RuntimeError`` in its place if it cannot be pickled."""
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__} that cannot be pickled: {exc}")
    # what add_note does; Python 3.10 keeps the note without printing it
    note = f"in case worker {os.getpid()}:\n{text}"
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
    return exc

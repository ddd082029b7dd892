"""Helper processes: how many to use, and the one way consem forks.

:func:`worker_count` says how many processes may share some independent
units.  A :class:`Helper` is a child forked with a ``handle`` function: it
answers each pickled request, in order, with ``handle(request)``'s pickled
result or that call's :func:`portable_error`, until the caller closes its
ends.  ``encoder.eval_rows`` and ``optim.train_epochs`` call :func:`start`,
which gives them a helper or an in-process stand-in: one path for both.

Two rules keep a caller from hanging on a helper.  A new helper closes the
caller-side ends of every live sibling: one left open would keep a sibling
from reading EOF, or from failing to write a full reply pipe, after the
caller closed its ends.  And a pipe holds about 64 KB, so a helper that
works while the caller runs its own share replies once, at the end,
instead of blocking on replies the caller does not read yet; where the
two must swap data mid-way (a pretraining step's pooled vectors), the
caller reads the helper's reply before it sends its own request.
"""

from __future__ import annotations

import gc
import os
import pickle
from typing import Any, Callable

__all__ = ["Helper", "portable_error", "start", "worker_count"]

# The most processes one eval call or one training run works in.  Each
# starts at most one helper, and speed and memory were measured on a 2-CPU
# host only: more would need code as well as a measurement.
_MAX_WORKERS = 2
# The variables OpenBLAS, MKL and OpenMP read their thread count from, and those numpy's OpenBLAS reads.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
_OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# A helper's end closed before its reply was whole, on either pipe.
_EXITED = "worker {} exited before sending its reply"


def _one_blas_thread() -> bool:
    """Whether the environment holds BLAS to one thread per process: each thread variable set is 1,
    and OpenBLAS reads one of them (``MKL_NUM_THREADS`` alone does not count).

    A BLAS left to its default runs a thread per CPU in every process, so
    forked workers would crowd the CPUs: 2 workers on 2 CPUs ran a
    ``retrieve`` in 1.5 to 6.1 s against 1.7 to 2.2 s for one process.
    """
    values = {name: os.environ[name].strip() for name in _BLAS_THREAD_VARS if name in os.environ}
    return all(value == "1" for value in values.values()) and any(name in values for name in _OPENBLAS_THREAD_VARS)


def worker_count(units: int) -> int:
    """Processes to share ``units`` independent work units (eval batches, training shards) among.

    The usable CPUs, at most :data:`_MAX_WORKERS` and at most one per unit,
    where ``fork`` and ``sched_getaffinity`` exist and BLAS runs one thread;
    otherwise 1.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or not _one_blas_thread():
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), _MAX_WORKERS, units))


def portable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, so a helper can send it; else a RuntimeError of its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(repr(exc))
    return exc


def _write(pipe, data: bytes) -> None:
    """Write one pickled message to ``pipe`` and flush it."""
    pipe.write(data)
    pipe.flush()


def _serve(handle: Callable[[Any], Any], requests, replies) -> None:
    """A helper's loop: one reply per request, until the caller closes its end."""
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        try:
            # Pickled before anything is written, so a result that does not
            # pickle becomes an error reply, not half a message.
            reply = pickle.dumps((handle(request), None))
        except Exception as exc:
            reply = pickle.dumps((None, portable_error(exc)))
        _write(replies, reply)


class Helper:
    """A forked child that answers pickled requests with ``handle(request)``; see the module docstring."""

    # Every helper this process started and has not closed: their caller-side
    # ends are process state, which each new child inherits and must close.
    _live: list[Helper] = []

    def __init__(self, pid: int, requests, replies):
        self.pid, self._requests, self._replies = pid, requests, replies

    @classmethod
    def start(cls, handle: Callable[[Any], Any]) -> Helper | None:
        """A helper forked to serve ``handle``, or None if no pipe or process could be made."""
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        request_r, request_w, reply_r, reply_w = fds
        if pid == 0:
            try:
                # Parent objects stay out of the child's collections: no
                # copy-on-write from traversing them, no finalizer of the
                # parent's garbage running here.
                gc.freeze()
                for sibling in cls._live:
                    sibling._close_ends()
                cls._live.clear()
                os.close(request_w)
                os.close(reply_r)
                with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "wb") as replies:
                    _serve(handle, requests, replies)
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        helper = cls(pid, os.fdopen(request_w, "wb"), os.fdopen(reply_r, "rb"))
        cls._live.append(helper)
        return helper

    def send(self, request: Any) -> None:
        """Send one request; its reply is read by :meth:`receive`, replies in request order."""
        try:
            _write(self._requests, pickle.dumps(request))
        except BrokenPipeError:
            raise ChildProcessError(_EXITED.format(self.pid)) from None

    def receive(self) -> Any:
        """The next reply's result; the handler's error, made portable, is raised here."""
        try:
            result, error = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(_EXITED.format(self.pid)) from None
        if error is not None:
            raise error
        return result

    def _close_ends(self) -> None:
        for end in (self._requests, self._replies):
            try:
                end.close()
            except OSError:
                pass

    def close(self) -> None:
        """Close both ends, so the helper's next read ends it or its next reply fails, and reap it."""
        self._live.remove(self)
        self._close_ends()
        os.waitpid(self.pid, 0)


class _InProcess:
    """:class:`Helper`'s stand-in in the caller's process: a request's ``handle`` runs, and raises
    its own error, when its reply is received."""

    def __init__(self, handle: Callable[[Any], Any]):
        self._handle, self._requests = handle, []

    def send(self, request: Any) -> None:
        self._requests.append(request)

    def receive(self) -> Any:
        return self._handle(self._requests.pop(0))

    def close(self) -> None:
        self._requests.clear()


def start(handle: Callable[[Any], Any], units: int) -> Helper | _InProcess:
    """A :class:`Helper` serving ``handle`` where :func:`worker_count` allows more than one process
    for ``units`` work units and one starts, else the in-process stand-in; the caller closes it."""
    helper = Helper.start(handle) if worker_count(units) > 1 else None
    return _InProcess(handle) if helper is None else helper

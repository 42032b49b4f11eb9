"""A helper thread that works beside the calling one, and when to start one.

The embeddings reader parses one block of lines on a helper while it reads
and parses the next, and ``bear encode`` encodes one chunk of images on a
helper while it reads and encodes the next."""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator

import numpy as np

from .tensor import no_grad, reuse_memory


def use_helper(blas: bool = False) -> bool:
    """Whether a helper thread can share the work: the process may run on two
    CPUs, and, for work whose time goes to matrix products (``blas``), the
    BLAS runs one thread of its own. A BLAS left at its default count already
    spreads each product over every CPU, and a second calling thread then
    only competes with it. The count is read from the variables the BLAS
    reads: OpenBLAS takes OPENBLAS_NUM_THREADS and MKL takes MKL_NUM_THREADS,
    each before OMP_NUM_THREADS, so both must come to 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    env = os.environ
    counts = (env.get(own, env.get("OMP_NUM_THREADS", "")) for own in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    return not blas or all(count.strip() == "1" for count in counts)


class Helper:
    """A thread that runs one task at a time for the thread that made it:
    ``hand`` gives it a function and its arguments, and ``take`` waits for
    the result, or raises the exception the task raised. Its tasks record no
    tape (``no_grad``), run under the numpy error state of the thread that
    made it, which a new thread does not inherit, and take the scan's
    scratch from the helper's own free list of mapped blocks
    (``reuse_memory(mapped=True)``), unmapped when it ends. It ends when its
    ``with`` block exits, after the task it runs, if any; a Ctrl-C while
    that waits is raised once the thread has ended."""

    def __init__(self) -> None:
        self._errors = np.geterr()
        self._task: tuple | None = None
        self._result = None
        self._handed, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *_) -> None:
        self._task = None
        self._handed.release()
        interrupt = None
        while True:
            try:
                self._thread.join()
                break
            except KeyboardInterrupt as exc:
                interrupt = exc
        if interrupt is not None:
            raise interrupt

    def _run(self) -> None:
        with np.errstate(**self._errors), no_grad(), reuse_memory(mapped=True):
            while self._handed.acquire() and (task := self._task) is not None:
                try:
                    self._result = task[0](*task[1:])
                except Exception as exc:  # raised again by take
                    self._result = exc
                self._done.release()

    def hand(self, fn: Callable, *args) -> None:
        self._task = (fn, *args)
        self._handed.release()

    def take(self):
        self._done.acquire()
        result, self._task, self._result = self._result, None, None
        if isinstance(result, Exception):
            raise result
        return result


def in_pairs(read: Callable, run: Callable, helper: Helper | None) -> Iterator:
    """``run`` of each item that ``read`` returns, in order, until it returns an
    empty one. With a ``helper`` the items come in pairs: the helper runs the
    first while this thread reads and runs the second, so at most two items
    are in flight, and both are dropped before the next pair is read."""
    while item := read():
        if helper:
            helper.hand(run, item)
            item = read()
        result = run(item) if item else None
        if helper:
            yield helper.take()
        if item:
            yield result
        item = result = None

"""How many processes this process's CPUs hold, and the lanes that split one
detector frame across them.

``cpu_share`` is the one rule for both uses: ``detect --batch`` runs that
many frames side by side (``cli._processes``), and one frame runs in that
many lanes (``vital.detect``), each frame of a batch taking the share its
process leaves.

A *lane* is one process's share of a frame's work. Lane 0 is the calling
process; lanes 1 to n-1 are children forked for the frame, which exit when
it ends. The arrays every lane reads (``run``'s layout) live in one
anonymous shared ``mmap``, and the lanes keep in step through one-byte pipe
barriers: each child writes a byte to lane 0 and waits for one back, and
lane 0 answers once every child has written. So only lane 0 ever waits on
a child, and a child that dies shows there as an end of file.

Forked processes, not threads: a child's memory allocator and any spans a
tracer records in it stay in the child and end with it.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import signal
from typing import Callable

import numpy as np


@functools.cache
def _blas_thread_count_reader():
    """numpy's bundled OpenBLAS's thread-count function, or None where numpy
    is built against another BLAS."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    return get


def _blas_threads() -> int:
    """The thread count of numpy's bundled OpenBLAS, or 0 where it cannot be
    read (numpy built against another BLAS)."""
    get = _blas_thread_count_reader()
    return 0 if get is None else get()


def cpu_share() -> int:
    """How many groups of BLAS threads this process's CPUs hold: the
    processes that can run GEMMs side by side without sharing a CPU. 1 where
    ``os.fork``, ``os.sched_getaffinity`` or the BLAS thread count is
    missing, and wherever the BLAS threads already fill the CPUs."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threads = _blas_threads()
    if threads < 1:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // threads)


@functools.cache
def _prctl():
    """The C library's ``prctl``, or None where it has none (not Linux)."""
    try:
        return ctypes.CDLL(None).prctl
    except (AttributeError, OSError):
        return None


_PR_SET_PDEATHSIG = 1


def fork(life: Callable[[], object]) -> int:
    """Fork a child that runs ``life()`` and then exits, however that ends,
    without flushing this process's buffers or running its exit handlers;
    return the child's pid. Where ``prctl`` exists the child is killed when
    this process ends, so a child's own children (a frame's lanes in a
    ``detect --batch`` child) end with it, not at their next barrier."""
    prctl, parent = _prctl(), os.getpid()
    pid = os.fork()
    if pid == 0:
        try:
            if prctl is not None:
                prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL))
            if os.getppid() == parent:  # else the parent ended before prctl
                life()
        finally:
            os._exit(0)
    return pid


def reap(pids) -> None:
    """Kill and wait for each child of ``pids``, whether or not it has ended."""
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


class Lane:
    """The whole of a frame's work in one process: lane 0 of 1. Every part is
    the whole, arrays are private and fresh, and barriers do nothing."""

    index = 0
    count = 1
    rows = None  # the token rows the lanes split; None: the caller's whole input

    def part(self, n: int) -> slice:
        """This lane's contiguous share of ``n`` items: the first ``n % count``
        lanes take one more than the rest."""
        size, extra = divmod(n, self.count)
        start = self.index * size + min(self.index, extra)
        return slice(start, start + size + (self.index < extra))

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The array ``name`` that every lane reads, of ``shape``."""
        return np.empty(shape, dtype)

    def barrier(self) -> None:
        """Wait until every lane has reached this point."""

    def span(self, lo, hi):
        """The smallest ``lo`` and largest ``hi`` over every lane (NaN once any
        lane's is), after a barrier."""
        return lo, hi


SERIAL = Lane()


class _Forked(Lane):
    """Lane ``index`` of ``count`` forked lanes: ``ups`` and ``downs`` are lane
    0's pipe ends to each child, or a child's one pair to lane 0."""

    def __init__(self, index, count, rows, arrays, spans, ups, downs):
        self.index, self.count, self.rows = index, count, rows
        self._arrays, self._spans = arrays, spans
        self._ups, self._downs = ups, downs

    def array(self, name, shape, dtype=np.float64):
        flat = self._arrays[name]
        size = int(np.prod(shape))
        if flat.dtype != dtype or size > flat.size:
            raise ValueError(f"shared array {name} holds no {np.dtype(dtype)} array of {shape}")
        return flat[:size].reshape(shape)

    def barrier(self):
        try:
            if self.index == 0:
                for j, fd in enumerate(self._ups, 1):
                    if not os.read(fd, 1):
                        raise ChildProcessError(f"detector lane {j} ended early")
                for fd in self._downs:
                    os.write(fd, b"\0")
            else:
                os.write(self._ups[0], b"\0")
                if not os.read(self._downs[0], 1):
                    raise ChildProcessError("detector lane 0 ended early")
        except BrokenPipeError:
            raise ChildProcessError("a detector lane ended early") from None

    def span(self, lo, hi):
        self._spans[self.index] = lo, hi
        self.barrier()
        return self._spans[:, 0].min(), self._spans[:, 1].max()


def run(count: int, rows: int, layout: dict, body: Callable[[Lane], object]):
    """``body(lane)`` in ``count`` lanes; lane 0's result.

    With ``count`` below 2 nothing forks: ``body`` gets ``SERIAL``. Otherwise
    this process is lane 0 and ``count - 1`` forked children are the others;
    ``rows`` is the token count they split and ``layout`` maps each shared
    array's name to its largest (shape, dtype). Every child is killed and
    reaped before this returns or raises, however it ends; one that ends
    early raises ``ChildProcessError`` here at the next barrier. ``body``
    must reach the same barriers in every lane, and a lane must write no
    shared element that another lane reads before the next barrier."""
    if count < 2:
        return body(SERIAL)
    regions, size = {}, 0
    for name, (shape, dtype) in {**layout, "spans": ((count, 2), np.float64)}.items():
        dtype = np.dtype(dtype)
        regions[name] = (size, int(np.prod(shape)), dtype)
        size += -(-int(np.prod(shape)) * dtype.itemsize // 64) * 64  # keep each 64-byte aligned
    shared = mmap.mmap(-1, size)
    arrays = {name: np.frombuffer(shared, dt, n, offset) for name, (offset, n, dt) in regions.items()}
    spans = arrays.pop("spans").reshape(count, 2)
    opened, pids = [], []  # the pipe ends this process holds; the children
    try:
        pipes = []  # child j's (up_r, up_w, down_r, down_w) at index j - 1
        for _ in range(1, count):
            for _pipe in range(2):
                opened += os.pipe()
            pipes.append(tuple(opened[-4:]))
        for j, (_, up_w, down_r, _) in enumerate(pipes, 1):

            def child(j=j, up_w=up_w, down_r=down_r):
                for fd in opened:
                    if fd not in (up_w, down_r):
                        os.close(fd)
                body(_Forked(j, count, rows, arrays, spans, [up_w], [down_r]))

            pids.append(fork(child))
        for _, up_w, down_r, _ in pipes:  # the children's ends
            for fd in (up_w, down_r):
                opened.remove(fd)
                os.close(fd)
        ups, downs = [p[0] for p in pipes], [p[3] for p in pipes]
        return body(_Forked(0, count, rows, arrays, spans, ups, downs))
    finally:
        for fd in opened:
            os.close(fd)
        reap(pids)

"""How many processes this process's CPUs hold, and the lanes that split one
detector frame across them.

``cpu_share`` is the one rule for both uses: ``detect --batch`` runs that
many frames side by side (``cli._processes``), and one frame runs in that
many lanes (``vital.detect``), each frame of a batch taking the share its
process leaves. Both fork their processes through ``children`` alone.

A *lane* is one process's share of a frame's work. Lane 0 is the calling
process; lanes 1 to n-1 are forked children. The arrays every lane reads
(``run``'s layout and a copy of the frame's inputs) live in one anonymous
shared ``mmap``, and the lanes keep in step through one-byte barriers over
each child's link: each child writes a byte to lane 0 and waits for one
back, and lane 0 answers once every child has written. So only lane 0 ever
waits on a child, and a child that dies shows there as an end of file or a
reset link. A frame starts when lane 0 has copied its inputs in and written
each child a go byte.

The children of a ``run`` stand between frames: a later frame with the
same key starts on them, with no fork. They are released (killed and
reaped) when a frame raises, when a frame with another key starts, before
``children`` forks anything else, by ``release`` and at exit. No lane is
forked for one frame alone: ``vital.detect`` runs a weight tree outside
its shared mapping in one lane.

Forked processes, not threads: a child's memory allocator and any spans a
tracer records in it stay in the child and end with it.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import mmap
import os
import signal
from typing import Callable, NamedTuple

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


class _Mapping(mmap.mmap):
    """An anonymous shared mapping that ``shared`` carves arrays out of."""


def shared(specs) -> list:
    """One zeroed array per (shape, dtype) of ``specs``, in order, each
    64-byte aligned in one anonymous shared mapping. A process forked later
    reads and writes the same memory, where it would get a private copy of
    heap memory."""
    specs = [(shape, np.dtype(dtype)) for shape, dtype in specs]
    sizes = [int(np.prod(shape)) * dtype.itemsize for shape, dtype in specs]
    offsets = np.cumsum([0] + [-(-n // 64) * 64 for n in sizes])
    pool = np.frombuffer(_Mapping(-1, max(int(offsets[-1]), 1)), np.uint8)
    return [pool[o:o + n].view(dtype).reshape(shape)
            for o, n, (shape, dtype) in zip(offsets, sizes, specs)]


def mapping(arrays):
    """The mapping one ``shared`` call carved every one of ``arrays`` out of,
    or None where some array lies outside it."""
    pool = arrays[0].base if arrays else None
    if pool is None or any(a.base is not pool for a in arrays):
        return None
    owner = getattr(pool.base, "obj", None)
    return owner if isinstance(owner, _Mapping) else None


@contextlib.contextmanager
def children(count: int, life: Callable[[int, int], object]):
    """Fork children 1 to ``count - 1``, each linked to this process by one
    socket pair, and yield this process's ends of their links and their
    pids, child j's at index j - 1. Standing lanes (``run``) are released
    first, so no child inherits them. Child j closes every one of those ends
    it inherited, runs ``life(j, fd)`` with ``fd`` its own end, releases any
    lanes of its own, and then exits, however that ends, without flushing
    this process's buffers or running its exit handlers. When the block
    exits, however it exits, this process closes its ends and kills and
    reaps every child; a process forked from it since closes its copies of
    the ends only.

    Forking is safe because the CLI starts no thread; OpenBLAS shuts its own
    pool down around a fork. Where ``prctl`` exists each child is killed
    when the thread that forked it ends, so a child's own children (a
    frame's lanes in a ``detect --batch`` child) end with it, not at their
    next read."""
    import socket  # here, so that a process that never forks does not load it

    release()
    prctl, parent = _prctl(), os.getpid()
    links, pids = [], []  # child j's link end and pid at index j - 1
    try:
        for j in range(1, count):
            ours, theirs = socket.socketpair()
            with theirs:
                links.append(ours.detach())
                pid = os.fork()
                if pid == 0:
                    try:
                        for fd in links:
                            os.close(fd)
                        if prctl is not None:
                            prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL))
                        if os.getppid() == parent:  # else the parent ended before prctl
                            life(j, theirs.fileno())
                    finally:
                        try:
                            release()
                        finally:
                            os._exit(0)
                pids.append(pid)
        yield links, pids
    finally:
        for fd in links:
            os.close(fd)
        if os.getpid() == parent:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _await(fd: int, lane: int) -> None:
    try:
        if os.read(fd, 1):
            return
    except ConnectionResetError:  # it ended with a byte of ours unread
        pass
    raise ChildProcessError(f"detector lane {lane} ended early")


def _send(links) -> None:
    """One byte into each of ``links``."""
    try:
        for fd in links:
            os.write(fd, b"\0")
    except BrokenPipeError:
        raise ChildProcessError("a detector lane ended early") from None


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


SERIAL = Lane()


class _Forked(Lane):
    """Lane ``index`` of ``count`` forked lanes: ``links`` are lane 0's ends of
    each child's link, or a child's one end of its link to lane 0."""

    def __init__(self, index, count, rows, arrays, links):
        self.index, self.count, self.rows = index, count, rows
        self._arrays, self._links = arrays, links

    def array(self, name, shape, dtype=np.float64):
        flat = self._arrays[name]
        size = int(np.prod(shape))
        if flat.dtype != dtype or size > flat.size:
            raise ValueError(f"shared array {name} holds no {np.dtype(dtype)} array of {shape}")
        return flat[:size].reshape(shape)

    def barrier(self):
        if self.index == 0:
            for j, fd in enumerate(self._links, 1):
                _await(fd, j)
            _send(self._links)
        else:
            _send(self._links)
            _await(self._links[0], 0)


# Lanes forked by process ``owner`` for ``key``: lane 0, the shared copies of
# the inputs, the children's pids, and ``close``, which kills and reaps them.
_Standing = NamedTuple("_Standing", [("key", tuple), ("lane", _Forked), ("inputs", list),
                                     ("pids", list), ("close", Callable), ("owner", int)])


_standing = None  # this process's standing lanes, or None


def release() -> None:
    """Kill and reap this process's standing lanes, if there are any."""
    global _standing
    standing, _standing = _standing, None
    if standing is not None:
        standing.close()


atexit.register(release)


def standing() -> tuple:
    """The pids of this process's standing lanes, not its parent's."""
    if _standing is None or _standing.owner != os.getpid():
        return ()
    return tuple(_standing.pids)


def _stand(count, rows, layout, body, inputs, key) -> None:
    """Fork lanes 1 to ``count - 1`` of ``body`` and make them this process's
    standing lanes. Each waits for a go byte, runs a frame, and waits again."""
    global _standing
    carved = shared([((int(np.prod(shape)),), dtype) for shape, dtype in layout.values()]
                    + [(a.shape, a.dtype) for a in inputs])
    arrays, copies = dict(zip(layout, carved)), carved[len(layout):]

    def life(j, fd):
        lane = _Forked(j, count, rows, arrays, [fd])
        while os.read(fd, 1):  # a go byte: lane 0 has copied the frame's inputs in
            body(lane, *copies)

    stack = contextlib.ExitStack()
    links, pids = stack.enter_context(children(count, life))
    lane = _Forked(0, count, rows, arrays, links)
    _standing = _Standing(key, lane, copies, pids, stack.close, os.getpid())


def run(count: int, rows: int, layout: dict, body: Callable[..., object], inputs=(), *, key):
    """``body(lane, *inputs)`` in ``count`` lanes; lane 0's result.

    With ``count`` below 2 nothing forks: ``body`` gets ``SERIAL`` and the
    ``inputs`` themselves, and standing lanes stand on. Otherwise this
    process is lane 0 and ``count - 1`` forked children are the others;
    ``rows`` is the token count they split and ``layout`` maps each shared
    array's name to its largest (shape, dtype). Every lane gets the same
    shared copies of ``inputs``, which lane 0 fills before it starts the
    frame.

    The children stand: the next frame this process runs with an equal
    ``key``, lane count, ``rows``, layout and input shapes starts on them
    without a fork, and they run the ``body`` they were forked with. So the
    key must differ wherever that body could compute something else. Where
    ``prctl`` exists a lane dies with the thread that forked it
    (``children``), so standing lanes serve that thread.

    A child that ends early raises ``ChildProcessError`` here at the next
    barrier. ``body`` must reach the same barriers in every lane, and a lane
    must write no shared element that another lane reads before the next
    barrier. After its last barrier a lane may still be reading when lane 0
    starts the next frame, so there it may read only arrays that no lane
    writes before a frame's first barrier, and not the inputs."""
    if count < 2:
        return body(SERIAL, *inputs)
    key = (count, rows, layout, [(a.shape, a.dtype) for a in inputs], key)
    if not standing() or _standing.key != key:
        _stand(count, rows, layout, body, inputs, key)
    lane, copies = _standing.lane, _standing.inputs
    try:
        for copy, a in zip(copies, inputs):
            copy[...] = a
        _send(lane._links)  # the frame starts
        return body(lane, *copies)
    except BaseException:
        release()
        raise

"""A forked helper process that computes one result and then draws a random
stream ahead of its caller.

A wscm region (`algorithms.sweep_region`) solves its secrecy covariance in
one and takes its randomization normals from it, so that the region runs on
two CPUs. Only that branch imports this module: the benchmark's processes
compile the package from source, and code compiled but never run still adds
to their peak resident set.
"""
from __future__ import annotations

import math
import mmap
import os
import pickle
import signal

import numpy as np

_RING_SLOTS = 4           # normal blocks the helper process may draw ahead


class Helper:
    """The result of `solve()` and the normal blocks of rng, each of `shape`.

    With `fork` (and memfd support), a forked helper process calls `solve`
    while the caller goes on, and sends the result, or its exception, up a
    pipe. It then draws the first `blocks` normal blocks of rng in stream
    order into a ring of `_RING_SLOTS` slots and exits; a slot is reused
    only after the caller released it. The ring is an anonymous
    shared-memory file: the helper maps it and the caller reads it with
    preadv, so it adds nothing to the caller's resident set. The helper also
    exits when the caller's pipe end closes, and `close` kills and reaps it.
    Without `fork` both run here, on rng. Either way `standard_normal(out)`
    fills out with the next block of rng's stream, so `sdp._grp_draw` draws
    the same bits from this object as from rng.
    """

    def __init__(self, solve, rng: np.random.Generator, shape: tuple, blocks: int, fork: bool):
        self._solve, self._rng, self._blocks, self._pid, self._taken = solve, rng, blocks, None, 0
        if not fork or not hasattr(os, "memfd_create"):
            return
        self._ring = os.memfd_create("normals-ring")
        os.ftruncate(self._ring, _RING_SLOTS * math.prod(shape) * 8)
        (up_r, up_w), (down_r, down_w) = os.pipe(), os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            try:
                os.close(up_r)
                os.close(down_w)
                ring = np.frombuffer(mmap.mmap(self._ring, 0)).reshape(_RING_SLOTS, *shape)
                self._serve(ring, os.fdopen(up_w, "wb"), os.fdopen(down_r, "rb"))
            finally:
                os._exit(0)
        os.close(up_w)
        os.close(down_r)
        self._up, self._down = os.fdopen(up_r, "rb"), down_w

    def _serve(self, ring: np.ndarray, up, down) -> None:
        """The helper process: the result, then one byte up per block drawn."""
        try:
            result = self._solve()
        except Exception as exc:
            result = exc
        pickle.dump(result, up)
        up.flush()
        for k in range(self._blocks):
            if k >= _RING_SLOTS and not down.read(1):     # slot k's release, or the end
                return
            self._rng.standard_normal(out=ring[k % _RING_SLOTS])
            up.write(b"\0")
            up.flush()

    def result(self):
        """solve()'s result, or its exception raised here."""
        if self._pid is None:
            return self._solve()
        result = pickle.load(self._up)              # EOFError if the helper died first
        if isinstance(result, Exception):
            raise result
        return result

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        if self._pid is None:
            return self._rng.standard_normal(out=out)
        if not self._up.read(1):
            raise EOFError("the helper process ended early")
        os.preadv(self._ring, [out], self._taken % _RING_SLOTS * out.nbytes)
        if self._taken < self._blocks - _RING_SLOTS:      # the helper waits for this slot
            os.write(self._down, b"\0")
        self._taken += 1
        return out

    def close(self) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._up.close()
            os.close(self._down)
            os.close(self._ring)

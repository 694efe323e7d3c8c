"""Pause Python's cyclic collector while a world is built.

A build allocates a container for every node, process, timer and stream,
and keeps almost all of them.  With the collector on, every 700 net new
containers trigger a collection that frees nothing, and the older-generation
ones among them walk the whole world built so far: at 100,000 nodes most of
a build's time was collector time.  :class:`collector_paused` turns the
collector off for a ``with`` block and puts back exactly the state it found,
so construction paths nest, and a caller that already turned the collector
off keeps it off.

A pause delays garbage collection and never skips it: the first allocation
after the block triggers one young scan over everything the block
allocated.  No result depends on when the collector runs.
"""

from __future__ import annotations

import gc

__all__ = ["collector_paused"]


class collector_paused:
    """Context manager: turn the cyclic collector off, then restore its state.

    On exit, clean or by an exception, the collector is re-enabled only if
    it was enabled on entry.  ``__exit__`` allocates nothing after
    re-enabling it, so the young scan the block leaves runs at the caller's
    next allocation, not inside the block's frame.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._was_enabled:
            gc.enable()

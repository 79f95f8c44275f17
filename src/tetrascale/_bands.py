"""Row bands, and the threads that run them: the one place where
``resize`` and SSIM scoring get their band geometry and thread count.

``rows`` cuts a job of ``height`` rows of ``width`` pixels into the fewest
bands of at most ``step = min(height, max(minimum, pixels // width))``
rows, ceil(height / step) of them, whose heights differ by at most one
row. ``run`` cuts the bands into W = max(1, min(``_WORKERS``,
``_THREADS``, bands // 2)) contiguous chunks: at most one thread per
usable CPU, at most ``_THREADS`` whatever the CPU count, and at most one
per two bands. It calls ``buffers(rows)``, with the largest band's row
count, in the calling thread once per chunk, before any chunk starts,
because glibc serves every other thread from an arena of its own, which
keeps its memory once the thread ends, and a helper started while the
last one is still exiting gets a new arena. A job's working memory is
therefore at most W sets of those buffers on any machine. ``run`` runs the
first chunk in the calling thread and each other chunk in a helper thread
that it starts and joins before it returns, so no thread outlives the
call. The bands' numpy and scipy calls release the interpreter lock, so the
chunks run in parallel. A caller keeps the result independent of W by
giving each band its own rows of the output and only reading what the
bands share.
"""

from __future__ import annotations

import os
import threading

#: Usable CPUs: those this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Most threads that run one job's bands. Each holds one band's buffers and
#: working set, so a cap that does not depend on the CPU count keeps a
#: resize's or a score's working memory within a constant of its output on
#: any machine (README "Memory" and "Metrics").
_THREADS = 2


def rows(height: int, width: int, pixels: int, minimum: int) -> list[range]:
    """Row bands that cover ``range(height)`` in order: the fewest of at
    most ``min(height, max(minimum, pixels // width))`` rows, which is about
    ``pixels`` pixels of ``width`` but at least ``minimum`` rows, with
    heights that differ by at most one row."""
    n = -(-height // min(height, max(minimum, pixels // width)))
    return [range(height * i // n, height * (i + 1) // n) for i in range(n)]


def run(work, bands: list, buffers) -> None:
    """Call ``work(chunk, *buffers(rows))`` for each of the W chunks of
    ``bands``, with ``rows`` the largest band's row count: the first in
    this thread, each other in a helper thread started here, once
    ``buffers(rows)`` has been called here for every chunk.

    Returns once every helper has been joined, then raises the first error:
    this thread's, else the first a helper recorded.
    """
    n = len(bands)
    threads = max(1, min(_WORKERS, _THREADS, n // 2))
    rows = max(map(len, bands))
    chunks = [(bands[n * i // threads : n * (i + 1) // threads], *buffers(rows)) for i in range(threads)]
    errors = []

    def help_with(args):
        try:
            work(*args)
        except BaseException as error:
            errors.append(error)

    helpers = []
    try:
        for args in chunks[1:]:
            helper = threading.Thread(target=help_with, args=(args,), name="tetrascale-band")
            helper.start()
            helpers.append(helper)
        work(*chunks[0])
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]

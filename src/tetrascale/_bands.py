"""Runs a job's bands on every usable CPU: one runner for ``resize`` and for
SSIM scoring.

``split`` cuts a list of bands into contiguous chunks, one per thread that
runs them: up to ``_WORKERS``, one per CPU this process may run on, or
fewer where the caller caps them, but at most one per two bands. ``run`` runs the first chunk in the calling thread
and each other chunk in a helper thread that it starts and joins before it
returns, so no thread outlives the call. The bands' numpy and scipy calls
release the interpreter lock, so the chunks run in parallel. A caller keeps
the result independent of the thread count by giving each band its own
rows of the output and only reading what the bands share.
"""

from __future__ import annotations

import os
import threading

#: Most threads that run one job's bands: one per CPU this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def split(bands: list, most: int | None = None) -> list[list]:
    """``bands`` in contiguous chunks, one per thread that runs them: up to
    ``_WORKERS``, and up to ``most`` when given, but at most one per two
    bands, so that the buffers each thread holds stay a small share of a
    short job's."""
    threads = min(_WORKERS, len(bands) // 2)
    if most is not None:
        threads = min(threads, most)
    threads = max(1, threads)
    n = len(bands)
    return [bands[n * i // threads : n * (i + 1) // threads] for i in range(threads)]


def run(work, chunks) -> None:
    """Call ``work(*args)`` for each ``args`` in ``chunks``: the first in
    this thread, each other in a helper thread started here.

    Returns once every helper has been joined, then raises the first error:
    this thread's, else the first a helper recorded.
    """
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

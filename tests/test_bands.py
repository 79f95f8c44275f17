"""The one band-and-thread rule that ``resize`` and SSIM scoring share."""

import ast
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import tetrascale
from tetrascale import _bands


@settings(max_examples=300, deadline=None)
@given(
    height=st.integers(1, 3000),
    width=st.integers(1, 1 << 17),
    pixels=st.one_of(st.integers(0, 1 << 17), st.sampled_from((1 << 15, 1 << 16))),
    minimum=st.integers(1, 100),
)
def test_rows_cover_every_row_once_in_order(height, width, pixels, minimum):
    """The bands cover ``range(height)`` once, in order: ceil(height /
    step) of them, with step = ``min(height, max(minimum, pixels //
    width))``, each at most ``step`` rows high, and their heights differ by
    at most one row."""
    bands = _bands.rows(height, width, pixels, minimum)
    assert [row for band in bands for row in band] == list(range(height))
    assert all(band.step == 1 for band in bands)
    step = min(height, max(minimum, pixels // width))
    assert len(bands) == -(-height // step)
    heights = [len(band) for band in bands]
    assert 0 < min(heights) and max(heights) <= step
    assert max(heights) - min(heights) <= 1


def test_run_sizes_every_chunk_for_the_largest_band(monkeypatch):
    """``run`` calls ``buffers`` once per chunk, in the calling thread and
    before any chunk starts, with the row count of the largest band, and
    hands each chunk its own buffers: 7 bands of 2 and 3 rows, the first
    of 2, run in two chunks with two buffers of 3 rows."""
    bands = _bands.rows(19, 1, 3, 1)
    assert [len(band) for band in bands] == [2, 3, 3, 2, 3, 3, 3]
    calls, started, worked = [], [], []

    def buffers(rows):
        calls.append((rows, threading.current_thread(), len(started)))
        return (object(),)

    def work(chunk, buffer):
        started.append(threading.current_thread())
        worked.append((list(chunk), buffer))

    monkeypatch.setattr(_bands, "_WORKERS", 2)
    _bands.run(work, bands, buffers)
    assert calls == [(3, threading.current_thread(), 0)] * 2
    assert sorted(chunk[0].start for chunk, _ in worked) == [0, 8]
    assert sorted(len(chunk) for chunk, _ in worked) == [3, 4]
    assert len({id(buffer) for _, buffer in worked}) == 2
    assert threading.current_thread() in started and len(set(started)) == 2


#: What only ``_bands`` may hold: the thread machinery and the CPU count.
_THREAD_MODULES = {"threading", "_thread"}
_CPU_CALLS = {"sched_getaffinity", "cpu_count"}
_POLICY_NAMES = {"_WORKERS", "_THREADS"}


def test_thread_policy_is_in_bands_alone():
    """No module of the package but ``_bands.py`` imports ``threading``,
    asks for the CPU count or refers to ``_WORKERS`` or ``_THREADS``, so
    resizing and scoring cannot pick their own threads."""
    package = Path(tetrascale.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_bands.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]}
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            found += [
                (path.name, node.lineno, name)
                for name in names & (_THREAD_MODULES | _CPU_CALLS | _POLICY_NAMES)
            ]
    assert found == []

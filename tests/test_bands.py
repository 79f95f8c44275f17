"""The one band-and-thread rule that ``resize`` and SSIM scoring share."""

import ast
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
    """The bands cover ``range(height)`` once, in order, each
    ``min(height, max(minimum, pixels // width))`` rows high except a
    shorter last one."""
    bands = _bands.rows(height, width, pixels, minimum)
    assert [row for band in bands for row in band] == list(range(height))
    step = min(height, max(minimum, pixels // width))
    assert all(len(band) == step for band in bands[:-1])
    assert 0 < len(bands[-1]) <= step


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

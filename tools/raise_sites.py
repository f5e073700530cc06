"""A pytest plugin that lists every ``raise`` in ``src/evpose`` no test ran.

It is opt-in and lives outside ``tests/``, so a plain ``pytest`` run never
loads it. Run it from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -m "not slow" -p raise_sites

From configuration on, ``sys.settrace`` records each line of ``src/evpose``
that runs in the pytest process. At the end of the session the plugin walks
each module's ``ast`` and prints, under "raise sites no test reached", each
``raise`` statement whose first line never ran, as ``path:line``, or
"none". Code that only a subprocess runs is not traced, so it is listed:
``__main__.py``'s ``raise SystemExit``, which ``tests/test_cli.py`` runs as
``python -m evpose --help``, always is. A line event cannot tell a
``raise`` from another statement on its line; no ``raise`` in
``src/evpose`` shares one.

The tracer allocates as it records, so tests with a tracemalloc gate tight
enough to see it fail under it: the plugin deselects them (``_DESELECT``).
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "evpose"
_PREFIX = str(SRC) + "/"
_DESELECT = ("test_parsing_poses_holds_the_rows_and_two_pieces",)
_executed: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    if event == "call":
        return _trace if frame.f_code.co_filename.startswith(_PREFIX) else None
    if event == "line":
        _executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def unreached_raises(executed):
    """``(path, line)`` of each ``raise`` in ``src/evpose`` whose line is not in ``executed``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)})
        found += [(path, line) for line in lines if (str(path), line) not in executed]
    return found


def pytest_configure(config):
    threading.settrace(_trace)
    sys.settrace(_trace)


def pytest_collection_modifyitems(config, items):
    deselected = [item for item in items if item.name.split("[")[0] in _DESELECT]
    if deselected:
        items[:] = [item for item in items if item not in deselected]
        config.hook.pytest_deselected(items=deselected)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    pytest_unconfigure(terminalreporter.config)
    unreached = unreached_raises(_executed)
    terminalreporter.section("raise sites no test reached")
    root = SRC.parents[1]
    for path, line in unreached:
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}")
    if not unreached:
        terminalreporter.write_line("none")

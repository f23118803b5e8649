"""Live-tier tests fail on a leaked resource, such as a WAL handle left
open.

Every test under this directory runs with ``ResourceWarning`` as an
error.  A file left open warns when it is garbage-collected, where an
exception cannot propagate; pytest reports that as a
``PytestUnraisableExceptionWarning``, so that is an error here too.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent

LEAKS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    ),
)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if HERE in item.path.parents:
            for mark in LEAKS:
                item.add_marker(mark)

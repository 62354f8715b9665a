"""Every test under this directory treats a warning as an error: a file
left open, a numpy overflow or a deprecation fails the test that caused it.
The one exception is a deprecation the hypothesis plugin itself raises.
The setting is scoped here rather than in pyproject.toml, which the
benchmark's own tests under perfbench/ read too."""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
# raised inside the hypothesis plugin while it reports a failing @given
# test; as an error it hides that failure's name and stops the session
HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING))

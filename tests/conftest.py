import os
import sys

import pytest
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from bmwfusion import build_context, make_params  # noqa: E402
from closure_plan import SearchContext  # noqa: E402

Q = Fraction(6, 5)
NU = Fraction(7, 3)

_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def params4():
    return make_params(Q, NU, 4)


@pytest.fixture(scope="session")
def ctx2():
    return build_context(2, q=Q, nu=NU)


@pytest.fixture(scope="session")
def ctx3():
    return build_context(3, q=Q, nu=NU)


@pytest.fixture(scope="session")
def ctx4():
    return build_context(4, q=Q, nu=NU)


@pytest.fixture(scope="session")
def ctx5(tmp_path_factory):
    """The n = 5 context, built cold once for the whole session; it writes
    its cache file into a fresh directory."""
    cache = tmp_path_factory.mktemp("cache5")
    return build_context(5, q=Q, nu=NU, cache_dir=str(cache))


@pytest.fixture(scope="session")
def ctx5_search(tmp_path_factory):
    """The n = 5 context built cold by the plan regenerator's closure
    search.  It writes its cache file into a fresh directory."""
    cache = tmp_path_factory.mktemp("cache5-search")
    return SearchContext(5, make_params(Q, NU, 5), cache_dir=str(cache))


def closure_rows(ctx):
    """The row of w l for every basis word w and letter l, as the build
    filled it, series windows included."""
    return [repr((den, sorted(row)))
            for l in ctx.letters for den, row in ctx._rows[l]]


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

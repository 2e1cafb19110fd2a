import os
import sys

import pytest
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from bmwfusion import AlgebraContext, build_context, make_params  # noqa: E402
from bmwfusion.bmwcore import (T_KIND, letter_index,  # noqa: E402
                               letter_kind)
from bmwfusion.brauer import (diagram_mul, e_diagram,  # noqa: E402
                              identity_diagram, s_diagram)
from closure_plan import SearchContext  # noqa: E402

Q = Fraction(6, 5)
NU = Fraction(7, 3)

_ACCEPTANCE_LINES = []

# what a cold build rewrites with, and drops when its rows are filled
REWRITING_STATE = ("_memo", "_dyn", "_canonical", "_rules")


class KeepsRules:
    """Mixed into a context class, it keeps the rewriting state of the
    cold build, which the library drops, so tests can compare the rows
    with the rules.  A cache hit has no rules, so without a cache_dir it
    reads no cache file, $BMWF_CACHE included."""

    def __init__(self, n, params, cache_dir="", verify=True):
        super().__init__(n, params, cache_dir=cache_dir, verify=verify)

    def _drop_rules(self):
        pass

    def rules_reduce(self, word):
        """{canonical word: coefficient} of word through the rules: a
        Fraction each in a rational context, the series in a Laurent one."""
        den, nums = self._reduce(tuple(word))
        if not self.rational:
            return nums
        return {w: Fraction(x, den) for w, x in nums.items()}


class RulesContext(KeepsRules, AlgebraContext):
    """An AlgebraContext closed by the replay, keeping its rules."""


class SearchRulesContext(KeepsRules, SearchContext):
    """A SearchContext closed by the search, keeping its rules."""


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
def ctx5_rules():
    """The n = 5 context built cold by the replay, keeping its rules."""
    return RulesContext(5, make_params(Q, NU, 5))


@pytest.fixture(scope="session")
def ctx5_search(tmp_path_factory):
    """The n = 5 context built cold by the plan regenerator's closure
    search, keeping its rules.  It writes its cache file into a fresh
    directory."""
    cache = tmp_path_factory.mktemp("cache5-search")
    return SearchRulesContext(5, make_params(Q, NU, 5), cache_dir=str(cache))


def closure_rows(ctx):
    """The row of w l for every basis word w and letter l, as the build
    filled it, series windows included."""
    return [repr((den, sorted(row)))
            for l in ctx.letters for den, row in ctx._rows[l]]


def word_diagram(n, word):
    """(diagram, loops) of a word under T_i -> s_i, K_i -> e_i: the
    ``diagram_mul`` chain over its letters from the identity, a reference
    that reads no Brauer row table."""
    d, loops = identity_diagram(n), 0
    for l in word:
        g = (s_diagram if letter_kind(l) == T_KIND else e_diagram)(
            n, letter_index(l))
        d, k = diagram_mul(n, d, g)
        loops += k
    return d, loops


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

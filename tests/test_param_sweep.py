"""The idempotent system away from the default pair (6/5, 7/3).

The sweep covers the cases of the genericity checklist that the default
pair does not: q < 1, negative q and nu < 1.  Each pair passes
``make_params`` up to n = 4.
"""

from fractions import Fraction as Fr

import pytest

from bmwfusion import (build_context, complete_system_checks,
                       enumerate_tableaux, fusion_idempotent,
                       jm_oracle_idempotent, make_params, verify_idempotent)
from conftest import RulesContext, SearchRulesContext, closure_rows

SWEEP = [(Fr(5, 6), Fr(7, 3)), (Fr(-6, 5), Fr(7, 3)),
         (Fr(6, 5), Fr(3, 7)), (Fr(-5, 6), Fr(3, 7))]


def _ids(pair):
    return "q=%s,nu=%s" % pair


@pytest.mark.parametrize("q, nu", SWEEP, ids=[_ids(p) for p in SWEEP])
@pytest.mark.parametrize("n", [2, 3])
def test_fusion_equals_jm_complete_system(n, q, nu):
    ctx = build_context(n, q=q, nu=nu)
    idems = []
    for tab in enumerate_tableaux(n):
        fi = fusion_idempotent(tab, ctx)
        ji = jm_oracle_idempotent(tab, ctx)
        assert (fi.element - ji.element).is_zero(), tab.encode()
        assert all(verify_idempotent(fi, ctx).values()), tab.encode()
        idems.append(fi)
    assert complete_system_checks(idems, ctx) == {"orthogonal": True,
                                                  "complete": True}


def test_jm_complete_system_n4_second_pair():
    ctx = build_context(4, q=Fr(-5, 6), nu=Fr(3, 7))
    idems = [jm_oracle_idempotent(t, ctx) for t in enumerate_tableaux(4)]
    for idem in idems:
        assert all(verify_idempotent(idem, ctx).values()), \
            idem.tableau.encode()
    assert complete_system_checks(idems, ctx) == {"orthogonal": True,
                                                  "complete": True}


def test_jm_complete_system_n5_second_pair():
    # the certificate proves the system and sets every flag; no
    # verify_idempotent runs
    ctx = build_context(5, q=Fr(-5, 6), nu=Fr(3, 7))
    idems = [jm_oracle_idempotent(t, ctx) for t in enumerate_tableaux(5)]
    assert len(idems) == 81
    assert complete_system_checks(idems, ctx) == {"orthogonal": True,
                                                  "complete": True}
    for idem in idems:
        assert idem.verified == {"idempotent": True, "jm_eigenvalues": True,
                                 "rho_symmetric": True}, idem.tableau.encode()


def test_n5_closure_words_second_pair(ctx5, monkeypatch):
    # the plan recorded at (6/5, 7/3) replays here to the search's rules
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    ctx = RulesContext(5, make_params(Fr(-5, 6), Fr(3, 7), 5))
    search = SearchRulesContext(5, make_params(Fr(-5, 6), Fr(3, 7), 5))
    assert ctx.stats["closure"] == "replay"
    assert search.stats["closure"] == "search"
    assert ctx._dyn == search._dyn
    assert ctx.words == search.words == ctx5.words
    assert closure_rows(ctx) == closure_rows(search)

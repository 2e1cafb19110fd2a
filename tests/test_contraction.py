import random
import time
from fractions import Fraction as Fr

import pytest

from bmwfusion import (BrauerAlgebra, DimensionMismatch, DomainMismatch,
                       NegativeValuation, NonInvertible, NotGeneric,
                       TruncLaurent,
                       brauer_idempotent_via_contraction, contraction,
                       contraction_block_check, enumerate_tableaux,
                       jm_oracle_idempotent, laurent_params, make_params,
                       structure_constant_oracle)
from bmwfusion.bmwcore import (T_KIND, AlgebraContext,
                               AlgebraElement, fold_products, letter)
from bmwfusion.brauer import diagram_mul
from bmwfusion.contraction import (_constant_rows, constant_term_element,
                                   default_truncation, spectral_series)
from conftest import (RulesContext, SearchRulesContext, closure_rows,
                      word_diagram)


def test_block_checks_worked_examples():
    # regime 1 at theta = (1, 2), omega = 5: s - e/3 and s + 1
    assert contraction_block_check(1, 1, 1, 2, 5) == \
        {"q_block": True, "t_block": True}
    # regime 2 at theta = (1, 3), omega = 5 (kappa = 3/2)
    assert contraction_block_check(2, 1, 1, 3, 5) == \
        {"q_block": True, "t_block": True}


def test_block_checks_random_triples():
    rnd = random.Random(11)
    done = 0
    while done < 10:
        th1 = Fr(rnd.randint(-6, 6), rnd.randint(1, 4))
        th2 = Fr(rnd.randint(-6, 6), rnd.randint(1, 4))
        om = Fr(rnd.randint(3, 9), rnd.choice((1, 2)))
        if th1 == th2 or th1 + th2 == 0:
            continue
        if th1 + th2 == om / 2 - 1 or th1 - th2 == om / 2 - 1:
            continue
        for regime in (1, 2):
            res = contraction_block_check(regime, 1, th1, th2, om)
            assert all(res.values()), (regime, th1, th2, om)
        done += 1


@pytest.mark.parametrize("regime,th1,th2", [
    (1, Fr(1, 3), Fr(-1, 3)),     # th1 + th2 = 0
    (2, Fr(1, 3), Fr(-1, 3)),
    (1, Fr(1, 3), Fr(1, 3)),      # th1 - th2 = 0
    (2, Fr(1, 3), Fr(1, 3)),
    (2, Fr(-1, 6), Fr(1, 3)),     # th1 + th2 = omega/2 - 1
    (2, Fr(11, 30), Fr(1, 5)),    # th1 - th2 = omega/2 - 1
])
def test_block_check_at_a_pole_of_a_limit(regime, th1, th2):
    # the limiting blocks divide by zero here, which was a ZeroDivisionError;
    # the series blocks raise first, a point the verify suite skips
    with pytest.raises(NonInvertible):
        contraction_block_check(regime, 1, th1, th2, Fr(7, 3))


def test_spectral_series_value():
    u = spectral_series(1, 1, 5, 4)
    assert u == TruncLaurent.exp_h(-2, 4)   # 2(1 - 2) = -2


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constant_oracle(n):
    params = laurent_params(1, 5, 4)
    ctx = AlgebraContext(n, params, verify=False)
    res = structure_constant_oracle(ctx, 5)
    assert res["ok"], res


def test_structure_constant_oracle_either_regime():
    ctx = AlgebraContext(3, laurent_params(2, 5, 4), verify=False)
    assert structure_constant_oracle(ctx, 5) == {"ok": True, "pairs": 225}


def test_structure_constant_oracle_rejects_rational_context(ctx2):
    with pytest.raises(DomainMismatch):
        structure_constant_oracle(ctx2, 5)


def test_structure_constant_oracle_rejects_other_omega():
    ctx = AlgebraContext(2, laurent_params(1, 5, 4), verify=False)
    with pytest.raises(DomainMismatch):
        structure_constant_oracle(ctx, 7)


def test_structure_constant_oracle_sees_a_corrupted_row():
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    l, i = ctx.letters[-1], len(ctx.words) - 1
    den, ((j, x), *rest) = ctx._rows[l][i]
    ctx._rows[l][i] = (den, ((j, x + ctx._one), *rest))
    res = structure_constant_oracle(ctx, 5)
    assert not res["ok"]
    assert res["reason"].startswith("structure constants differ")


def series_oracle(ctx, omega):
    """The oracle as it ran before it folded the h^0 rows: every product a
    full series fold, the constant terms read off afterwards."""
    omega = Fr(omega)
    n = ctx.n
    brauer = BrauerAlgebra(n, omega)
    diag_of = {w: word_diagram(n, w)[0] for w in ctx.words}
    rights = [{w: ctx._one} for w in ctx.words]
    checked = 0
    for w1 in ctx.words:
        prods = fold_products(ctx, {w1: ctx._one}, rights)
        for w2, p in zip(ctx.words, prods):
            got = constant_term_element(AlgebraElement(ctx, p), brauer)
            d, loops = diagram_mul(n, diag_of[w1], diag_of[w2])
            c = brauer.omega ** loops
            if got.terms != ({d: c} if c else {}):
                return {"ok": False,
                        "reason": "structure constants differ at (%r, %r)"
                        % (w1, w2)}
            checked += 1
    return {"ok": True, "pairs": checked}


@pytest.mark.parametrize("regime, omega", [(1, 5), (2, 5), (1, Fr(7, 2)),
                                           (2, Fr(7, 2))])
def test_oracle_h0_fold_matches_the_series_fold(regime, omega):
    for n in (2, 3, 4):
        ctx = AlgebraContext(n, laurent_params(regime, omega), verify=False)
        B = BrauerAlgebra(n, omega)
        assert list(ctx.words) == [B.spell(d) for d in B.words]
        assert _constant_rows(ctx) is not None
        got = structure_constant_oracle(ctx, omega)
        assert got == series_oracle(ctx, omega) == \
            {"ok": True, "pairs": len(ctx.words) ** 2}


def _add_to_row(ctx, x):
    """Add x to the first coefficient of the last row of the last letter,
    which the product of the last word by that letter reads."""
    l, i = ctx.letters[-1], len(ctx.words) - 1
    den, ((j, c), *rest) = ctx._rows[l][i]
    ctx._rows[l][i] = (den, ((j, c + x), *rest))


def test_oracle_with_a_pole_in_a_row_folds_the_series():
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    _add_to_row(ctx, TruncLaurent(-1, (Fr(1),), 4))
    assert _constant_rows(ctx) is None
    with pytest.raises(NegativeValuation):
        structure_constant_oracle(ctx, 5)


def test_oracle_ignores_a_row_corrupted_at_h1():
    # only the constant terms are compared, on either fold
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    _add_to_row(ctx, TruncLaurent(1, (Fr(1),), 4))
    assert _constant_rows(ctx) is not None
    assert structure_constant_oracle(ctx, 5) == series_oracle(ctx, 5) == \
        {"ok": True, "pairs": 225}


def test_oracle_calls_constant_term_element_once_per_pair(monkeypatch):
    # the traced benchmark counts one constant term per pair
    calls = []
    real = contraction.constant_term_element
    monkeypatch.setattr(contraction, "constant_term_element",
                        lambda *a: calls.append(1) or real(*a))
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    assert structure_constant_oracle(ctx, 5) == {"ok": True, "pairs": 225}
    assert len(calls) == 225


def test_oracle_sees_an_inner_row_corrupted_at_h0():
    # regime 2 at omega = 7/2, whose Brauer rows are over powers of 2; the
    # row of a letter on a middle word, which many prefix walks pass
    omega = Fr(7, 2)
    ctx = AlgebraContext(3, laurent_params(2, omega, 4), verify=False)
    l, i = ctx.letters[1], len(ctx.words) // 2
    den, ((j, c), *rest) = ctx._rows[l][i]
    ctx._rows[l][i] = (den, ((j, c + ctx._one), *rest))
    got = structure_constant_oracle(ctx, omega)
    assert got == series_oracle(ctx, omega)
    assert not got["ok"] and "differ" in got["reason"]


def test_oracle_sees_a_word_before_its_parent():
    # a context whose words are reordered, the index with them: the prefix
    # walk would read a product not yet formed
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    words = list(ctx.words)
    k = next(k for k, w in enumerate(words) if w[:-1] == words[1])
    words[1], words[k] = words[k], words[1]
    ctx.words, ctx.word_index = words, {w: k for k, w in enumerate(words)}
    assert structure_constant_oracle(ctx, 5) == {
        "ok": False, "reason": "canonical words are not the Brauer spellings"}


def test_constant_term_element_takes_exact_coefficients():
    # an int or Fraction coefficient used to raise AttributeError
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    exact = dict(zip(ctx.words[::2], (1, Fr(-2, 3), 0, Fr(5), -4, Fr(1, 7))))
    series = {w: TruncLaurent.const(c, 4) for w, c in exact.items()}
    brauer = BrauerAlgebra(3, 5)
    got = constant_term_element(AlgebraElement(ctx, exact), brauer)
    assert got == constant_term_element(AlgebraElement(ctx, series), brauer)
    assert len(got.terms) == 5


def test_laurent_context_relations():
    params = laurent_params(1, 5, 4)
    ctx = AlgebraContext(3, params, verify=True)
    assert len(ctx.words) == 15


def test_contraction_idempotents_complete_system():
    # each E: E E = E and E F = 0 for every other F of the system, as one
    # fold_products batch on the Brauer algebra, and the E sum to 1
    for omega, ns in ((Fr(5), (2, 3, 4)), (Fr(7, 2), (4,))):
        for regime in (1, 2):
            for n in ns:
                ctx = AlgebraContext(n, laurent_params(regime, omega, 4),
                                     verify=False)
                brauer = BrauerAlgebra(n, omega)
                idems = [brauer_idempotent_via_contraction(
                    t, regime, omega, ctx=ctx) for t in enumerate_tableaux(n)]
                rights = [{brauer.spell(d): c for d, c in f.terms.items()}
                          for f in idems]
                for i, e in enumerate(idems):
                    assert fold_products(brauer, e.terms, rights) == [
                        e.terms if j == i else {} for j in range(len(idems))]
                assert sum(idems, brauer.zero()) == brauer.one()


def test_laurent_spectrum_collision_not_generic():
    # regime 1 at omega = 2 has nu = q^-1 exactly: in the step-2 spectrum
    # the removed box's nu^2 equals the content q^-2 of the box (2, 1),
    # whichever box the tableau itself takes
    for tab in enumerate_tableaux(2):
        with pytest.raises(NotGeneric):
            brauer_idempotent_via_contraction(tab, 1, 2)


def test_pi_analogue_is_cup_over_omega():
    omega = Fr(5)
    params = laurent_params(1, omega, 4)
    ctx = AlgebraContext(2, params, verify=False)
    tab = [t for t in enumerate_tableaux(2) if t.shapes[-1] == ()][0]
    e = brauer_idempotent_via_contraction(tab, 1, omega, ctx=ctx)
    brauer = BrauerAlgebra(2, omega)
    assert (e - brauer.e(1).scale(1 / omega)).is_zero()


def test_contraction_rejects_a_context_of_other_size():
    # a length-3 tableau used to give diagrams on 4 strands in B_3
    ctx = AlgebraContext(4, laurent_params(1, 5, 4), verify=False)
    with pytest.raises(DomainMismatch):
        brauer_idempotent_via_contraction(enumerate_tableaux(3)[0], 1, 5,
                                          ctx=ctx)


def test_constant_term_rejects_a_brauer_algebra_of_other_size():
    # B_4 used to take the 3-strand diagrams of a BMW_3 element as keys
    ctx = AlgebraContext(3, laurent_params(1, 5, 4), verify=False)
    tab = enumerate_tableaux(3)[0]
    E = jm_oracle_idempotent(tab, ctx).element
    for n in (2, 4):
        with pytest.raises(DomainMismatch):
            constant_term_element(E, BrauerAlgebra(n, 5))
    assert constant_term_element(E, BrauerAlgebra(3, 5)) == \
        brauer_idempotent_via_contraction(tab, 1, 5, ctx=ctx)


def test_constant_term_rejects_a_brauer_algebra_of_other_omega():
    # B_2(7) used to weigh the loops of a regime-1 omega = 5 element by 7
    ctx = AlgebraContext(2, laurent_params(1, 5, 4), verify=False)
    tab = [t for t in enumerate_tableaux(2) if t.shapes[-1] == ()][0]
    E = jm_oracle_idempotent(tab, ctx).element
    with pytest.raises(DomainMismatch):
        constant_term_element(E, BrauerAlgebra(2, 7))
    assert constant_term_element(E, BrauerAlgebra(2, 5)) == \
        BrauerAlgebra(2, 5).e(1).scale(Fr(1, 5))


def test_contraction_rejects_a_rational_context(ctx3):
    with pytest.raises(DomainMismatch):
        brauer_idempotent_via_contraction(enumerate_tableaux(3)[0], 1, 5,
                                          ctx=ctx3)
    # constant_term_element used to fail on Fraction.constant_term
    E = jm_oracle_idempotent(enumerate_tableaux(3)[0], ctx3).element
    with pytest.raises(DomainMismatch):
        constant_term_element(E, BrauerAlgebra(3, 5))


@pytest.mark.parametrize("regime, omega", [(1, 5), (2, 7)])
def test_contraction_rejects_a_context_of_other_parameters(regime, omega):
    ctx = AlgebraContext(2, laurent_params(2, 5, 4), verify=False)
    with pytest.raises(DomainMismatch):
        brauer_idempotent_via_contraction(enumerate_tableaux(2)[0], regime,
                                          omega, ctx=ctx)


def test_laurent_closure_at_n5_matches_the_rational_one(ctx5, ctx5_rules):
    # the regenerator's search over TruncLaurent reaches the same basis by
    # eliminating the same words
    lctx = SearchRulesContext(5, laurent_params(1, 5, 5), verify=False)
    assert lctx.stats["closure"] == "search"
    assert lctx.words == ctx5.words
    assert sorted(lctx._dyn) == sorted(ctx5_rules._dyn)
    # the rational plan replays over series to the same rules and rows
    replay = RulesContext(5, laurent_params(1, 5, 5), verify=False)
    assert replay.stats["closure"] == "replay"
    assert sorted(replay._dyn) == sorted(lctx._dyn)
    assert replay.words == lctx.words
    assert closure_rows(replay) == closure_rows(lctx)


def test_laurent_closure_at_n5_regime_2(ctx5, ctx5_rules):
    # the rational plan replays over the series of the second regime
    ctx = RulesContext(5, laurent_params(2, Fr(7, 2), 5))
    assert ctx.stats["closure"] == "replay"
    assert ctx.words == ctx5.words
    assert sorted(ctx._dyn) == sorted(ctx5_rules._dyn)
    # an idempotent of B_5(7/2) with 81 diagrams, squared on the row table
    tab, = [t for t in enumerate_tableaux(5)
            if t.encode() == "1;1,1;1;1,1;1"]
    E = brauer_idempotent_via_contraction(tab, 2, Fr(7, 2), ctx=ctx)
    assert len(E.terms) == 81
    assert E * E == E


def test_laurent_n5_below_default_truncation_rejected():
    assert default_truncation(5) == 5
    start = time.perf_counter()
    with pytest.raises(DimensionMismatch):
        AlgebraContext(5, laurent_params(1, 5, 4), verify=False)
    assert time.perf_counter() - start < 1


def test_regime2_equals_regime1_on_transpose():
    omega = Fr(7, 2)
    for n in (2, 3, 4):
        p1 = laurent_params(1, omega, 4)
        p2 = laurent_params(2, omega, 4)
        c1 = AlgebraContext(n, p1, verify=False)
        c2 = AlgebraContext(n, p2, verify=False)
        for tab in enumerate_tableaux(n):
            a = brauer_idempotent_via_contraction(tab, 2, omega, ctx=c2)
            b = brauer_idempotent_via_contraction(tab.transpose(), 1, omega,
                                                  ctx=c1)
            assert (a - b).is_zero()


def test_canonical_words_are_the_brauer_spellings():
    # in the same order, so each word is a loop-free spelling of its own
    # diagram and the words map bijectively onto the diagrams
    for q, nu in ((Fr(6, 5), Fr(7, 3)), (Fr(-5, 6), Fr(3, 7)),
                  (Fr(13, 11), Fr(17, 19))):
        for n in (1, 2, 3, 4, 5):
            ctx = AlgebraContext(n, make_params(q, nu, n), verify=False)
            B = BrauerAlgebra(n, 5)
            assert list(ctx.words) == [B.spell(d) for d in B.words]


def test_constant_term_of_a_word_outside_the_spellings():
    # T1*T1 is no basis word, also under a coefficient with no h^0 term
    ctx = AlgebraContext(2, laurent_params(1, 5), verify=False)
    t1 = letter(T_KIND, 1)
    for c in (ctx._one, TruncLaurent(1, (Fr(1),), 4)):
        elem = AlgebraElement(ctx, {(t1,): ctx._one, (t1, t1): c})
        with pytest.raises(DomainMismatch, match="T1\\*T1 is not a Brauer"):
            constant_term_element(elem, BrauerAlgebra(2, 5))


def test_structure_constant_oracle_sees_a_word_outside_the_spellings():
    ctx = AlgebraContext(2, laurent_params(1, 5), verify=False)
    t1 = letter(T_KIND, 1)
    ctx.word_index[(t1, t1)] = ctx.word_index.pop((t1,))
    assert structure_constant_oracle(ctx, 5) == {
        "ok": False, "reason": "canonical words are not the Brauer spellings"}


def test_negative_valuation_reported():
    x = TruncLaurent(-1, (Fr(1),), 3)
    with pytest.raises(NegativeValuation):
        x.constant_term()


def test_regime3_generator_sign_homomorphism():
    """Further degeneration regimes (q -> 1 with nu -> -1) need the signed
    map T_i -> -s_i, K_i -> e_i; checked as a block-level homomorphism on
    the structure constants' constant terms."""
    from bmwfusion.bmwcore import LaurentParams, letter_kind
    prec = 4
    omega = Fr(5)
    q = TruncLaurent.exp_h(1, prec)
    nu = TruncLaurent.exp_h(omega - 1, prec) * TruncLaurent.const(-1, prec)
    params = LaurentParams(q=q, nu=nu, label="regime3")
    ctx = AlgebraContext(2, params, verify=False)
    brauer = BrauerAlgebra(2, omega)

    def sign(word):
        return Fr(-1) ** sum(1 for l in word if letter_kind(l) == T_KIND)

    def signed_limit(elem):
        terms = {}
        for w, c in elem.terms.items():
            c0 = c.constant_term() * sign(w)
            if c0:
                d, loops = word_diagram(2, w)
                terms[d] = terms.get(d, Fr(0)) + c0 * omega ** loops
        return brauer.from_terms(terms)

    for w1 in ctx.words:
        for w2 in ctx.words:
            prod = ctx.from_terms({w1: ctx._one}) * \
                ctx.from_terms({w2: ctx._one})
            got = signed_limit(prod).scale(sign(w1) * sign(w2))
            d, loops = diagram_mul(2, word_diagram(2, w1)[0],
                                   word_diagram(2, w2)[0])
            want = brauer.from_terms({d: omega ** loops})
            assert (got - want).is_zero(), (w1, w2)

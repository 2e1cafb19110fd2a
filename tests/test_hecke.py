import random
from fractions import Fraction as Fr
from itertools import permutations

import pytest

from bmwfusion import (AlgebraContext, BrauerAlgebra, CapExceeded,
                       DivisionByZero, DomainMismatch, HeckeAlgebra,
                       NotGeneric, enumerate_tableaux, fusion_idempotent,
                       hecke_family_idempotent, hecke_quotient,
                       laurent_params, quantum_contents)
from bmwfusion.bmwcore import (K_KIND, T_KIND, letter, letter_index,
                               letter_kind)
from bmwfusion.hecke import HeckeElement, apply_s_right

Q = Fr(6, 5)


def perm_inversions(w) -> int:
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


def reduced_word(w):
    """A reduced word of w as generator indices: strip a right descent
    w = (w s_i) s_i until the identity is left."""
    word = []
    while True:
        i = next((i for i in range(1, len(w)) if w[i - 1] > w[i]), None)
        if i is None:
            return word[::-1]
        word.append(i)
        w = apply_s_right(w, i)


def reference_mul(a, b):
    """a * b term by term: each T_w of b as its reduced word, one
    generator at a time, T_v T_i = T_{v s_i} (+ delta T_v on a descent)."""
    alg = a.algebra
    out = {}
    for w2, c2 in b.terms.items():
        vec = a.terms
        for i in reduced_word(w2):
            nxt = {}
            for v, c in vec.items():
                u = apply_s_right(v, i)
                nxt[u] = nxt[u] + c if u in nxt else c
                if v[i - 1] > v[i]:
                    nxt[v] = nxt[v] + c * alg.delta if v in nxt \
                        else c * alg.delta
            vec = nxt
        for v, c in vec.items():
            out[v] = out[v] + c * c2 if v in out else c * c2
    return HeckeElement(alg, out)


def _random_element(hk, rnd, coeff):
    perms = sorted(hk.words)
    return hk.from_terms({rnd.choice(perms): coeff()
                          for _ in range(rnd.randint(1, 6))})


def test_basic_relations():
    hk = HeckeAlgebra(3, Q)
    d = hk.delta
    one = hk.one()
    T1, T2 = hk.gen_T(1), hk.gen_T(2)
    assert (T1 * T2 * T1 - T2 * T1 * T2).is_zero()
    assert (T1 * T1 - (one + T1.scale(d))).is_zero()


def test_dimension_and_associativity():
    hk = HeckeAlgebra(4, Q)
    perms = sorted(hk.words)
    assert len(perms) == 24
    rnd = random.Random(5)

    def rand():
        terms = {rnd.choice(perms): Fr(rnd.randint(-5, 5) or 1)
                 for _ in range(3)}
        return hk.from_terms(terms)

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert all(type(x) is Fr for x in (a * b).terms.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_filled_at_build(n):
    hk = HeckeAlgebra(n, Q)
    assert set(hk._rows) == {letter(T_KIND, i) for i in range(1, n)}
    for l, row_of in hk._rows.items():
        assert len(row_of) == len(hk.words)
        for w, (den, row) in zip(hk.words, row_of):
            got = {hk.words[j]: Fr(x, den) for j, x in row}
            assert got == reference_mul(hk.from_terms({w: Fr(1)}),
                                        hk.gen_T(letter_index(l))).terms


def test_spellings_are_reduced_words():
    # the breadth-first walk spells each T_w by a word of length l(w)
    for n in range(1, 6):
        hk = HeckeAlgebra(n, Q)
        assert sorted(hk.words) == list(permutations(range(n)))
        for w in hk.words:
            word = [letter_index(l) for l in hk.spell(w)]
            assert len(word) == perm_inversions(w)
            # rebuilding the permutation from the word gives w back
            cur = tuple(range(n))
            for i in word:
                lst = list(cur)
                lst[i - 1], lst[i] = lst[i], lst[i - 1]
                cur = tuple(lst)
            assert cur == w


def test_family_row_tableau(ctx2):
    hk = HeckeAlgebra(2, Q)
    q = Q
    row = enumerate_tableaux(2)[0]
    want = (hk.gen_T(1) + hk.one().scale(1 / q)).scale(1 / (q + 1 / q))
    for c in (Fr(0), Fr(1, 2), Fr(-2, 3)):
        e = hecke_family_idempotent(row, c, hk, ctx2.params)
        assert (e - want).is_zero()


def test_family_matches_quotient_of_fusion(ctx3):
    hk = HeckeAlgebra(3, Q)
    for tab in enumerate_tableaux(3):
        if not tab.is_standard():
            continue
        fam = hecke_family_idempotent(tab, ctx3.params.c, hk, ctx3.params)
        quo = hecke_quotient(fusion_idempotent(tab, ctx3).element, hk)
        assert (fam - quo).is_zero()


def test_family_idempotent_system(ctx3):
    hk = HeckeAlgebra(3, Q)
    tabs = [t for t in enumerate_tableaux(3) if t.is_standard()]
    idems = [hecke_family_idempotent(t, Fr(1, 2), hk, ctx3.params)
             for t in tabs]
    total = hk.zero()
    for i, e in enumerate(idems):
        assert (e * e - e).is_zero()
        total = total + e
        for j, f in enumerate(idems):
            if i != j:
                assert (e * f).is_zero()
    assert (total - hk.one()).is_zero()


def test_family_rejects_a_pole_on_the_contents(params4):
    # c_param c_a c_b = 1 for two contents (a <= b) is the Hecke analogue of
    # genericity constraint (c)
    hk = HeckeAlgebra(4, Q)
    tabs = [t for t in enumerate_tableaux(4) if t.is_standard()]
    assert len(tabs) == 10
    for tab in tabs:
        cs = quantum_contents(tab, params4)
        for a in range(4):
            for b in range(a, 4):
                with pytest.raises(NotGeneric):
                    hecke_family_idempotent(tab, 1 / (cs[a] * cs[b]), hk,
                                            params4)


def test_family_rejects_parameters_at_another_q(params4):
    # an algebra at q = 3/2 with parameters at q = 6/5 gave the zero element
    hk = HeckeAlgebra(4, Fr(3, 2))
    tabs = [t for t in enumerate_tableaux(4) if t.is_standard()][:4]
    for tab in tabs:
        for c in (Fr(0), params4.c):
            with pytest.raises(DomainMismatch):
                hecke_family_idempotent(tab, c, hk, params4)


# a Hecke algebra's integer rows fold rationals only (test_bmw_core)
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["fraction"])
def test_fold_matches_the_reference_product(n, kind):
    hk = HeckeAlgebra(n, Q)
    rnd = random.Random(n)

    def frac():
        return Fr(rnd.randint(-9, 9), rnd.randint(1, 9))

    for _ in range(40):
        a = _random_element(hk, rnd, frac)
        b = _random_element(hk, rnd, frac)
        assert a * b == reference_mul(a, b)


@pytest.mark.parametrize("n", [3, 4])
def test_quotient_matches_word_by_word_products(n, ctx3, ctx4):
    ctx = {3: ctx3, 4: ctx4}[n]
    hk = HeckeAlgebra(n, Q)
    tabs = enumerate_tableaux(n)
    # a fusion idempotent has terms on every kind of canonical word
    elems = [fusion_idempotent(tabs[k], ctx).element for k in (0, 2, -1)]
    elems.append(ctx.jm_element(n) * ctx.gen_K(n - 1))
    for elem in elems:
        want = hk.zero()
        for w, c in elem.terms.items():
            if any(letter_kind(l) == K_KIND for l in w):
                continue
            img = hk.one()
            for l in w:
                img = reference_mul(img, hk.gen_T(letter_index(l)))
            want = want + img.scale(c)
        assert hecke_quotient(elem, hk) == want


def test_strand_cap():
    with pytest.raises(CapExceeded):
        HeckeAlgebra(6, Q)
    with pytest.raises(CapExceeded):
        HeckeAlgebra(0, Q)


def test_q_zero_is_a_division_by_zero():
    with pytest.raises(DivisionByZero):
        HeckeAlgebra(3, 0)


def test_quotient_needs_a_rational_element_at_the_algebra_q(ctx3):
    with pytest.raises(DomainMismatch):
        hecke_quotient(ctx3.gen_T(1) * ctx3.gen_T(1), HeckeAlgebra(3, 2))
    lctx = AlgebraContext(3, laurent_params(1, 5), verify=False)
    with pytest.raises(DomainMismatch):
        hecke_quotient(lctx.gen_T(1), HeckeAlgebra(3, Q))


def test_quotient_of_an_element_outside_bmw_is_a_domain_mismatch():
    # an element of H_n or of B_n ended in an AttributeError on .params
    hk = HeckeAlgebra(3, Q)
    for elem in (hk.one(), hk.gen_T(1), BrauerAlgebra(3, 5).one()):
        with pytest.raises(DomainMismatch, match="not in BMW_3 at q = 6/5"):
            hecke_quotient(elem, hk)


def test_from_terms_rejects_a_non_permutation():
    hk = HeckeAlgebra(3, Q)
    for bad in ((0, 1), (0, 1, 1), (1, 2, 3), (0, 1, 2, 3)):
        with pytest.raises(DomainMismatch):
            hk.from_terms({bad: Fr(1)})

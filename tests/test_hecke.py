import random
from fractions import Fraction as Fr
from itertools import permutations

import pytest

from bmwfusion import (HeckeAlgebra, NotGeneric, enumerate_tableaux,
                       fusion_idempotent, hecke_family_idempotent,
                       hecke_quotient, quantum_contents)
from bmwfusion.hecke import lex_min_reduced_word, perm_inversions

Q = Fr(6, 5)


def test_basic_relations():
    hk = HeckeAlgebra(3, Q)
    d = hk.delta
    one = hk.one()
    T1, T2 = hk.gen_T(1), hk.gen_T(2)
    assert (T1 * T2 * T1 - T2 * T1 * T2).is_zero()
    assert (T1 * T1 - (one + T1.scale(d))).is_zero()


def test_dimension_and_associativity():
    hk = HeckeAlgebra(4, Q)
    perms = hk.basis_perms()
    assert len(perms) == 24
    rnd = random.Random(5)

    def rand():
        terms = {rnd.choice(perms): Fr(rnd.randint(-5, 5) or 1)
                 for _ in range(3)}
        return hk.from_terms(terms)

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_lex_min_reduced_words():
    for n in (3, 4):
        for w in permutations(range(n)):
            word = lex_min_reduced_word(w)
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

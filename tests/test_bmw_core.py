import random
from fractions import Fraction as Fr

import pytest

from bmwfusion import (BrauerAlgebra, DomainMismatch, HeckeAlgebra,
                       NotGeneric, build_context, hecke_quotient)
from bmwfusion.bmwcore import double_factorial, word_name, T_KIND


def test_dimensions(ctx2, ctx3, ctx4):
    assert len(ctx2.words) == 3
    assert sorted(word_name(w) for w in ctx2.words) == ["1", "K1", "T1"]
    assert len(ctx3.words) == 15
    assert len(ctx4.words) == 105


def test_not_generic_rejected():
    with pytest.raises(NotGeneric):
        build_context(3, q=Fr(1), nu=Fr(3))


def test_generators_and_defining_relations(ctx3):
    ctx = ctx3
    one = ctx.one()
    nu, mu, d = ctx.params.nu, ctx.params.mu, ctx.params.delta
    T1, T2 = ctx.gen_T(1), ctx.gen_T(2)
    K1, K2 = ctx.gen_K(1), ctx.gen_K(2)
    assert (T1 * ctx.gen_Tinv(1) - one).is_zero()
    assert (K1 * K1 - K1.scale(mu)).is_zero()
    assert (K1 * T1 - K1.scale(nu)).is_zero()
    assert (K1 * T2 * T1 - K1 * K2).is_zero()
    assert (K2 * ctx.gen_Tinv(1) * K2 - K2.scale(nu)).is_zero()
    # T^2 expansion
    assert (T1 * T1 - (one + T1.scale(d) - K1.scale(d * nu))).is_zero()


def test_relation_suite(ctx4):
    report = ctx4.verify_relations()
    assert report and all(r["ok"] for r in report)


def test_relation_suite_n5_counts():
    ctx5 = build_context(5, q=Fr(6, 5), nu=Fr(7, 3))
    assert len(ctx5.words) == double_factorial(9)


def test_rho(ctx3):
    ctx = ctx3
    T1, T2, K1 = ctx.gen_T(1), ctx.gen_T(2), ctx.gen_K(1)
    assert (ctx.rho(T1 * T2) - T2 * T1).is_zero()
    assert (ctx.rho(K1) - K1).is_zero()
    y3 = ctx.jm_element(3)
    assert (ctx.rho(y3) - y3).is_zero()
    # anti-homomorphism on random products
    rnd = random.Random(1)
    for _ in range(10):
        a = _random_element(ctx, rnd)
        b = _random_element(ctx, rnd)
        assert (ctx.rho(a * b) - ctx.rho(b) * ctx.rho(a)).is_zero()
    # involution
    for _ in range(5):
        a = _random_element(ctx, rnd)
        assert (ctx.rho(ctx.rho(a)) - a).is_zero()


def test_jm_elements(ctx3):
    ctx = ctx3
    T1 = ctx.gen_T(1)
    y2, y3 = ctx.jm_element(2), ctx.jm_element(3)
    assert (y2 - T1 * T1).is_zero()
    assert (y2 * y3 - y3 * y2).is_zero()
    K1 = ctx.gen_K(1)
    nu2 = ctx.params.nu ** 2
    assert (K1 * y2 * ctx.jm_element(1) - K1.scale(nu2)).is_zero()


def _random_element(ctx, rnd, nterms=3):
    terms = {}
    for _ in range(nterms):
        w = rnd.choice(ctx.words)
        terms[w] = Fr(rnd.randint(-6, 6) or 1, rnd.randint(1, 4))
    return ctx.from_terms(terms)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_associativity_random(n, ctx2, ctx3, ctx4):
    ctx = {2: ctx2, 3: ctx3, 4: ctx4}[n]
    rnd = random.Random(n)
    for _ in range(100):
        a = _random_element(ctx, rnd)
        b = _random_element(ctx, rnd)
        c = _random_element(ctx, rnd)
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_unit(ctx3):
    rnd = random.Random(7)
    one = ctx3.one()
    for _ in range(10):
        a = _random_element(ctx3, rnd)
        assert (a * one - a).is_zero() and (one * a - a).is_zero()


def test_hecke_quotient(ctx2, ctx3):
    q = ctx2.params.q
    d = ctx2.params.delta
    hk = HeckeAlgebra(2, q)
    assert hecke_quotient(ctx2.gen_K(1), hk).is_zero()
    img = hecke_quotient(ctx2.gen_T(1) * ctx2.gen_T(1), hk)
    assert (img - (hk.one() + hk.gen_T(1).scale(d))).is_zero()
    # symmetrizer of BMW_2 maps to (T1 + q^-1)/(q + q^-1)
    one = ctx2.one()
    K1, T1 = ctx2.gen_K(1), ctx2.gen_T(1)
    nu = ctx2.params.nu
    S = (T1 + one.scale(1 / q) + K1.scale(d / (1 - q / nu))) \
        .scale(1 / (q + 1 / q))
    wantS = (hk.gen_T(1) + hk.one().scale(1 / q)).scale(1 / (q + 1 / q))
    assert (hecke_quotient(S, hk) - wantS).is_zero()
    # multiplicativity on random pairs
    hk3 = HeckeAlgebra(3, q)
    rnd = random.Random(3)
    for _ in range(15):
        a = _random_element(ctx3, rnd)
        b = _random_element(ctx3, rnd)
        lhs = hecke_quotient(a * b, hk3)
        rhs = hecke_quotient(a, hk3) * hecke_quotient(b, hk3)
        assert (lhs - rhs).is_zero()
    # the quotient kills the whole ideal generated by K1
    for _ in range(10):
        a = _random_element(ctx3, rnd)
        b = _random_element(ctx3, rnd)
        assert hecke_quotient(a * ctx3.gen_K(1) * b, hk3).is_zero()


def test_kfree_words_count_factorial(ctx4):
    kfree = [w for w in ctx4.words
             if all(l & 1 == T_KIND for l in w)]
    assert len(kfree) == 24


def test_cache_round_trip(tmp_path):
    ctx_a = build_context(3, q=Fr(6, 5), nu=Fr(7, 3),
                          cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert files, "cache file written"
    ctx_b = build_context(3, q=Fr(6, 5), nu=Fr(7, 3),
                          cache_dir=str(tmp_path))
    assert ctx_a.words == ctx_b.words
    a = ctx_a.gen_T(1) * ctx_a.gen_K(2) * ctx_a.gen_T(2)
    b = ctx_b.gen_T(1) * ctx_b.gen_K(2) * ctx_b.gen_T(2)
    assert sorted(a.terms.items()) == sorted(b.terms.items())


def _elements_of_two_algebras(kind, ctx2):
    if kind == "bmw":
        # equal parameters, but elements never mix across contexts
        other = build_context(2, q=Fr(6, 5), nu=Fr(7, 3))
        return ctx2.gen_T(1), other.gen_T(1)
    if kind == "hecke":
        return HeckeAlgebra(2, Fr(6, 5)).gen_T(1), \
            HeckeAlgebra(2, Fr(5, 6)).gen_T(1)
    return BrauerAlgebra(2, 5).s(1), BrauerAlgebra(2, 7).s(1)


@pytest.mark.parametrize("kind", ["bmw", "hecke", "brauer"])
def test_mixed_algebras_raise_domain_mismatch(kind, ctx2):
    a, b = _elements_of_two_algebras(kind, ctx2)
    with pytest.raises(DomainMismatch):
        a + b
    with pytest.raises(DomainMismatch):
        a - b
    with pytest.raises(DomainMismatch):
        a * b
    assert a != b


def test_equal_parameter_algebras_mix():
    h1, h2 = HeckeAlgebra(3, Fr(6, 5)), HeckeAlgebra(3, Fr(6, 5))
    assert h1 == h2
    assert (h1.gen_T(1) * h2.gen_T(2)) == h2.gen_T(1) * h1.gen_T(2)
    b1, b2 = BrauerAlgebra(3, 5), BrauerAlgebra(3, 5)
    assert (b1.e(1) + b2.s(2)) == b2.e(1) + b1.s(2)

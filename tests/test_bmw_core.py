import hashlib
import os
import random
from fractions import Fraction as Fr

import pytest

from bmwfusion import (AlgebraContext, AlgebraElement, BrauerAlgebra,
                       DomainMismatch, HeckeAlgebra, NotGeneric, RatFunc,
                       TruncLaurent, build_context, hecke_quotient,
                       laurent_params)
from bmwfusion.bmwcore import (CLOSURE_PLANS, _read_plan, double_factorial,
                               fold_products, letter, word_name, K_KIND,
                               T_KIND)
from conftest import closure_rows


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


def test_relation_suite_n5_counts(ctx5):
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


def _random_element(ctx, rnd, nterms=3, coeff=None):
    terms = {}
    for _ in range(nterms):
        w = rnd.choice(ctx.words)
        terms[w] = coeff(rnd) if coeff else \
            Fr(rnd.randint(-6, 6) or 1, rnd.randint(1, 4))
    return ctx.from_terms(terms)


def _laurent_coeff(rnd):
    return TruncLaurent.exp_h(rnd.randint(-3, 3), 4) * \
        Fr(rnd.randint(-6, 6) or 1, rnd.randint(1, 4))


def _ratfunc_coeff(rnd):
    return RatFunc((rnd.randint(-3, 3), rnd.randint(1, 3)),
                   (rnd.randint(1, 4), rnd.choice((-1, 1))))


def _poly_coeff(rnd):
    """A polynomial in h modulo h^3, the kind of coefficient the fusion
    step folds: a series on [0, 3).  Its constant term is nonzero, so
    every product and sum stays on [0, 3) and the fold and the reference
    keep the same windows."""
    return TruncLaurent(0, [Fr(1, rnd.randint(1, 3))]
                        + [Fr(rnd.randint(-6, 6), rnd.randint(1, 4))
                           for _ in range(rnd.randint(0, 2))], 3)


def _mixed_coeff(rnd):
    return _poly_coeff(rnd) if rnd.random() < 0.5 else \
        Fr(rnd.randint(-6, 6) or 1, rnd.randint(1, 4))


@pytest.fixture(scope="module")
def lctx3():
    return AlgebraContext(3, laurent_params(1, 5), verify=False)


# (label, strand count, coefficient sampler; None = rationals).  The y_k
# right factors of the poly and mixed domains fold to depth > 1 with
# series coefficients over the integer rows of a rational context, as
# the fusion step does.
_DOMAINS = [("rational", 2, None), ("rational", 3, None),
            ("rational", 4, None), ("laurent", 3, _laurent_coeff),
            ("ratfunc", 3, _ratfunc_coeff), ("poly", 4, _poly_coeff),
            ("mixed", 3, _mixed_coeff)]


def _domain_id(d):
    return str(d[1]) if d[0] == "rational" else "%s-%d" % d[:2]


@pytest.fixture(params=_DOMAINS, ids=_domain_id)
def domain(request, ctx2, ctx3, ctx4):
    kind, n, coeff = request.param
    if kind == "laurent":
        return request.getfixturevalue("lctx3"), coeff
    return {2: ctx2, 3: ctx3, 4: ctx4}[n], coeff


def _jm_word(k):
    """The word of y_k = T_{k-1}...T_1 T_1...T_{k-1}, not a basis word."""
    down = tuple(letter(T_KIND, i) for i in range(k - 1, 0, -1))
    return down + down[::-1]


def _reference_product(a, b):
    """sum c1 c2 w1 w2 with each w1 w2 rewritten from scratch."""
    ctx = a.algebra
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            red = ctx._renormalize(ctx.reduce_word(w1 + w2))
            for u, cu in red.items():
                prev = out.get(u)
                out[u] = c1 * c2 * cu if prev is None \
                    else prev + c1 * c2 * cu
    return AlgebraElement(ctx, out)


def test_product_matches_reference(domain):
    ctx, coeff = domain
    rnd = random.Random(ctx.n)
    for _ in range(20):
        a = _random_element(ctx, rnd, coeff=coeff)
        b = _random_element(ctx, rnd, coeff=coeff)
        assert a * b == _reference_product(a, b)
        if coeff is None:
            # the coefficient types select the arithmetic of the next
            # product: two Fraction factors give Fractions, never ints
            for p in (a * b, ctx.one() * ctx.one()):
                assert all(type(c) is Fr for c in p.terms.values())
    # right factors on words outside the basis, e.g. y_k spelled out
    for k in range(2, ctx.n + 1):
        a = _random_element(ctx, rnd, nterms=5, coeff=coeff)
        c = coeff(rnd) if coeff else Fr(rnd.randint(1, 6), 7)
        y = AlgebraElement(ctx, {_jm_word(k): c, (): c})
        assert _jm_word(k) not in ctx.word_index
        assert a * y == _reference_product(a, y)
        assert a * y == a * (ctx.jm_element(k) + ctx.one()).scale(c)
    # one batch of right factors, one of them repeated and one empty: each
    # product is the one formed alone
    for _ in range(5):
        a, b1, b2 = (_random_element(ctx, rnd, coeff=coeff) for _ in range(3))
        rights = [b1, b2, b1, ctx.zero()]
        got = fold_products(ctx, a.terms, [r.terms for r in rights],
                            ctx.rational)
        assert [AlgebraElement(ctx, p) for p in got] == \
            [_reference_product(a, r) for r in rights]


def test_associativity_random(domain):
    ctx, coeff = domain
    rnd = random.Random(ctx.n)
    for _ in range(100):
        a = _random_element(ctx, rnd, coeff=coeff)
        b = _random_element(ctx, rnd, coeff=coeff)
        c = _random_element(ctx, rnd, coeff=coeff)
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_from_terms_reduces_onto_basis(ctx3):
    T1 = letter(T_KIND, 1)
    a = ctx3.from_terms({(T1, T1): 1})
    assert set(a.terms) <= set(ctx3.word_index)
    assert a == ctx3.gen_T(1) * ctx3.gen_T(1)
    one = ctx3.one()
    assert a * one == one * a == a
    # two spellings of one word accumulate
    b = ctx3.from_terms({(T1, letter(K_KIND, 1)): 1,
                         (letter(K_KIND, 1), T1): -1})
    assert b.is_zero()


@pytest.mark.parametrize("word", [(99,), (letter(T_KIND, 3),),
                                  (letter(K_KIND, 0),),
                                  (letter(T_KIND, 1), letter(K_KIND, 3))])
def test_from_terms_rejects_foreign_letters(ctx3, word):
    with pytest.raises(DomainMismatch):
        ctx3.from_terms({word: 1})


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
    inode = files[0].stat().st_ino
    ctx_b = build_context(3, q=Fr(6, 5), nu=Fr(7, 3),
                          cache_dir=str(tmp_path))
    assert files[0].stat().st_ino == inode, "warm build rewrote the cache"
    assert ctx_a.words == ctx_b.words
    a = ctx_a.gen_T(1) * ctx_a.gen_K(2) * ctx_a.gen_T(2)
    b = ctx_b.gen_T(1) * ctx_b.gen_K(2) * ctx_b.gen_T(2)
    assert sorted(a.terms.items()) == sorted(b.terms.items())


# sha256 of the n = 5 cache file at (6/5, 7/3): it pins the closure's rules
N5_CACHE_SHA256 = \
    "21d378b780bc5e349a6f08f429d1ec4ce8b8d7c6f201339cd6504564349c708e"


def test_n5_cache_file_pinned(ctx5, ctx5_search):
    path = ctx5._cache_path
    with open(path, "rb") as f:
        data = f.read()
    assert hashlib.sha256(data).hexdigest() == N5_CACHE_SHA256
    with open(ctx5_search._cache_path, "rb") as f:
        assert f.read() == data, "search and replay wrote other files"
    assert len(ctx5._dyn) == 164
    inode = os.stat(path).st_ino
    warm = build_context(5, q=Fr(6, 5), nu=Fr(7, 3),
                         cache_dir=os.path.dirname(path))
    assert warm.words == ctx5.words
    assert os.stat(path).st_ino == inode, "warm build rewrote the cache"
    assert warm.stats["cache"] == "hit"
    assert warm.stats["closure_rounds"] == 0
    assert warm.stats["closure"] == "cache"


def _plan_text(plan):
    """A plan as CLOSURE_PLANS writes it: one token w.gh... per group."""
    toks = []
    for w, g, h, starts in plan:
        if starts:
            toks.append("".join(map(str, w)) + "." + str(g))
        toks[-1] += str(h)
    return " ".join(toks)


def test_search_records_the_committed_plan(ctx5_search):
    plan = list(_read_plan(CLOSURE_PLANS[5]))
    assert len(plan) == 164
    assert sum(starts for *_, starts in plan) == 130
    # on failure the message is the plan to commit
    assert ctx5_search._plan == plan, _plan_text(ctx5_search._plan)
    assert _plan_text(plan) == " ".join(CLOSURE_PLANS[5].split())


def test_replay_equals_search(ctx5, ctx5_search):
    assert ctx5.stats["closure"] == "replay"
    assert ctx5_search.stats["closure"] == "search"
    assert ctx5._dyn == ctx5_search._dyn
    assert ctx5.words == ctx5_search.words
    assert closure_rows(ctx5) == closure_rows(ctx5_search)


def _build_with_plan(monkeypatch, plan):
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(CLOSURE_PLANS, 5, _plan_text(plan))
        return build_context(5, q=Fr(6, 5), nu=Fr(7, 3))


def test_replay_falls_back_to_the_search(ctx5, monkeypatch):
    plan = list(_read_plan(CLOSURE_PLANS[5]))
    ctx = _build_with_plan(monkeypatch, plan[:82])
    assert ctx.stats["closure"] == "search"
    assert ctx.stats["closure_rounds"] > 0
    assert ctx._plan[:82] == plan[:82]
    assert ctx.words == ctx5.words


def test_replay_falls_back_at_a_vanished_defect(monkeypatch):
    class Opened(Exception):
        pass

    def opening_closure(ctx):
        raise Opened(len(ctx._dyn))

    # without the first rule, the defect of the 66th entry left vanishes:
    # the replay stops and the closure opens on the 65 rules before it
    monkeypatch.setattr(AlgebraContext, "_closure_once", opening_closure)
    plan = list(_read_plan(CLOSURE_PLANS[5]))
    with pytest.raises(Opened) as got:
        _build_with_plan(monkeypatch, plan[1:])
    assert got.value.args == (65,)
    # T1 T2 is canonical, so the defect of ((), T1, T2) is zero at once
    with pytest.raises(Opened) as got:
        _build_with_plan(monkeypatch, [((), 2, 4, True)] + plan)
    assert got.value.args == (0,)


def test_build_stats(ctx4, ctx5, ctx5_search):
    assert ctx5.stats["closure_rounds"] == 0
    assert ctx5.stats["rules_added"] == 164
    st = ctx5_search.stats
    assert st["cache"] == "miss"
    assert st["closure_rounds"] == 4
    assert st["rules_added"] == 164
    assert st["triples_checked"] == 97332
    assert st["triples_skipped"] == 123468
    # re-derivations of an existing rule with the same expansion
    assert st["rules_reset"] == 125
    assert ctx4.stats["closure_rounds"] == 0
    assert ctx4.stats["rules_added"] == 0
    assert ctx4.stats["closure"] == "none"


def test_build_stats_cache_states(tmp_path, monkeypatch):
    monkeypatch.delenv("BMWF_CACHE", raising=False)

    def cache_state():
        return build_context(3, q=Fr(6, 5), nu=Fr(7, 3),
                             cache_dir=str(tmp_path)).stats["cache"]

    assert build_context(3, q=Fr(6, 5), nu=Fr(7, 3)).stats["cache"] == "off"
    assert cache_state() == "miss"
    assert cache_state() == "hit"
    (path,) = tmp_path.iterdir()
    path.write_text("[]")
    assert cache_state() == "corrupt"
    assert cache_state() == "hit"


@pytest.mark.parametrize("n", [4, 5])
def test_chain_followed_by_a_slid_letter_is_an_f_redex(n, ctx4, ctx5,
                                                       monkeypatch):
    """A word with (T_m..T_j) X_g, j+1 <= g <= m, contains the F-family
    redex T_g T_{g-1} [T_{g-2}..T_j] X_g: ``_find_redex`` returns a redex
    starting at or before T_g without reaching the chain slides."""
    ctx = {4: ctx4, 5: ctx5}[n]

    def unreachable(w):
        raise AssertionError("chain slide reached for %s" % word_name(w))

    monkeypatch.setattr(ctx, "_slide_redex", unreachable)
    rnd = random.Random(n)

    def rand_word():
        return tuple(rnd.choice(ctx.letters) for _ in range(rnd.randint(1, 4)))

    cores = []
    for j in range(1, n - 1):
        for m in range(j + 1, n):
            chain = tuple(letter(T_KIND, i) for i in range(m, j - 1, -1))
            cores += [(chain + (letter(kind, g),), m - g)
                      for g in range(j + 1, m + 1)
                      for kind in (T_KIND, K_KIND)]
    assert len(cores) == {4: 8, 5: 20}[n]
    for core, at_tg in cores:
        cases = [((), ())]
        for _ in range(4):
            pre, suf = rand_word(), rand_word()
            cases += [(pre, ()), ((), suf), (pre, suf)]
        for pre, suf in cases:
            w = pre + core + suf
            start, _, _ = ctx._find_redex(w)
            assert start <= len(pre) + at_tg, word_name(w)


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

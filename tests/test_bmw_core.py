import hashlib
import itertools
import json
import math
import os
import random
import types
from fractions import Fraction as Fr

import pytest

from bmwfusion import (AlgebraContext, AlgebraElement, BrauerAlgebra,
                       DimensionMismatch, DomainMismatch, HeckeAlgebra,
                       NotGeneric, RatFunc, TruncLaurent,
                       brauer_idempotent_via_contraction, build_context,
                       enumerate_tableaux, hecke_quotient, laurent_params,
                       make_params)
from bmwfusion.bmwcore import (CLOSURE_PLANS, _read_plan, _row_table,
                               double_factorial, fold_products, jm_word,
                               letter, word_name, K_KIND, T_KIND)
from bmwfusion.combinatorics import extension_spectrum, quantum_contents
from bmwfusion.errors import NegativeValuation
from closure_plan import plan_text
from conftest import (REWRITING_STATE, RulesContext, SearchRulesContext,
                      closure_rows)


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


@pytest.fixture(scope="module")
def lctx3():
    return AlgebraContext(3, laurent_params(1, 5), verify=False)


# (label, strand count, coefficient sampler; None = rationals): the
# scalars each kind of context folds
_DOMAINS = [("rational", 2, None), ("rational", 3, None),
            ("rational", 4, None), ("laurent", 3, _laurent_coeff)]


def _domain_id(d):
    return str(d[1]) if d[0] == "rational" else "%s-%d" % d[:2]


@pytest.fixture(params=_DOMAINS, ids=_domain_id)
def domain(request, ctx2, ctx3, ctx4):
    kind, n, coeff = request.param
    if kind == "laurent":
        return request.getfixturevalue("lctx3"), coeff
    return {2: ctx2, 3: ctx3, 4: ctx4}[n], coeff


def _reference_product(a, b, rules):
    """sum c1 c2 w1 w2 with each w1 w2 rewritten by the rules of the
    context ``rules``, built cold at the parameters of a's."""
    ctx = a.algebra
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            for u, cu in rules.rules_reduce(w1 + w2).items():
                prev = out.get(u)
                out[u] = c1 * c2 * cu if prev is None \
                    else prev + c1 * c2 * cu
    return AlgebraElement(ctx, out)


def test_product_matches_reference(domain):
    ctx, coeff = domain
    rules = RulesContext(ctx.n, ctx.params, verify=False)
    rnd = random.Random(ctx.n)
    for _ in range(20):
        a = _random_element(ctx, rnd, coeff=coeff)
        b = _random_element(ctx, rnd, coeff=coeff)
        assert a * b == _reference_product(a, b, rules)
        if coeff is None:
            # a rational context's products are Fractions, never ints
            for p in (a * b, ctx.one() * ctx.one()):
                assert all(type(c) is Fr for c in p.terms.values())
    # right factors on words outside the basis, e.g. y_k spelled out
    for k in range(2, ctx.n + 1):
        a = _random_element(ctx, rnd, nterms=5, coeff=coeff)
        c = coeff(rnd) if coeff else Fr(rnd.randint(1, 6), 7)
        y = AlgebraElement(ctx, {jm_word(k): c, (): c})
        assert jm_word(k) not in ctx.word_index
        assert a * y == _reference_product(a, y, rules)
        assert a * y == a * (ctx.jm_element(k) + ctx.one()).scale(c)
    # one batch of right factors, one of them repeated and one empty: each
    # product is the one formed alone
    for _ in range(5):
        a, b1, b2 = (_random_element(ctx, rnd, coeff=coeff) for _ in range(3))
        rights = [b1, b2, b1, ctx.zero()]
        got = fold_products(ctx, a.terms, [r.terms for r in rights])
        assert [AlgebraElement(ctx, p) for p in got] == \
            [_reference_product(a, r, rules) for r in rights]


def _as_coefficients(ctx, den, rep):
    """A rule's or a rewriting's numerators, each over den: Fractions in a
    rational context, the series themselves (over 1) in a Laurent one."""
    return [(w, Fr(x, den) if ctx.rational else x) for w, x in rep]


def _reference_reduce(ctx, word):
    """word rewritten into {canonical word: coefficient} by the loop that
    carried a Fraction or a series per word: each redex of
    ``ctx._find_redex`` and then each rule of ``ctx._dyn`` applied with
    its coefficients, with no memo and no integer numerators."""
    pending = {word: ctx._one}
    done = {}
    while pending:
        w, c = pending.popitem()
        red = ctx._find_redex(w)
        if red is None:
            prev = done.get(w)
            done[w] = c if prev is None else prev + c
            continue
        lo, hi, rule = red
        pre, post = w[:lo], w[hi:]
        for frag, coeff in _as_coefficients(ctx, *rule):
            nw = pre + frag + post
            nc = c * coeff
            if nw in pending:
                nc = pending.pop(nw) + nc
            if nc != 0:
                pending[nw] = nc
    done = {w: c for w, c in done.items() if c != 0}
    if not ctx._dyn:
        return done
    dyn = {w: dict(_as_coefficients(ctx, den, rep.items()))
           for w, (den, rep) in ctx._dyn.items()}
    out = {}
    stack = list(done.items())
    while stack:
        w, c = stack.pop()
        rep = dyn.get(w)
        if rep is None:
            prev = out.get(w)
            out[w] = c if prev is None else prev + c
        else:
            for u, cu in rep.items():
                stack.append((u, c * cu))
    return {w: c for w, c in out.items() if c != 0}


def _assert_reduces_as_the_reference(ctx, words):
    """On a context that keeps its rules: the row fold of ``reduce_word``
    gives each word as the rules do, field by field."""
    for w in words:
        got = ctx.reduce_word(w)
        assert _as_stored(got) == _as_stored(_reference_reduce(ctx, w)), \
            word_name(w)
        if ctx.rational:
            assert all(type(c) is Fr for c in got.values())
    # each memoised rule holds the coefficients of its rule method
    for (name, *args), rule in ctx._rules.items():
        want = getattr(ctx, name)(*args)
        if want is None:
            assert rule is None, name
            continue
        assert [(f, _as_stored({(): c})) for f, c in want] == \
            [(f, _as_stored({(): c}))
             for f, c in _as_coefficients(ctx, *rule)], name


def _random_words(ctx, seed, count=40):
    rnd = random.Random(seed)
    return [tuple(rnd.choice(ctx.letters) for _ in range(rnd.randint(3, 10)))
            for _ in range(count)]


def test_reduce_word_matches_the_reference_on_short_words(params4):
    ctx = RulesContext(4, params4)
    words = [w for k in range(5)
             for w in itertools.product(ctx.letters, repeat=k)]
    assert len(words) == 1 + 6 + 6 ** 2 + 6 ** 3 + 6 ** 4
    _assert_reduces_as_the_reference(ctx, words)


def _rules_context(n, point, request):
    """The context at the point "q,nu" that keeps its rules."""
    q, nu = map(Fr, point.split(","))
    if n == 5 and point == "6/5,7/3":
        return request.getfixturevalue("ctx5_rules")
    return RulesContext(n, make_params(q, nu, n), verify=False)


@pytest.mark.parametrize("point", ["6/5,7/3", "-5/6,3/7"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduce_word_matches_the_reference_rational(n, point, request):
    ctx = _rules_context(n, point, request)
    _assert_reduces_as_the_reference(ctx, _random_words(ctx, n))


@pytest.mark.parametrize("omega", [5, Fr(7, 2)], ids=["5", "7_2"])
@pytest.mark.parametrize("regime", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_reduce_word_matches_the_reference_laurent(n, regime, omega):
    ctx = RulesContext(n, laurent_params(regime, omega), verify=False)
    _assert_reduces_as_the_reference(ctx, _random_words(ctx, n))


def _assert_rho_table_is_the_rules(ctx):
    """Each entry of the rho table, on a context that keeps its rules, is
    the rules' reduction of the reversed basis word, field by field; an
    entry of one word with coefficient 1 is marked to copy; the number of
    those."""
    ctx.rho(ctx.one())      # the table is made on first use
    assert list(ctx._rho) == ctx.words
    copies = 0
    for w in ctx.words:
        want = ctx.rules_reduce(w[::-1])
        got = ctx._rho[w]
        if len(want) == 1 and list(want.values()) == [1]:
            assert got == [(next(iter(want)), None)], word_name(w)
            copies += 1
        else:
            assert _as_stored(dict(got)) == _as_stored(want), word_name(w)
    return copies


@pytest.mark.parametrize("point", ["6/5,7/3", "-5/6,3/7"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_rho_table_equals_the_rules_rational(n, point, request):
    ctx = _rules_context(n, point, request)
    assert _assert_rho_table_is_the_rules(ctx) == {3: 15, 4: 105, 5: 941}[n]


@pytest.mark.parametrize("omega", [5, Fr(7, 2)], ids=["5", "7_2"])
@pytest.mark.parametrize("regime", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_rho_table_equals_the_rules_laurent(n, regime, omega):
    ctx = RulesContext(n, laurent_params(regime, omega), verify=False)
    assert _assert_rho_table_is_the_rules(ctx) == {3: 15, 4: 105}[n]


def _fold_reference(ctx, left, right):
    """left * right in TruncLaurent arithmetic, one right word at a time,
    with the fold's own steps: each letter takes the vector to the sum of
    its coefficients times the row series, every row over 1."""
    out = {}
    for w, c in right.items():
        vec = {ctx.word_index[u]: a for u, a in left.items()}
        for l in w:
            nxt = {}
            for i, a in vec.items():
                d, row = ctx._rows[l][i]
                assert d == 1
                for j, x in row:
                    nxt[j] = nxt[j] + a * x if j in nxt else a * x
            vec = nxt
        for j, a in vec.items():
            out[j] = out[j] + a * c if j in out else a * c
    return {ctx.words[j]: x for j, x in out.items()}


def _stored(f, *args):
    """Every coefficient of the products f returns as stored, a series
    with its window, or the type of the error raised."""
    try:
        prods = f(*args)
    except NegativeValuation as exc:
        return type(exc)
    return [{w: (c.val, c.prec, c.den, c.nums)
             if isinstance(c, TruncLaurent) else (type(c), c)
             for w, c in p.items()} for p in prods]


def _pole_coeff(rnd):
    """A series on [-1, 3), [0, 4) or [1, 5), or now and then a rational:
    scalars and negative valuations move the windows of products."""
    if rnd.random() < 0.2:
        return Fr(rnd.randint(-6, 6) or 1, rnd.randint(1, 4))
    return _laurent_coeff(rnd).shift(rnd.randint(-1, 1))


@pytest.fixture(scope="module")
def lctx4():
    return {r: AlgebraContext(4, laurent_params(r, 5), verify=False)
            for r in (1, 2)}


@pytest.mark.parametrize("case", ["laurent-3", "laurent-4-regime-1",
                                  "laurent-4-regime-2"])
def test_fold_keeps_the_windows_of_term_by_term_products(case, lctx3, lctx4):
    # == compares series on their common window only, so every
    # coefficient's window and storage is compared here
    ctx, coeff = {"laurent-3": (lctx3, _laurent_coeff),
                  "laurent-4-regime-1": (lctx4[1], _pole_coeff),
                  "laurent-4-regime-2": (lctx4[2], _pole_coeff)}[case]
    rnd = random.Random(case)
    for _ in range(6):
        a = _random_element(ctx, rnd, nterms=4, coeff=coeff)
        rights = [_random_element(ctx, rnd, coeff=coeff) for _ in range(3)]
        rights.append(AlgebraElement(ctx, {jm_word(ctx.n): coeff(rnd),
                                           (): coeff(rnd)}))
        alone = [_stored(fold_products, ctx, a.terms, [r.terms])
                 for r in rights]
        for r, p in zip(rights, alone):
            assert p == _stored(lambda *args: [_fold_reference(*args)], ctx,
                                a.terms, r.terms)
        # a product that raises would raise in the batch too
        if NegativeValuation not in alone:
            assert _stored(fold_products, ctx, a.terms,
                           [r.terms for r in rights]) == [p for p, in alone]


def _sum_in_order(ts):
    """ts[0] + ts[1] + ..., left to right: a scalar meets the window of
    the series summed before it."""
    return sum(ts[1:], ts[0])


def _sum_rows_by_products(got):
    """The fold's row step over series rows, every row over 1, each key
    keeping the list of its products a * x, summed in list order."""
    nxt = {}
    for a, (d, row) in got:
        assert d == 1
        for j, x in row:
            nxt.setdefault(j, []).append(a * x)
    return {j: _sum_in_order(ts) for j, ts in nxt.items()}


def _fold_by_product_lists(ctx, left, rights):
    """``fold_products`` over series coefficients with the products of
    each key in a list, by TruncLaurent ``*`` and ``+``: the same trie,
    row steps and leaves as the packed fold."""
    trie = {}
    for k, right in enumerate(rights):
        for w, c in right.items():
            node = trie
            for l in w:
                node = node.setdefault(l, {})
            node.setdefault(None, []).append((k, c))
    groups = [{} for _ in rights]
    stack = [(trie, {ctx.word_index[w]: a for w, a in left.items()})]
    while stack:
        node, nums = stack.pop()
        for l, child in node.items():
            if l is not None:
                got = [(a, ctx._rows[l][i]) for i, a in nums.items()]
                stack.append((child, _sum_rows_by_products(got)))
                continue
            for k, c2 in child:
                for j, a in nums.items():
                    groups[k].setdefault(j, []).append(a * c2)
    return [{ctx.words[j]: _sum_in_order(ts) for j, ts in g.items()}
            for g in groups]


@pytest.mark.parametrize("omega", [Fr(5), Fr(7, 2)], ids=str)
@pytest.mark.parametrize("regime", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_fold_equals_the_sums_of_its_product_lists(n, regime, omega):
    # the fused multiply-sum against the list of products per key, every
    # coefficient as stored: dense left elements times the JM factors
    # s (y_k - Y) of the interpolation, one for each Y of the spectrum
    ctx = AlgebraContext(n, laurent_params(regime, omega), verify=False)
    rights, tabs = [], enumerate_tableaux(n)
    for tab in (tabs[0], tabs[-1]):
        contents = quantum_contents(tab, ctx.params)
        for k in range(2, n + 1):
            for Y in extension_spectrum(tab.shapes[k - 2], ctx.params):
                if Y != contents[k - 1]:
                    s = 1 / (contents[k - 1] - Y)
                    rights.append((ctx.jm_element(k)
                                   - ctx.one().scale(Y)).scale(s).terms)
    rnd = random.Random("%d-%d-%s" % (n, regime, omega))
    for _ in range(2):
        left = {w: _pole_coeff(rnd) for w in ctx.words}
        assert _stored(fold_products, ctx, left, rights) == \
            _stored(_fold_by_product_lists, ctx, left, rights)


def _series_algebra(rows):
    """A Laurent row algebra on the basis keys w0, w1, ... whose letter l
    has the rows rows[l], each over 1."""
    words = ["w%d" % i for i in range(len(next(iter(rows.values()))))]
    return types.SimpleNamespace(
        rational=False, n=1, words=words,
        word_index={w: i for i, w in enumerate(words)}, _rows=rows)


@pytest.mark.parametrize("bits, B", [(63, 64), (64, 128)])
def test_packed_fold_at_its_bound(bits, B):
    # every row term of every index hits index 0 with a series on [0, 3)
    # over 3, whose column sum is then C = 3 n length x; a left vector of
    # coefficients big on [0, 3) makes the h^2 digit of the step exactly
    # M C = big C, of `bits` bits: its B has no bit to spare (at 63 bits a
    # B of 63 overflows, at 64 bits one of 64)
    n, length, x = 5, 8, 2 ** 10 + 1
    series = TruncLaurent._make(0, 3, 3, (x,) * 3)
    alg = _series_algebra({"a": [(1, ((0, series),) * length)] * n})
    big = (2 ** bits - 1) // (3 * n * length * x)
    assert (big * 3 * n * length * x).bit_length() == bits
    left = {w: TruncLaurent(0, (big,) * 3) for w in alg.words}
    rights = [{("a",): 1}, {("a",): Fr(1, 2), ("a", "a"): 1},
              {("a", "a", "a"): -1}]
    got = fold_products(alg, left, rights)
    assert _stored(lambda: got) == \
        _stored(_fold_by_product_lists, alg, left, rights)
    # the digit M C over D = 3
    assert got[0]["w0"][2] == Fr(big * 3 * n * length * x, 3)
    assert min(_row_table(alg)["a"][4]) == B


def _wide_coeff(rnd):
    """A series with 200-bit numerators over 2^k 3^k, on a window from
    h^-2 to h^1 on, or an int or Fraction of that size, now and then 0."""
    def num():
        return rnd.randint(-2 ** 200, 2 ** 200)

    def den():
        k = rnd.randint(0, 12)
        return 2 ** k * 3 ** k

    r = rnd.random()
    if r < 0.08:
        return rnd.choice((0, Fr(0)))
    if r < 0.2:
        return num()
    if r < 0.32:
        return Fr(num(), den())
    val = rnd.randint(-2, 1)
    return TruncLaurent(val, [Fr(num(), den())
                              for _ in range(rnd.randint(1, 5))],
                        val + rnd.randint(1, 5))


def _with_pole_rows(ctx):
    """ctx with a pole added to two of its row series: h^-1 in T_1's row
    on index 3, h^-2 in the last letter's row on the last index."""
    for l, i, pole in ((ctx.letters[0], 3, TruncLaurent(-1, (Fr(1, 2), 1), 2)),
                       (ctx.letters[-1], len(ctx.words) - 1,
                        TruncLaurent(-2, (Fr(3, 7), 1), 4))):
        den, ((j, c), *rest) = ctx._rows[l][i]
        ctx._rows[l][i] = (den, ((j, c + pole), *rest))
    return ctx


@pytest.mark.parametrize("regime, omega", [(1, 5), (2, Fr(7, 2))],
                         ids=["1-5", "2-7_2"])
def test_packed_fold_on_wide_coefficients_and_pole_rows(regime, omega):
    # 200-bit numerators over 2^k 3^k, ints and Fractions (zeros too) on
    # both sides, empty right words and rows with poles, against the
    # products listed per key, every coefficient as stored and in order
    ctx = _with_pole_rows(AlgebraContext(3, laurent_params(regime, omega),
                                         verify=False))
    rnd = random.Random("wide-%d-%s" % (regime, omega))
    for _ in range(12):
        left = {rnd.choice(ctx.words): _wide_coeff(rnd)
                for _ in range(rnd.randint(1, 8))}
        rights = [{tuple(rnd.choice(ctx.letters)
                         for _ in range(rnd.randint(0, 5))): _wide_coeff(rnd)
                   for _ in range(rnd.randint(0, 6))} for _ in range(3)]
        got = fold_products(ctx, left, rights)
        want = _fold_by_product_lists(ctx, left, rights)
        assert [list(p) for p in got] == [list(p) for p in want]
        assert _stored(lambda: got) == _stored(lambda: want)
    table = _row_table(ctx)
    assert table[ctx.letters[0]][1] == -1 and table[ctx.letters[-1]][1] == -2
    # the digits outgrew 64 bits and the vectors were repacked
    assert any(max(t[4]) > 64 for t in table.values())


def test_a_rebuild_forms_the_series_table_again(tmp_path):
    # the verified build folds over the edited table of its cache hit
    # before it rebuilds the rows cold: later folds must not read the rows
    # packed from the edited table
    fresh, path = _laurent_file(tmp_path)
    data = json.loads(fresh)
    s = _series_of(data)
    s[:] = [0, s[1], 1, [2] + [0] * (s[1] - 1)]
    with open(path, "w") as f:
        json.dump(data, f)
    ctx = AlgebraContext(3, laurent_params(1, 5), cache_dir=str(tmp_path),
                         verify=True)
    assert ctx.stats["cache"] == "corrupt"
    cold = AlgebraContext(3, laurent_params(1, 5), verify=False)
    rnd = random.Random("rebuild")
    left = {w: _pole_coeff(rnd) for w in ctx.words}
    rights = [{w: _pole_coeff(rnd)} for w in ctx.words]
    assert _stored(fold_products, ctx, left, rights) == \
        _stored(fold_products, cold, left, rights)


# {letter: (L_l, m_l, C_l)} of three Laurent row tables, pinned
_LAURENT_TABLES = {
    (3, 1, Fr(5)): {2: (3, 0, 389), 3: (3, 0, 279), 4: (3, 0, 229),
                    5: (3, 0, 200)},
    (3, 2, Fr(7, 2)): {2: (48, 0, 3083), 3: (48, 0, 2019),
                       4: (48, 0, 1747), 5: (48, 0, 1367)},
    (4, 1, Fr(5)): {2: (3, 0, 1756), 3: (3, 0, 1132), 4: (3, 0, 792),
                    5: (3, 0, 724), 6: (3, 0, 876), 7: (3, 0, 645)},
}


@pytest.mark.parametrize("n, regime, omega", list(_LAURENT_TABLES),
                         ids=str)
def test_row_table_of_a_laurent_context(n, regime, omega):
    # L_l the lcm of the series denominators, m_l their least valuation
    # and C_l / L_l the largest column sum of |coefficients| as rationals;
    # no integer rows, and the series rows packed per B on demand
    ctx = AlgebraContext(n, laurent_params(regime, omega), verify=False)
    table = _row_table(ctx)
    assert _row_table(ctx) is table
    assert {l: e[:3] for l, e in table.items()} == \
        _LAURENT_TABLES[n, regime, omega]
    for l, row_of in ctx._rows.items():
        xs = [x for _, pairs in row_of for _, x in pairs]
        cols = {}
        for _, pairs in row_of:
            for j, x in pairs:
                cols[j] = cols.get(j, 0) + sum(map(abs, x.coeffs))
        L, m, C, rows, packed = table[l]
        assert L == math.lcm(*(x.den for x in xs))
        assert m == min(x.val for x in xs)
        assert Fr(C, L) == max(cols.values())
        assert rows is None and packed == {}


def _jm_by_products(ctx, k):
    """y_k = T_{k-1}...T_2 T_1^2 T_2...T_{k-1}, one product at a time."""
    if k == 1:
        return ctx.one()
    y = ctx.gen_T(1) * ctx.gen_T(1)
    for i in range(2, k):
        y = ctx.gen_T(i) * y * ctx.gen_T(i)
    return y


@pytest.mark.parametrize("case", ["rational", "laurent-regime-1",
                                  "laurent-regime-2"])
def test_jm_element_is_its_defining_word(case, ctx2, ctx3, ctx4, ctx5,
                                         lctx3, lctx4):
    T1, T2 = letter(T_KIND, 1), letter(T_KIND, 2)
    assert [jm_word(k) for k in (1, 2, 3)] == [(), (T1, T1),
                                               (T2, T1, T1, T2)]
    ctxs = {"rational": (ctx2, ctx3, ctx4, ctx5),
            "laurent-regime-1": (lctx3, lctx4[1]),
            "laurent-regime-2": (lctx4[2],)}[case]
    for ctx in ctxs:
        for k in range(1, ctx.n + 1):
            # every coefficient's window too, not only == on series
            assert _stored(lambda: [ctx.jm_element(k).terms]) == \
                _stored(lambda: [_jm_by_products(ctx, k).terms])


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
    # after the build a hit reduces a word as a cold build does
    assert ctx_b.reduce_word(jm_word(3)) == ctx_a.reduce_word(jm_word(3))


def _as_stored(vec):
    """{word: coeff} with every series as stored, its window included."""
    return {w: (c.val, c.prec, c.den, c.nums)
            if isinstance(c, TruncLaurent) else c for w, c in vec.items()}


def _assert_rows_filled(ctx, params):
    """Every row of ctx is set by the build, ctx keeps no rewriting
    state, and at n <= 4 each row is the one the rules of a context with
    an empty memo reduce from scratch."""
    assert set(ctx._rows) == set(ctx.letters)
    assert not any(hasattr(ctx, a) for a in REWRITING_STATE)
    fresh = RulesContext(ctx.n, params, verify=False)
    fresh._memo.clear()
    for l in ctx.letters:
        assert len(ctx._rows[l]) == len(ctx.words)
        for w, row in zip(ctx.words, ctx._rows[l]):
            assert row is not None
            if ctx.n <= 4:
                den, pairs = row
                got = {ctx.words[j]: x if den == 1 else Fr(x, den)
                       for j, x in pairs}
                assert _as_stored(got) == _as_stored(
                    fresh.rules_reduce(w + (l,))), word_name(w + (l,))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rows_filled_at_build_rational(n, tmp_path):
    params = make_params(Fr(6, 5), Fr(7, 3), n)
    for state in ("miss", "hit"):
        ctx = AlgebraContext(n, params, cache_dir=str(tmp_path))
        assert ctx.stats["cache"] == state
        _assert_rows_filled(ctx, params)


@pytest.mark.parametrize("regime", [1, 2])
def test_rows_filled_at_build_laurent(regime):
    params = laurent_params(regime, 5)
    _assert_rows_filled(AlgebraContext(3, params), params)


@pytest.mark.parametrize("n, q, nu", [(n, Fr(6, 5), Fr(7, 3))
                                      for n in range(1, 6)]
                         + [(4, Fr(-5, 6), Fr(3, 7))])
def test_cache_hit_runs_no_closure(n, q, nu, tmp_path, request, monkeypatch):
    """A hit loads the words and rows the cold build wrote: no closure,
    no rewriting and no rules, every row as the cold build stored it."""
    cold = request.getfixturevalue("ctx5") if n == 5 else \
        build_context(n, q=q, nu=nu, cache_dir=str(tmp_path))

    def closure(*args):
        pytest.fail("a cache hit rewrote words")

    monkeypatch.setattr(AlgebraContext, "_close", closure)
    monkeypatch.setattr(AlgebraContext, "_reduce", closure)
    monkeypatch.setattr(AlgebraContext, "reduce_word", closure)
    warm = AlgebraContext(n, cold.params,
                          cache_dir=os.path.dirname(cold._cache_path))
    assert warm.stats == {"cache": "hit", "closure": "cache",
                          "rules_added": 0}
    assert warm.words == cold.words
    assert warm.word_index == cold.word_index
    assert warm._rows == cold._rows
    for ctx in (cold, warm):
        assert not any(hasattr(ctx, a) for a in REWRITING_STATE)


def _warm_and_cold(n, params, request, tmp_path):
    """A cold build of n at params that wrote its cache file (ctx5 at n =
    5), and a warm build read from that file."""
    cold = request.getfixturevalue("ctx5") if n == 5 else \
        AlgebraContext(n, params, cache_dir=str(tmp_path))
    warm = AlgebraContext(n, params,
                          cache_dir=os.path.dirname(cold._cache_path))
    assert (cold.stats["cache"], warm.stats["cache"]) == ("miss", "hit")
    return cold, warm


@pytest.mark.parametrize("n, regime", [(3, 0), (4, 0), (5, 0), (3, 1),
                                       (4, 2)])
def test_warm_from_terms_and_rho_equal_the_cold_ones(n, regime, request,
                                                     tmp_path):
    """Words outside the basis, with seeded coefficients, and rho of
    seeded elements give a warm context what they give a cold one, field
    by field; regime 0 is the rational pair (6/5, 7/3)."""
    params = make_params(Fr(6, 5), Fr(7, 3), n) if regime == 0 else \
        laurent_params(regime, Fr(7, 2))
    cold, warm = _warm_and_cold(n, params, request, tmp_path)
    rnd = random.Random(n)
    coeff = _laurent_coeff if regime else None
    terms = {w: coeff(rnd) if coeff else Fr(rnd.randint(1, 9), 7)
             for w in _random_words(cold, n)}
    assert any(w not in cold.word_index for w in terms)
    elems = [_random_element(cold, rnd, nterms=9, coeff=coeff)
             for _ in range(10)]
    got, want = ([ctx.from_terms(terms)] + [
        ctx.rho(AlgebraElement(ctx, e.terms)) for e in elems]
        for ctx in (warm, cold))
    assert [_as_stored(e.terms) for e in got] == \
        [_as_stored(e.terms) for e in want]


def test_built_context_holds_no_rewriting_state(ctx2, ctx3, ctx4, ctx5,
                                                tmp_path):
    """Cold or warm, rational or Laurent, a built context keeps no rules;
    a context that keeps them has each of the names."""
    kept = RulesContext(3, make_params(Fr(6, 5), Fr(7, 3), 3))
    assert all(hasattr(kept, a) for a in REWRITING_STATE)
    built = [ctx2, ctx3, ctx4, ctx5]
    for params in (make_params(Fr(6, 5), Fr(7, 3), 3),
                   laurent_params(1, 5), laurent_params(2, Fr(7, 2))):
        built += [AlgebraContext(3, params, cache_dir=str(tmp_path))
                  for _ in ("miss", "hit")]
    assert [c.stats["cache"] for c in built[4:]] == ["miss", "hit"] * 3
    for ctx in built:
        assert not [a for a in REWRITING_STATE if hasattr(ctx, a)], ctx.n


def test_format_3_cache_file_is_a_miss(tmp_path):
    """A format-3 payload, rules included, under the format-4 file name is
    a miss, and the build writes the file again with no rules."""
    def build():
        return build_context(3, q=Fr(6, 5), nu=Fr(7, 3),
                             cache_dir=str(tmp_path))

    path = build()._cache_path
    with open(path) as f:
        fresh = f.read()
    data = json.loads(fresh)
    assert "dyn" not in data and data["version"] == 4
    data.update(version=3, dyn=[{"word": [5, 3, 5],
                                 "expansion": [[[5], "1"]]}])
    with open(path, "w") as f:
        json.dump(data, f)
    assert build().stats["cache"] == "miss"
    with open(path) as f:
        assert f.read() == fresh
    assert build().stats["cache"] == "hit"


# sha256 of the cache files at (6/5, 7/3) for n = 2, 3, 4
CACHE_SHA256 = {
    2: "20a276e3ccd787184bc06285115466facb4498561515484ba0927437db8ebbbb",
    3: "21f1d27ce602e4076d68ec18fcd6d231d6bb8e16d5cba5eadfd5563b0fc2bc59",
    4: "f5b6c7aded9dfa1c7e969db3ba2af8d91c980676c5af690432db401a64333bb7",
}


@pytest.mark.parametrize("n", sorted(CACHE_SHA256))
def test_cache_file_pinned(n, tmp_path):
    ctx = build_context(n, q=Fr(6, 5), nu=Fr(7, 3), cache_dir=str(tmp_path))
    with open(ctx._cache_path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == CACHE_SHA256[n]


@pytest.mark.parametrize("n", [3, 4])
def test_cache_file_of_other_parameters_is_rebuilt(n, tmp_path):
    def build(q, nu, cache):
        return build_context(n, q=q, nu=nu, cache_dir=str(tmp_path / cache))

    # a file recorded at (6/5, 7/3) under the key of (-5/6, 3/7)
    want = build(Fr(6, 5), Fr(7, 3), "a")
    path = build(Fr(-5, 6), Fr(3, 7), "b")._cache_path
    with open(path, "rb") as f:
        rebuilt = f.read()
    with open(want._cache_path, "rb") as f:
        stale = f.read()
    with open(path, "wb") as f:
        f.write(stale)
    assert build(Fr(-5, 6), Fr(3, 7), "b").stats["cache"] == "corrupt"
    with open(path, "rb") as f:
        assert f.read() == rebuilt
    assert build(Fr(-5, 6), Fr(3, 7), "b").stats["cache"] == "hit"
    # a file whose recorded n differs is corrupt too
    data = json.loads(rebuilt)
    data["n"] = n + 1
    with open(path, "w") as f:
        json.dump(data, f)
    assert build(Fr(-5, 6), Fr(3, 7), "b").stats["cache"] == "corrupt"


# sha256 of the n = 5 cache file at (6/5, 7/3): it pins the words and rows
N5_CACHE_SHA256 = \
    "44ceca5940a8e3f7c35a61c9aba46fc4b5d22d442f09af211fa795c42b103242"


def test_n5_cache_file_pinned(ctx5, ctx5_search, ctx5_rules):
    path = ctx5._cache_path
    with open(path, "rb") as f:
        data = f.read()
    assert hashlib.sha256(data).hexdigest() == N5_CACHE_SHA256
    with open(ctx5_search._cache_path, "rb") as f:
        assert f.read() == data, "search and replay wrote other files"
    assert sorted(json.loads(data)) == ["n", "nu", "q", "rows", "version",
                                        "words"]
    assert len(ctx5_rules._dyn) == 309
    inode = os.stat(path).st_ino
    warm = build_context(5, q=Fr(6, 5), nu=Fr(7, 3),
                         cache_dir=os.path.dirname(path))
    assert warm.words == ctx5.words
    assert os.stat(path).st_ino == inode, "warm build rewrote the cache"
    assert warm.stats == {"cache": "hit", "closure": "cache",
                          "rules_added": 0}


def test_search_records_the_committed_plan(params4, ctx5_search):
    # the regenerator writes CLOSURE_PLANS[4] and [5] token for token:
    # 8 rules in 6 groups, and 309 rules in 232 groups
    searches = {4: SearchRulesContext(4, params4), 5: ctx5_search}
    for n, rules, groups in ((4, 8, 6), (5, 309, 232)):
        plan = list(_read_plan(CLOSURE_PLANS[n]))
        assert len(plan) == rules
        assert sum(starts for *_, starts in plan) == groups
        # on failure the message is the plan to commit
        assert searches[n].plan == plan, plan_text(searches[n].plan)
        assert plan_text(plan) == " ".join(CLOSURE_PLANS[n].split())


def test_no_plan_below_four_strands():
    # the hand-derived rules close n <= 3 alone; the search adds no rule
    assert sorted(CLOSURE_PLANS) == [4, 5]
    for n in (1, 2, 3):
        ctx = SearchRulesContext(n, make_params(Fr(6, 5), Fr(7, 3), n))
        assert ctx.plan == [] and not ctx._dyn
        assert len(ctx.words) == double_factorial(2 * n - 1)


# the two words outside the basis that the rules leave in the closure's
# memo: each is a word with no redex and no elimination rule
OFF_BASIS_N5 = [(2, 7, 4, 2, 8, 6, 5, 2), (4, 2, 7, 4, 2, 8, 6, 5, 2)]


def test_reduce_word_returns_canonical_words(ctx5, ctx5_rules):
    """After a cold build that keeps its rules, the rules reduce every
    memoised word to words that have no elimination rule.  The row fold
    of ``reduce_word`` on a library context gives basis words only, the
    rules' reduction wherever that lies on the basis.  The memoised words
    whose reduction leaves the basis are OFF_BASIS_N5 and two longer words
    whose reductions hold one of them."""
    dyn, widx = ctx5_rules._dyn, ctx5.word_index
    stale, off_basis, reached = [], [], set()
    for w in list(ctx5_rules._memo):
        got, fold = ctx5_rules.rules_reduce(w), ctx5.reduce_word(w)
        if not dyn.keys().isdisjoint(got) or not widx.keys() >= fold.keys():
            stale.append(word_name(w))
        elif not widx.keys() >= got.keys():
            off_basis.append(w)
            reached.update(got.keys() - widx.keys())
        elif got != fold:
            stale.append(word_name(w))
    assert not stale, stale[:5]
    assert sorted(off_basis) == sorted(OFF_BASIS_N5 + [
        (2, 4, 7, 4, 2, 8, 6, 5, 2), (2, 4, 2, 7, 4, 2, 8, 6, 5, 2)])
    assert sorted(reached) == sorted(OFF_BASIS_N5)
    assert all(ctx5_rules.rules_reduce(w) == {w: 1} for w in OFF_BASIS_N5)


def test_from_terms_of_a_word_the_rules_leave_off_the_basis(ctx5):
    """The rules left these words as they are, so ``from_terms`` gave an
    element on a word outside the basis, and its product a KeyError; the
    row fold gives the product of the word's generators."""
    for w in OFF_BASIS_N5:
        got = ctx5.from_terms({w: Fr(3, 7)})
        assert got.terms.keys() <= ctx5.word_index.keys()
        want = ctx5.one()
        for l in w:
            want = want * ctx5._generator(l & 1, l >> 1)
        assert got == want.scale(Fr(3, 7))
        assert got * ctx5.one() == got


def test_an_element_on_a_word_off_the_basis_is_a_domain_mismatch(ctx3):
    """An element built directly on a word outside the basis ended in a
    bare KeyError in rho and as a left factor; both name the word now.  As
    a right factor the word is spelled out and folded."""
    e = AlgebraElement(ctx3, {jm_word(3): Fr(2)})
    for bad in (lambda: ctx3.rho(e), lambda: e * ctx3.one()):
        with pytest.raises(DomainMismatch,
                           match=r"^T2\*T1\*T1\*T2 is not a basis key"):
            bad()
    assert ctx3.one() * e == ctx3.jm_element(3).scale(Fr(2))


def test_a_right_factor_on_a_foreign_letter_is_a_domain_mismatch(ctx3):
    """A right factor on a letter with no rows ended in a bare KeyError
    in the fold; it names the letter now."""
    e = AlgebraElement(ctx3, {(9,): Fr(1)})
    with pytest.raises(DomainMismatch, match="^letter 9 outside the gen"):
        ctx3.one() * e
    with pytest.raises(DomainMismatch, match="^letter 9 outside the gen"):
        fold_products(ctx3, ctx3.one().terms,
                      [{(letter(T_KIND, 1),): Fr(1)},
                       {(letter(T_KIND, 1), 9): Fr(1)}])


def test_replay_equals_search(ctx5, ctx5_search, ctx5_rules):
    assert ctx5.stats["closure"] == ctx5_rules.stats["closure"] == "replay"
    assert ctx5_search.stats["closure"] == "search"
    assert ctx5_rules._dyn == ctx5_search._dyn
    assert ctx5.words == ctx5_search.words == ctx5_rules.words
    assert closure_rows(ctx5) == closure_rows(ctx5_search) == \
        closure_rows(ctx5_rules)


def _build_with_plan(monkeypatch, plan):
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    monkeypatch.setitem(CLOSURE_PLANS, 5, plan_text(plan))
    return build_context(5, q=Fr(6, 5), nu=Fr(7, 3))


def test_replay_rejects_a_short_plan(monkeypatch):
    plan = list(_read_plan(CLOSURE_PLANS[5]))
    with pytest.raises(DimensionMismatch,
                       match="after 82 plan entries, expected 945 for n=5"):
        _build_with_plan(monkeypatch, plan[:82])


def test_replay_rejects_a_vanished_defect(monkeypatch):
    plan = list(_read_plan(CLOSURE_PLANS[5]))
    # without the first rule, the defect of the 12th entry left vanishes
    w, g, h, _ = plan[12]
    with pytest.raises(DimensionMismatch) as got:
        _build_with_plan(monkeypatch, plan[1:])
    assert str(got.value) == "closure plan entry 12 (%s.%d%d) for n=5: the" \
        " defect vanishes" % ("".join(map(str, w)), g, h)
    # T1 T2 is canonical, so the defect of ((), T1, T2) is zero at once
    with pytest.raises(DimensionMismatch) as got:
        _build_with_plan(monkeypatch, [((), 2, 4, True)] + plan)
    assert str(got.value) == "closure plan entry 1 (.24) for n=5: the" \
        " defect vanishes"


def test_replay_rejects_a_lead_that_has_a_rule(monkeypatch):
    plan = list(_read_plan(CLOSURE_PLANS[5]))
    # w = T1 T2 T3 T2 K1 is the first rule's lead and w T1 = nu w, so
    # the defect of (w, T1, T1) leads with w itself, unreduced
    w = (2, 4, 6, 4, 3)
    with pytest.raises(DimensionMismatch) as got:
        _build_with_plan(monkeypatch, plan[:1] + [(w, 2, 2, True)] + plan[1:])
    assert str(got.value) == "closure plan entry 2 (24643.22) for n=5: its" \
        " lead T1*T2*T3*T2*K1 has a rule"


def test_build_stats(ctx4, ctx5, ctx5_search):
    # the rewrite counts are the redexes applied and the _find_redex calls
    # of the cold build: at n = 5 the replay's 11,795 and 12,866, then
    # 19,933 and 20,119 in the closure; at n = 4 the replay's 88 and 142
    assert ctx5.stats == {"cache": "miss", "closure": "replay",
                          "rules_added": 309, "rewrite_steps": 31728,
                          "redex_searches": 32985}
    assert ctx5_search.stats == {"cache": "miss", "closure": "search",
                                 "rules_added": 309, "rewrite_steps": 91643,
                                 "redex_searches": 92986}
    assert set(ctx4.stats) == {"cache", "closure", "rules_added",
                               "rewrite_steps", "redex_searches"}
    assert ctx4.stats["closure"] == "replay"
    assert ctx4.stats["rules_added"] == 8
    assert ctx4.stats["rewrite_steps"] == 1169
    assert ctx4.stats["redex_searches"] == 1282


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


def test_edited_cache_table_is_rebuilt_and_rewritten(tmp_path, monkeypatch):
    # a hit whose table fails the relation suite used to raise
    # DIMENSION_MISMATCH on every later build, the file never rewritten
    monkeypatch.delenv("BMWF_CACHE", raising=False)

    def build():
        return build_context(3, q=Fr(6, 5), nu=Fr(7, 3),
                             cache_dir=str(tmp_path))

    path = build()._cache_path
    with open(path) as f:
        fresh = f.read()
    # one numerator of the row of T1 * T1 (letter T1, basis word T1)
    data = json.loads(fresh)
    data["rows"][0][1][1][0][1] += 1
    with open(path, "w") as f:
        json.dump(data, f)
    ctx = build()
    assert ctx.stats["cache"] == "corrupt"
    assert all(r["ok"] for r in ctx.verify_relations())
    with open(path) as f:
        assert f.read() == fresh
    assert build().stats["cache"] == "hit"
    # a cold build that fails the suite still raises
    monkeypatch.setattr(AlgebraContext, "verify_relations",
                        lambda self: [{"relation": "x", "instance": "",
                                       "ok": False}])
    with pytest.raises(DimensionMismatch):
        build()


def _stored_table(ctx):
    """The rows of ctx with every series as stored."""
    return {l: [(den, [(j, (x.val, x.prec, x.den, x.nums)) for j, x in pairs])
                for den, pairs in row_of] for l, row_of in ctx._rows.items()}


def _laurent_round_trip(n, params, cache_dir, monkeypatch):
    """A cold build that keeps its rules, then a warm one that must hit
    with no closure, no rewriting and no rules and leave the file as it
    was; both contexts."""
    cold = RulesContext(n, params, cache_dir=cache_dir, verify=False)
    assert cold.stats["cache"] == "miss"
    inode = os.stat(cold._cache_path).st_ino

    def closure(*args):
        pytest.fail("a cache hit rewrote words")

    with monkeypatch.context() as m:
        m.setattr(AlgebraContext, "_close", closure)
        m.setattr(AlgebraContext, "_reduce", closure)
        m.setattr(AlgebraContext, "reduce_word", closure)
        warm = AlgebraContext(n, params, cache_dir=cache_dir, verify=False)
    assert warm.stats == {"cache": "hit", "closure": "cache",
                          "rules_added": 0}
    assert os.stat(cold._cache_path).st_ino == inode, "a hit rewrote the file"
    assert warm.words == cold.words
    assert warm.word_index == cold.word_index
    assert not any(hasattr(warm, a) for a in REWRITING_STATE)
    assert _stored_table(warm) == _stored_table(cold)
    return cold, warm


# sha256 of the Laurent cache files with 4 series terms, regime 1 at
# omega = 5 and regime 2 at omega = 7/2: they pin the words, the rows and
# every series window
LAURENT_CACHE_SHA256 = {
    (2, 1, 5):
        "b5199a97eaaddd6bd1a2b511babd628f3df4cdf90b88d464fb280d0031b2ce6d",
    (3, 1, 5):
        "d06021e29710706baea16ea530a7a85acaae3fd740aef7bbd51cd70cff6cac26",
    (4, 1, 5):
        "a1c05839deed05eb218b033afd927bc2165cde7696b46214a523f6bed678b2e9",
    (2, 2, Fr(7, 2)):
        "cdce5c2d6f0c406c8e2f24123d6ac9cb2b7a3b39b57e286579a2397dae8008c1",
    (3, 2, Fr(7, 2)):
        "9445b9be08ca4d06e26638875625e82b54d0a607c3bb68ff614c1bd56712b436",
    (4, 2, Fr(7, 2)):
        "7e7dfddc78c9f0581fe3b27c844556892768ba964e39a62035aad2118bd55569",
}

# the same for the n = 5 file of regime 1 at omega = 5 with 5 terms
LAURENT_N5_CACHE_SHA256 = \
    "6f983307555a94413f155694ab2fc535016b272ff44f1d7b916fe90b84b9e7af"


def _file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("regime", [1, 2])
@pytest.mark.parametrize("omega", [5, Fr(7, 2)], ids=["5", "7_2"])
def test_laurent_cache_round_trip(n, regime, omega, tmp_path, monkeypatch):
    cold, warm = _laurent_round_trip(n, laurent_params(regime, omega),
                                     str(tmp_path), monkeypatch)
    pin = LAURENT_CACHE_SHA256.get((n, regime, omega))
    assert pin is None or _file_sha256(cold._cache_path) == pin
    # every tableau at n <= 3, every 6th at n = 4
    for tab in enumerate_tableaux(n)[::6 if n == 4 else 1]:
        want = brauer_idempotent_via_contraction(tab, regime, omega, ctx=cold)
        got = brauer_idempotent_via_contraction(tab, regime, omega, ctx=warm)
        assert got.terms == want.terms, tab.encode()


def test_laurent_cache_round_trip_n5(tmp_path, monkeypatch):
    cold, _ = _laurent_round_trip(5, laurent_params(1, 5, 5), str(tmp_path),
                                  monkeypatch)
    assert len(cold._dyn) == 309
    assert _file_sha256(cold._cache_path) == LAURENT_N5_CACHE_SHA256


def _laurent_file(tmp_path):
    """The fresh text and path of the n = 3 regime-1 cache file."""
    ctx = AlgebraContext(3, laurent_params(1, 5), cache_dir=str(tmp_path),
                         verify=False)
    with open(ctx._cache_path) as f:
        return f.read(), ctx._cache_path


def _series_of(data):
    """The series [val, prec, den, nums] of the row T1 * T1 at basis
    index 0 (the word 1)."""
    return data["rows"][0][1][1][0][1]


def _non_normal(s):
    s[2] *= 2
    s[3] = [2 * x for x in s[3]]


def _leading_zero(s):
    s[0] -= 1
    s[3].insert(0, 0)


@pytest.mark.parametrize("corrupt", [
    _non_normal, _leading_zero, lambda s: s[3].append(0),
    lambda s: s[3].__setitem__(0, float(s[3][0])),
    lambda s: s.__setitem__(1, str(s[1])),
    lambda s: s.__setitem__(2, 0), lambda s: s.pop()],
    ids=["non-normal", "leading-zero", "window-length", "float-numerator",
         "text-precision", "zero-denominator", "three-fields"])
def test_malformed_laurent_cache_is_rebuilt(corrupt, tmp_path):
    fresh, path = _laurent_file(tmp_path)
    data = json.loads(fresh)
    corrupt(_series_of(data))
    with open(path, "w") as f:
        json.dump(data, f)

    def state():
        return AlgebraContext(3, laurent_params(1, 5), cache_dir=str(tmp_path),
                              verify=False).stats["cache"]

    assert state() == "corrupt"
    with open(path) as f:
        assert f.read() == fresh
    assert state() == "hit"


def test_laurent_cache_row_off_denominator_1_is_rebuilt(tmp_path):
    # the build writes every series row over 1; a row of T_1 over 2 was
    # served by an unverified load, and gen_T(1) read 1 T_1 there while
    # one() * gen_T(1) folded to T_1 / 2
    fresh, path = _laurent_file(tmp_path)
    data = json.loads(fresh)
    assert {den for row_of in data["rows"] for den, _ in row_of} == {1}
    data["rows"][0][0][0] = 2           # T_1 on the word 1
    with open(path, "w") as f:
        json.dump(data, f)

    def build():
        return AlgebraContext(3, laurent_params(1, 5),
                              cache_dir=str(tmp_path), verify=False)

    ctx = build()
    assert ctx.stats["cache"] == "corrupt"
    assert ctx.one() * ctx.gen_T(1) == ctx.gen_T(1)
    with open(path) as f:
        assert f.read() == fresh
    assert build().stats["cache"] == "hit"


def test_laurent_cache_of_other_series_is_rebuilt(tmp_path):
    fresh, path = _laurent_file(tmp_path)
    for key, value in (("label", "regime2(omega=5)"),
                       ("q", json.loads(fresh)["nu"])):
        data = json.loads(fresh)
        data[key] = value
        with open(path, "w") as f:
            json.dump(data, f)
        ctx = AlgebraContext(3, laurent_params(1, 5),
                             cache_dir=str(tmp_path), verify=False)
        assert ctx.stats["cache"] == "corrupt", key
        with open(path) as f:
            assert f.read() == fresh


def test_laurent_cache_file_is_read_only_by_its_series(tmp_path):
    _, path = _laurent_file(tmp_path)
    others = [laurent_params(2, 5), laurent_params(1, Fr(7, 2)),
              laurent_params(1, 5, 5), laurent_params(1, 5, 3)]
    for params in others:
        ctx = AlgebraContext(3, params, cache_dir=str(tmp_path), verify=False)
        assert ctx.stats["cache"] == "miss", params.label
        assert ctx._cache_path != path
    assert len(os.listdir(tmp_path)) == 1 + len(others)


def test_edited_laurent_table_is_rebuilt_by_a_verified_build(tmp_path):
    fresh, path = _laurent_file(tmp_path)
    data = json.loads(fresh)
    # T1 * T1 = 2 + ...: normal form, wrong product
    s = _series_of(data)
    s[:] = [0, s[1], 1, [2] + [0] * (s[1] - 1)]
    with open(path, "w") as f:
        json.dump(data, f)

    def build(verify):
        return AlgebraContext(3, laurent_params(1, 5),
                              cache_dir=str(tmp_path), verify=verify)

    # unchecked, the edited table is served, as a rational one is
    assert build(False).stats["cache"] == "hit"
    ctx = build(True)
    assert ctx.stats["cache"] == "corrupt"
    assert all(r["ok"] for r in ctx.verify_relations())
    with open(path) as f:
        assert f.read() == fresh


def test_canonical_words_are_searched_once(tmp_path, monkeypatch):
    """The rewriting looks for a redex in a canonical word once per cold
    build: an n = 5 build at (6/5, 7/3) ran 55,201 redex searches without
    that, 23,473 of them on 1,257 canonical words.  The file is the
    pinned one."""
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    found = []
    search = AlgebraContext._find_redex

    def counted(self, w):
        red = search(self, w)
        found.append(red is None)
        return red

    monkeypatch.setattr(AlgebraContext, "_find_redex", counted)
    ctx = RulesContext(5, make_params(Fr(6, 5), Fr(7, 3), 5),
                       cache_dir=str(tmp_path))
    assert len(found) == 55201 - 23473 + 1257
    assert sum(found) == len(ctx._canonical) == 1257
    assert all(search(ctx, w) is None for w in ctx._canonical)
    with open(ctx._cache_path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == N5_CACHE_SHA256


@pytest.mark.parametrize("n", [4, 5])
def test_chain_followed_by_a_slid_letter_is_an_f_redex(n, params4,
                                                       ctx5_rules):
    """A word with (T_m..T_j) X_g, j+1 <= g <= m, contains the F-family
    redex T_g T_{g-1} [T_{g-2}..T_j] X_g: ``_find_redex`` returns a redex
    starting at or before T_g."""
    ctx = RulesContext(4, params4) if n == 4 else ctx5_rules
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


@pytest.mark.parametrize("case", ["bmw-ratfunc", "bmw-series",
                                  "hecke-ratfunc", "hecke-series",
                                  "laurent-ratfunc"])
def test_fold_refuses_a_scalar_outside_the_algebra(case, ctx3, lctx3):
    # integer rows fold ints and Fractions, series rows also series; a
    # RatFunc on a Laurent context ended in a bare AttributeError
    kind, scalar = case.split("-")
    alg = {"bmw": ctx3, "hecke": HeckeAlgebra(3, Fr(6, 5)),
           "laurent": lctx3}[kind]
    x = {"ratfunc": RatFunc.variable("u"),
         "series": TruncLaurent.exp_h(1, 4)}[scalar]
    odd = alg.element_type(alg, {alg.words[0]: x})
    T1 = alg.gen_T(1)

    def spelled(e):
        return {alg.spell(k): c for k, c in e.terms.items()}

    for a, b in ((odd, T1), (T1, odd), (odd, odd)):
        with pytest.raises(DomainMismatch, match="outside the scalars"):
            a * b
        with pytest.raises(DomainMismatch, match="outside the scalars"):
            fold_products(alg, a.terms, [spelled(T1), spelled(b)])


def test_equal_parameter_algebras_mix():
    h1, h2 = HeckeAlgebra(3, Fr(6, 5)), HeckeAlgebra(3, Fr(6, 5))
    assert h1 == h2
    assert (h1.gen_T(1) * h2.gen_T(2)) == h2.gen_T(1) * h1.gen_T(2)
    b1, b2 = BrauerAlgebra(3, 5), BrauerAlgebra(3, 5)
    assert (b1.e(1) + b2.s(2)) == b2.e(1) + b1.s(2)

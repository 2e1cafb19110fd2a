"""Acceptance suite.

Every check is exact (zero tolerance): equalities of elements with
rational, rational-function or truncated-series coefficients.  One
pass/fail line per criterion is printed in the terminal summary.
"""

import random
import time
from fractions import Fraction as Fr

import pytest

from conftest import Q, NU, record_acceptance

from bmwfusion import (BrauerAlgebra, HeckeAlgebra,
                       brauer_idempotent_via_contraction, check_reflection,
                       complete_system_checks, contraction_block_check,
                       enumerate_tableaux, fusion_idempotent,
                       hecke_family_idempotent, hecke_quotient,
                       jm_oracle_idempotent, laurent_params, quantum_contents,
                       structure_constant_oracle, symmetrizer,
                       antisymmetrizer, verify_idempotent)
from bmwfusion.bmwcore import AlgebraContext, double_factorial, T_KIND, \
    letter_kind
from bmwfusion.fusion import (SpectralView, baxterized_Q, baxterized_T,
                              baxterized_T_inverse, pole_factor_f)
from bmwfusion.errors import BmwError


def _report(num, ok, text):
    line = "ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", text)
    record_acceptance(line)
    print(line)
    assert ok, line


def test_criterion_1_bmw2_closed_forms(ctx2):
    t0 = time.time()
    ctx = ctx2
    q, nu, d, mu = ctx.params.q, ctx.params.nu, ctx.params.delta, \
        ctx.params.mu
    one, T1, K1 = ctx.one(), ctx.gen_T(1), ctx.gen_K(1)
    S = (T1 + one.scale(1 / q) + K1.scale(d / (1 - q / nu))) \
        .scale(1 / (q + 1 / q))
    A = (T1 - one.scale(q) + K1.scale(d / (1 + 1 / (q * nu)))) \
        .scale(Fr(-1) / (q + 1 / q))
    P = K1.scale(1 / mu)
    want = {q ** 2: S, q ** -2: A, nu ** 2: P}
    ok = True
    for tab in enumerate_tableaux(2):
        idem = fusion_idempotent(tab, ctx)
        ok = ok and (idem.element - want[idem.contents[1]]).is_zero()
    took = time.time() - t0
    ok = ok and took < 1.0
    _report(1, ok, "BMW_2 fusion reproduces S, A, Pi exactly "
            "(%.2fs < 1s)" % took)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_2_complete_systems(n, ctx2, ctx3, ctx4):
    t0 = time.time()
    ctx = {2: ctx2, 3: ctx3, 4: ctx4}[n]
    tabs = enumerate_tableaux(n)
    idems = [jm_oracle_idempotent(t, ctx) for t in tabs]
    ok = True
    for idem in idems:
        E = idem.element
        ok = ok and (E * E - E).is_zero()
        for j, cj in enumerate(idem.contents, start=1):
            ok = ok and (ctx.jm_element(j) * E - E.scale(cj)).is_zero()
    total = ctx.zero()
    for idem in idems:
        total = total + idem.element
    ok = ok and (total - ctx.one()).is_zero()
    for a in range(len(idems)):
        for b in range(len(idems)):
            if a != b:
                ok = ok and (idems[a].element * idems[b].element).is_zero()
    took = time.time() - t0
    if n == 4:
        ok = ok and took < 300
    _report(2, ok, "complete system at n=%d: %d idempotents, E^2=E, "
            "orthogonal, sum=1, JM eigenvalues (%.0fs)" % (n, len(tabs),
                                                           took))


def test_criterion_2_stretch_n5(ctx5):
    """The n=5 system as ``bmwf idempotents`` verifies it: tableau count by
    enumeration, distinct content sequences, then
    ``complete_system_checks``, whose certificate (completeness and
    E y_j = c_j E) proves orthogonality and every idempotent's flags
    E^2=E, y_j E = c_j E and rho(E) = E exactly.  Sampled direct products
    E_a E_b, E E and rho(E) cross-check it."""
    ctx = ctx5
    tabs = enumerate_tableaux(5)
    idems = [jm_oracle_idempotent(t, ctx) for t in tabs]
    ok = len(tabs) == len({quantum_contents(t, ctx.params) for t in tabs})
    ok = ok and complete_system_checks(idems, ctx) == {"orthogonal": True,
                                                       "complete": True}
    for idem in idems:
        if not idem.verified:
            verify_idempotent(idem, ctx)
        ok = ok and len(idem.verified) == 3 and all(idem.verified.values())
    rnd = random.Random(0)
    for _ in range(10):
        a, b = rnd.sample(range(len(idems)), 2)
        ok = ok and (idems[a].element * idems[b].element).is_zero()
    for a in rnd.sample(range(len(idems)), 10):
        E = idems[a].element
        ok = ok and (E * E - E).is_zero() and ctx.rho(E) == E
    _report(2, ok, "stretch n=5: %d idempotents verified" % len(tabs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_3_oracle_equivalence(n, ctx2, ctx3, ctx4):
    ctx = {2: ctx2, 3: ctx3, 4: ctx4}[n]
    ok = True
    for tab in enumerate_tableaux(n):
        fi = fusion_idempotent(tab, ctx)
        ji = jm_oracle_idempotent(tab, ctx)
        ok = ok and (fi.element - ji.element).is_zero()
    _report(3, ok, "fusion = JM interpolation on every tableau, n=%d" % n)


def test_criterion_3_oracle_equivalence_n5(ctx5):
    tabs = enumerate_tableaux(5)
    assert len(tabs) == 81
    ok = all(fusion_idempotent(tab, ctx5).element
             == jm_oracle_idempotent(tab, ctx5).element for tab in tabs)
    _report(3, ok, "fusion = JM interpolation on every one of the 81 "
            "tableaux, n=5")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_4_symmetrizers(n, ctx2, ctx3, ctx4):
    ctx = {2: ctx2, 3: ctx3, 4: ctx4}[n]
    q = ctx.params.q
    ok = True
    for fn, lam in ((symmetrizer, q), (antisymmetrizer, -1 / q)):
        chain = fn(n, ctx, "chain")
        ok = ok and (chain - fn(n, ctx, "y-product")).is_zero()
        ok = ok and (chain - fn(n, ctx, "fusion")).is_zero()
        for i in range(1, n):
            ok = ok and (ctx.gen_T(i) * chain - chain.scale(lam)).is_zero()
            ok = ok and (chain * ctx.gen_T(i) - chain.scale(lam)).is_zero()
            ok = ok and (ctx.gen_K(i) * chain).is_zero()
    _report(4, ok, "S_n/A_n: chain, Y-product and fusion forms coincide; "
            "eigenvalues and kappa-annihilation, n=%d" % n)


def test_criterion_5_identity_suites(ctx4):
    ctx = ctx4
    view = SpectralView.of(ctx.params)
    rnd = random.Random(0)
    ok = True
    counts = {"yangbaxter": 0, "inverse": 0, "mixed": 0, "reflL": 0,
              "reflY": 0}

    def rand_frac():
        return Fr(rnd.randint(1, 9) * rnd.choice((1, -1)), rnd.randint(1, 7))

    while counts["yangbaxter"] < 10:
        u1, u2, u3 = (rand_frac() for _ in range(3))
        i = rnd.randint(1, 2)
        try:
            lhs = baxterized_T(ctx, i, u2, u3, view) * \
                baxterized_T(ctx, i + 1, u1, u3, view) * \
                baxterized_T(ctx, i, u1, u2, view)
            rhs = baxterized_T(ctx, i + 1, u1, u2, view) * \
                baxterized_T(ctx, i, u1, u3, view) * \
                baxterized_T(ctx, i + 1, u2, u3, view)
            mix_l = baxterized_T(ctx, i, u2, u3, view) * \
                baxterized_Q(ctx, i + 1, u1, u3, view) * \
                baxterized_Q(ctx, i, u1, u2, view)
            mix_r = baxterized_Q(ctx, i + 1, u1, u2, view) * \
                baxterized_Q(ctx, i, u1, u3, view) * \
                baxterized_T(ctx, i + 1, u2, u3, view)
        except BmwError:
            continue
        ok = ok and (lhs - rhs).is_zero() and (mix_l - mix_r).is_zero()
        counts["yangbaxter"] += 1
        counts["mixed"] += 1
    while counts["inverse"] < 10:
        u, v = rand_frac(), rand_frac()
        try:
            inv = baxterized_T_inverse(ctx, 1, v, u, view)
            f = pole_factor_f(u, v, view)
        except BmwError:
            continue
        ok = ok and (baxterized_T(ctx, 1, v, u, view) * inv
                     - ctx.one()).is_zero()
        ok = ok and f == pole_factor_f(v, u, view)
        counts["inverse"] += 1
    q = ctx.params.q
    content_sets = {1: (), 2: (Fr(1),), 3: (Fr(1), q ** 2)}
    for j in (1, 2, 3):
        done = 0
        while done < 10:
            u, v = rand_frac(), rand_frac()
            try:
                okL = check_reflection(ctx, j, u, v, "L")
                okY = check_reflection(ctx, j, u, v, "Y",
                                       contents=content_sets[j])
            except BmwError:
                continue
            ok = ok and okL and okY
            done += 1
            counts["reflL"] += 1
            counts["reflY"] += 1
    _report(5, ok, "identity suites exact at >=10 seeded tuples each: "
            "%s" % counts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_6_hecke_family(n, ctx2, ctx3, ctx4, ctx5):
    # at n = 5 one c besides 0, and no pairwise products: the 650 products
    # of the 26 idempotents in H_5 would take longer than the rest
    ctx = {2: ctx2, 3: ctx3, 4: ctx4, 5: ctx5}[n]
    hk = HeckeAlgebra(n, ctx.params.q)
    tabs = [t for t in enumerate_tableaux(n) if t.is_standard()]
    cs = [Fr(0), Fr(1, 2), Fr(-2, 3), Fr(3, 7)][:2 if n == 5 else 4]
    ok = True
    idems = []
    for tab in tabs:
        base = hecke_family_idempotent(tab, cs[0], hk, ctx.params)
        idems.append(base)
        ok = ok and (base * base - base).is_zero()
        for cp in cs[1:]:
            e = hecke_family_idempotent(tab, cp, hk, ctx.params)
            ok = ok and (e - base).is_zero()
        quo = hecke_quotient(fusion_idempotent(tab, ctx).element, hk)
        fam_at_c = hecke_family_idempotent(tab, ctx.params.c, hk, ctx.params)
        ok = ok and (quo - fam_at_c).is_zero() and (quo - base).is_zero()
    total = hk.zero()
    for a, e in enumerate(idems):
        total = total + e
        for b, f in enumerate(idems if n < 5 else ()):
            if a != b:
                ok = ok and (e * f).is_zero()
    ok = ok and (total - hk.one()).is_zero()
    _report(6, ok, "Hecke family idempotents: c-independent over %d values "
            "incl. 0, %s and complete, and equal to the kappa->0 quotient "
            "at c=-1/(q nu), n=%d (%d standard tableaux)"
            % (len(cs), "orthogonal" if n < 5 else "idempotent", n,
               len(tabs)))


def test_criterion_7_contraction():
    rnd = random.Random(1)
    ok = True
    done = 0
    while done < 10:
        th1 = Fr(rnd.randint(-6, 6), rnd.randint(1, 4))
        th2 = Fr(rnd.randint(-6, 6), rnd.randint(1, 4))
        om = Fr(rnd.randint(3, 9), rnd.choice((1, 2)))
        if th1 == th2 or th1 + th2 == 0 or abs(th1 - th2) == om / 2 - 1 \
                or th1 + th2 == om / 2 - 1:
            continue
        for regime in (1, 2):
            res = contraction_block_check(regime, 1, th1, th2, om)
            ok = ok and all(res.values())
        done += 1
    omega = Fr(5)
    for n in (2, 3):
        lctx = AlgebraContext(n, laurent_params(1, omega, 4), verify=False)
        ok = ok and structure_constant_oracle(lctx, omega)["ok"]
    for regime in (1, 2):
        for n in (2, 3):
            lctx = AlgebraContext(n, laurent_params(regime, omega, 4),
                                  verify=False)
            brauer = BrauerAlgebra(n, omega)
            tabs = enumerate_tableaux(n)
            idems = [brauer_idempotent_via_contraction(
                t, regime, omega, ctx=lctx) for t in tabs]
            total = brauer.zero()
            for i, e in enumerate(idems):
                ok = ok and (e * e - e).is_zero()
                total = total + e
                for j, f in enumerate(idems):
                    if i != j:
                        ok = ok and (e * f).is_zero()
            ok = ok and (total - brauer.one()).is_zero()
    lctx1 = AlgebraContext(2, laurent_params(1, omega, 4), verify=False)
    lctx2 = AlgebraContext(2, laurent_params(2, omega, 4), verify=False)
    for tab in enumerate_tableaux(2):
        a = brauer_idempotent_via_contraction(tab, 2, omega, ctx=lctx2)
        b = brauer_idempotent_via_contraction(tab.transpose(), 1, omega,
                                              ctx=lctx1)
        ok = ok and (a - b).is_zero()
    _report(7, ok, "contraction: block limits (10 random triples, both "
            "regimes), structure constants h^0 = Brauer (n<=3), "
            "idempotent systems in B_n(omega), regime-2 = regime-1 "
            "on transposes")


def test_criterion_8_structural_counts(ctx2, ctx3, ctx4, ctx5):
    ok = True
    contexts = {2: ctx2, 3: ctx3, 4: ctx4, 5: ctx5}
    for n, ctx in contexts.items():
        ok = ok and len(ctx.words) == double_factorial(2 * n - 1)
        kfree = sum(1 for w in ctx.words
                    if all(letter_kind(l) == T_KIND for l in w))
        fact = 1
        for m in range(2, n + 1):
            fact *= m
        ok = ok and kfree == fact
    for n in (2, 3, 4, 5):
        ok = ok and len(BrauerAlgebra(n, Fr(5)).words) == \
            double_factorial(2 * n - 1)
    hk = HeckeAlgebra(4, Q)
    ok = ok and len(hk.words) == 24
    # associativity, >=100 random triples per algebra
    rnd = random.Random(2)
    ctx = contexts[3]
    for _ in range(100):
        xs = []
        for _ in range(3):
            terms = {rnd.choice(ctx.words): Fr(rnd.randint(-5, 5) or 1)
                     for _ in range(3)}
            xs.append(ctx.from_terms(terms))
        a, b, c = xs
        ok = ok and ((a * b) * c - a * (b * c)).is_zero()
    hk3 = HeckeAlgebra(3, Q)
    perms = hk3.words
    for _ in range(100):
        xs = []
        for _ in range(3):
            terms = {rnd.choice(perms): Fr(rnd.randint(-5, 5) or 1)
                     for _ in range(3)}
            xs.append(hk3.from_terms(terms))
        a, b, c = xs
        ok = ok and ((a * b) * c - a * (b * c)).is_zero()
    B3 = BrauerAlgebra(3, Fr(5))
    diagrams = B3.words
    for _ in range(100):
        xs = []
        for _ in range(3):
            terms = {rnd.choice(diagrams): Fr(rnd.randint(-5, 5) or 1)
                     for _ in range(3)}
            xs.append(B3.from_terms(terms))
        a, b, c = xs
        ok = ok and ((a * b) * c - a * (b * c)).is_zero()
    _report(8, ok, "canonical-word counts (2n-1)!! (BMW & Brauer, n<=5), "
            "n! for Hecke, K-free words = n!; associativity on 100 random "
            "triples per algebra")

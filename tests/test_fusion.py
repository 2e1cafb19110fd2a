import dataclasses
import math
import os
import random
import types
from fractions import Fraction as Fr
from operator import mul

import pytest

from bmwfusion import (BrauerAlgebra, DomainMismatch, HeckeAlgebra,
                       Idempotent, PoleAtEvaluation,
                       PoleError, SpectralView, Y_script, antisymmetrizer,
                       baxterized_Q, baxterized_T, baxterized_T_inverse,
                       build_context, check_reflection,
                       complete_system_checks,
                       enumerate_tableaux, fusion_idempotent,
                       hecke_family_idempotent, jm_oracle_idempotent,
                       laurent_params, make_params, quantum_contents,
                       symmetrizer, verify_idempotent)
from bmwfusion import fusion
from bmwfusion.bmwcore import T_KIND, AlgebraContext, AlgebraElement, letter
from bmwfusion.combinatorics import extension_spectrum
from bmwfusion.errors import BmwError, NonInvertible
from bmwfusion.fusion import (L_operator, baxterized_T_one_arg,
                              consecutive_evaluation, fusion_step,
                              pole_factor_f)
from bmwfusion.scalars import RatFunc


def closed_forms(ctx):
    """S, A, Pi of BMW_2 from their quadratic closed forms."""
    q, nu = ctx.params.q, ctx.params.nu
    d, mu = ctx.params.delta, ctx.params.mu
    one, T1, K1 = ctx.one(), ctx.gen_T(1), ctx.gen_K(1)
    S = (T1 + one.scale(1 / q) + K1.scale(d / (1 - q / nu))) \
        .scale(1 / (q + 1 / q))
    A = (T1 - one.scale(q) + K1.scale(d / (1 + 1 / (q * nu)))) \
        .scale(Fr(-1) / (q + 1 / q))
    P = K1.scale(1 / mu)
    return S, A, P


def test_bmw2_closed_forms_and_projector_decomposition(ctx2):
    ctx = ctx2
    q, nu = ctx.params.q, ctx.params.nu
    S, A, P = closed_forms(ctx)
    one, T1 = ctx.one(), ctx.gen_T(1)
    # the quadratic forms agree with the factored forms
    S2 = (T1 + one.scale(1 / q)) * (T1 - one.scale(nu)) \
        .scale(1 / ((q + 1 / q) * (q - nu)))
    A2 = (T1 - one.scale(q)) * (T1 - one.scale(nu)) \
        .scale(1 / ((-1 / q - q) * (-1 / q - nu)))
    P2 = (T1 - one.scale(q)) * (T1 + one.scale(1 / q)) \
        .scale(1 / ((nu - q) * (nu + 1 / q)))
    assert (S - S2).is_zero() and (A - A2).is_zero() and (P - P2).is_zero()
    assert (T1 - (S.scale(q) - A.scale(1 / q) + P.scale(nu))).is_zero()


def test_fusion_reproduces_bmw2_projectors(ctx2):
    ctx = ctx2
    q, nu = ctx.params.q, ctx.params.nu
    S, A, P = closed_forms(ctx)
    by_content = {q ** 2: S, q ** -2: A, nu ** 2: P}
    for tab in enumerate_tableaux(2):
        idem = fusion_idempotent(tab, ctx)
        want = by_content[idem.contents[1]]
        assert (idem.element - want).is_zero()
        flags = verify_idempotent(idem, ctx)
        assert all(flags.values())


def test_antisymmetrizer_is_baxterized_projector(ctx2):
    ctx = ctx2
    q = ctx.params.q
    _, A, _ = closed_forms(ctx)
    view = SpectralView.of(ctx.params)
    TQ = baxterized_T_one_arg(ctx, 1, q ** 2, view)
    assert (TQ - A.scale(-(q + 1 / q))).is_zero()


def test_jm_oracle_explicit_form_bmw2(ctx2):
    ctx = ctx2
    q, nu = ctx.params.q, ctx.params.nu
    y2 = ctx.jm_element(2)
    one = ctx.one()
    S, A, P = closed_forms(ctx)
    ES = (y2 - one.scale(q ** -2)) * (y2 - one.scale(nu ** 2)) \
        .scale(1 / ((q ** 2 - q ** -2) * (q ** 2 - nu ** 2)))
    assert (ES - S).is_zero()
    EP = (y2 - one.scale(q ** 2)) * (y2 - one.scale(q ** -2)) \
        .scale(1 / ((nu ** 2 - q ** 2) * (nu ** 2 - q ** -2)))
    assert (EP - P).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_equivalence_and_system(n, ctx2, ctx3):
    ctx = {2: ctx2, 3: ctx3}[n]
    tabs = enumerate_tableaux(n)
    idems = []
    for tab in tabs:
        fi = fusion_idempotent(tab, ctx)
        ji = jm_oracle_idempotent(tab, ctx)
        assert (fi.element - ji.element).is_zero()
        assert all(verify_idempotent(fi, ctx).values())
        idems.append(fi)
    checks = complete_system_checks(idems, ctx)
    assert checks["orthogonal"] and checks["complete"]


def test_system_checks_see_a_broken_system(ctx3, monkeypatch):
    idems = [jm_oracle_idempotent(t, ctx3) for t in enumerate_tableaux(3)]
    for idem in idems:      # the context keeps every eigenvalue verdict
        assert verify_idempotent(idem, ctx3) == direct_flags(idem, ctx3)
    # one coefficient of a copy changed, its contents kept, and the change
    # taken back in a second copy, so the system still sums to 1
    w, c = next(iter(idems[0].element.terms.items()))
    N = AlgebraElement(ctx3, {w: c + 1})
    edited = [dataclasses.replace(idems[0], element=idems[0].element + N),
              dataclasses.replace(idems[1], element=idems[1].element - N)]
    for idem in fresh(edited):
        flags = verify_idempotent(idem, ctx3)
        assert flags == direct_flags(idem, ctx3)
        assert not flags["jm_eigenvalues"]
    systems = [edited + idems[2:]]
    for a, b in ((0, 1), (len(idems) - 1, 0)):
        broken = list(idems)
        broken[a] = dataclasses.replace(
            idems[a], element=idems[a].element + idems[b].element)
        systems.append(broken)
    systems += [idems[:a] + idems[a + 1:] for a in (0, len(idems) - 1)]
    by_products = []
    products = fusion._orthogonal_by_products
    monkeypatch.setattr(fusion, "_orthogonal_by_products", lambda idems, ctx:
                        by_products.append(idems) or products(idems, ctx))
    got = []
    for system in systems:
        copies = fresh(system)
        got.append(complete_system_checks(copies, ctx3))
        assert got[-1] == direct_system(system, ctx3)
        assert not any(i.verified for i in copies)
        for idem in copies:
            assert verify_idempotent(idem, ctx3) == direct_flags(idem, ctx3)
    # the edited system sums to 1, so only the eigenvalue check, formed
    # again on its terms, keeps it from the certificate
    assert got[0] == {"orthogonal": False, "complete": True}
    assert all(not all(g.values()) for g in got)
    assert len(by_products) == len(systems)


def test_verify_idempotent_refuses_a_mislabelled_idempotent(ctx3):
    tabs = enumerate_tableaux(3)
    E = jm_oracle_idempotent(tabs[2], ctx3)
    other = build_context(3, q=Fr(-5, 6), nu=Fr(3, 7))
    for name, idem in [
            ("default contents", Idempotent(tabs[5], E.element, E.method)),
            ("another tableau's contents",
             dataclasses.replace(E, tableau=tabs[5])),
            ("contents longer than n",
             dataclasses.replace(E, contents=E.contents + (Fr(2),))),
            ("tableau longer than n",
             dataclasses.replace(E, tableau=enumerate_tableaux(4)[0])),
            ("another context's element",
             jm_oracle_idempotent(tabs[2], other))]:
        with pytest.raises(DomainMismatch):
            verify_idempotent(idem, ctx3)
        assert not idem.verified, name


def test_system_checks_refuse_a_mislabelled_system(ctx3):
    # the first two tableau labels swapped, elements and contents kept
    idems = [jm_oracle_idempotent(t, ctx3) for t in enumerate_tableaux(3)]
    swapped = [dataclasses.replace(idems[0], tableau=idems[1].tableau),
               dataclasses.replace(idems[1], tableau=idems[0].tableau)]
    for system in (swapped + idems[2:], idems[2:] + swapped):
        copies = fresh(system)
        with pytest.raises(DomainMismatch):
            complete_system_checks(copies, ctx3)
        assert not any(i.verified for i in copies)


@pytest.mark.parametrize("build", [fusion_idempotent, jm_oracle_idempotent])
def test_idempotents_need_a_bmw_context(build, params4):
    tab = enumerate_tableaux(3)[0]
    for ctx in (HeckeAlgebra(4, params4.q), BrauerAlgebra(4, 5), None):
        with pytest.raises(DomainMismatch):
            build(tab, ctx)


@pytest.mark.parametrize("build", [fusion_idempotent, jm_oracle_idempotent])
def test_tableau_longer_than_the_algebra(build, ctx2, ctx3):
    with pytest.raises(DomainMismatch):
        build(enumerate_tableaux(3)[0], ctx2)
    # a shorter tableau builds its idempotent in the larger algebra
    for tab in enumerate_tableaux(2):
        assert all(verify_idempotent(build(tab, ctx3), ctx3).values())


@pytest.mark.parametrize("regime, omega", [(1, 5), (2, Fr(7, 2))])
def test_fusion_on_a_laurent_context_is_a_domain_mismatch(regime, omega,
                                                          monkeypatch):
    # it ended in a bare AttributeError from the rational step
    ctx = AlgebraContext(3, laurent_params(regime, omega), verify=False)

    def arithmetic(*args):
        pytest.fail("the fusion step ran on a Laurent context")

    monkeypatch.setattr(fusion, "quantum_contents", arithmetic)
    monkeypatch.setattr(fusion, "consecutive_evaluation", arithmetic)
    for tab in enumerate_tableaux(3):
        with pytest.raises(DomainMismatch):
            fusion_idempotent(tab, ctx)


def test_pole_at_equal_arguments(ctx2):
    view = SpectralView.of(ctx2.params)
    with pytest.raises(PoleError):
        baxterized_T(ctx2, 1, Fr(3), Fr(3), view)
    with pytest.raises(PoleError):
        pole_factor_f(ctx2.params.q ** 2 * Fr(2), Fr(2), view)


def test_q_element_is_one_argument_baxterized(ctx3):
    view = SpectralView.of(ctx3.params)
    rnd = random.Random(2)
    for _ in range(5):
        u = Fr(rnd.randint(1, 9), rnd.randint(1, 5))
        v = Fr(rnd.randint(1, 9), rnd.randint(1, 5))
        lhs = baxterized_Q(ctx3, 1, u, v, view)
        rhs = baxterized_T_one_arg(ctx3, 1, 1 / (view.c * u * v), view)
        assert (lhs - rhs).is_zero()


def test_baxterized_inverse_and_symmetry(ctx3):
    view = SpectralView.of(ctx3.params)
    u, v = Fr(2), Fr(1)
    inv = baxterized_T_inverse(ctx3, 1, v, u, view)
    assert (baxterized_T(ctx3, 1, v, u, view) * inv - ctx3.one()).is_zero()
    assert pole_factor_f(u, v, view) == pole_factor_f(v, u, view)


def test_yang_baxter_suites(ctx3):
    view = SpectralView.of(ctx3.params)
    rnd = random.Random(0)
    done = 0
    while done < 10:
        u1, u2, u3 = (Fr(rnd.randint(1, 9), rnd.randint(1, 7))
                      for _ in range(3))
        try:
            lhs = baxterized_T(ctx3, 1, u2, u3, view) * \
                baxterized_T(ctx3, 2, u1, u3, view) * \
                baxterized_T(ctx3, 1, u1, u2, view)
            rhs = baxterized_T(ctx3, 2, u1, u2, view) * \
                baxterized_T(ctx3, 1, u1, u3, view) * \
                baxterized_T(ctx3, 2, u2, u3, view)
            mixed_l = baxterized_T(ctx3, 1, u2, u3, view) * \
                baxterized_Q(ctx3, 2, u1, u3, view) * \
                baxterized_Q(ctx3, 1, u1, u2, view)
            mixed_r = baxterized_Q(ctx3, 2, u1, u2, view) * \
                baxterized_Q(ctx3, 1, u1, u3, view) * \
                baxterized_T(ctx3, 2, u2, u3, view)
        except PoleError:
            continue
        done += 1
        assert (lhs - rhs).is_zero()
        assert (mixed_l - mixed_r).is_zero()


def test_y_function_base_case(ctx3):
    view = SpectralView.of(ctx3.params)
    u = RatFunc.variable("u")
    y1 = Y_script(ctx3, 1, (), u, view)
    scal = (view.c * u - 1) / (u - 1)
    assert set(y1.terms) == {()}
    assert y1.terms[()] == scal


def test_reflection_equation_suites(ctx3, ctx4):
    rnd = random.Random(4)
    done = 0
    while done < 10:
        u = Fr(rnd.randint(1, 9), rnd.randint(1, 7))
        v = Fr(rnd.randint(1, 9), rnd.randint(1, 7))
        try:
            okL = check_reflection(ctx3, 2, u, v, "L")
            okY = check_reflection(ctx3, 2, u, v, "Y", contents=(Fr(1),))
        except Exception:
            continue
        done += 1
        assert okL and okY
    q = ctx4.params.q
    assert check_reflection(ctx4, 3, Fr(3), Fr(7), "Y",
                            contents=(Fr(1), q ** 2))


def test_reflection_noninvertible(ctx3):
    from bmwfusion import NonInvertible
    q = ctx3.params.q
    with pytest.raises(NonInvertible):
        check_reflection(ctx3, 2, q ** 2, Fr(3), "L")


@pytest.mark.parametrize("n", [3, 4])
def test_L_operator_inverts_u_minus_y(n, ctx3, ctx4):
    ctx = {3: ctx3, 4: ctx4}[n]
    c = ctx.params.c
    one = ctx.one()
    for j in range(1, n + 1):
        y = ctx.jm_element(j)
        for u in (Fr(2, 7), Fr(-3), Fr(5, 4)):
            L = L_operator(ctx, j, u)
            assert L * (one.scale(u) - y) == y.scale(c * u) - one


@pytest.mark.parametrize("n", [3, 4])
def test_L_operator_noninvertible_at_every_content(n, ctx3, ctx4):
    ctx = {3: ctx3, 4: ctx4}[n]
    for j in range(1, n + 1):
        spectrum = {quantum_contents(t, ctx.params)[j - 1]
                    for t in enumerate_tableaux(n)}
        for c in spectrum:
            with pytest.raises(NonInvertible):
                L_operator(ctx, j, c)


def test_L_operator_rejects_an_index_outside_1_to_n(ctx3):
    for j in (0, 4):
        with pytest.raises(IndexError):
            L_operator(ctx3, j, Fr(2, 7))


@pytest.mark.parametrize("regime, omega", [(1, 5), (2, Fr(7, 2))])
def test_L_operator_on_a_laurent_context_is_a_domain_mismatch(regime, omega):
    # it ended in a bare TypeError: series contents are not hashable
    ctx = AlgebraContext(3, laurent_params(regime, omega), verify=False)
    with pytest.raises(DomainMismatch):
        L_operator(ctx, 2, Fr(2, 7))
    with pytest.raises(DomainMismatch):
        check_reflection(ctx, 2, Fr(3), Fr(7), "L")


def test_L_operator_checks_the_annihilating_polynomial(ctx3, monkeypatch):
    # with a content missing, m(t) no longer annihilates y_j
    import bmwfusion.fusion as fusion
    monkeypatch.setattr(fusion, "enumerate_tableaux",
                        lambda j: enumerate_tableaux(j)[:1])
    with pytest.raises(BmwError) as info:
        L_operator(ctx3, 3, Fr(2, 7))
    assert info.type is BmwError


def test_symmetrizer_forms_and_eigen(ctx3):
    ctx = ctx3
    q = ctx.params.q
    for fn, lam in ((symmetrizer, q), (antisymmetrizer, -1 / q)):
        chain = fn(3, ctx, "chain")
        ypr = fn(3, ctx, "y-product")
        fus = fn(3, ctx, "fusion")
        assert (chain - ypr).is_zero()
        assert (chain - fus).is_zero()
        for i in (1, 2):
            assert (ctx.gen_T(i) * chain - chain.scale(lam)).is_zero()
            assert (chain * ctx.gen_T(i) - chain.scale(lam)).is_zero()
            assert (ctx.gen_K(i) * chain).is_zero()


@pytest.mark.parametrize("n, power", [(3, 9), (4, 11)])
def test_symmetrizer_forms_agree_at_nu_a_power_of_q(n, power):
    # nu = q^(2n+3) passes the genericity checklist, but is a pole of the
    # y-product and fusion prefactors taken at the starred view
    q = Fr(6, 5)
    ctx = build_context(n, q=q, nu=q ** power)
    for fn in (symmetrizer, antisymmetrizer):
        chain = fn(n, ctx, "chain")
        assert fn(n, ctx, "y-product") == chain
        assert fn(n, ctx, "fusion") == chain


@pytest.mark.parametrize("form", ["chain", "y-product", "fusion"])
def test_symmetrizers_reject_a_bad_strand_count(form, ctx3):
    for fn in (symmetrizer, antisymmetrizer):
        for n in (0, -1, ctx3.n + 1):
            with pytest.raises(DomainMismatch):
                fn(n, ctx3, form)


def test_starred_fusion_gives_transpose(ctx3):
    star = SpectralView.of(ctx3.params).starred()
    for tab in enumerate_tableaux(3):
        st = consecutive_evaluation(ctx3, quantum_contents(tab, star), star)
        tr = fusion_idempotent(tab.transpose(), ctx3)
        assert (st - tr.element).is_zero()


def test_rho_symmetry_of_idempotents(ctx3):
    for tab in enumerate_tableaux(3):
        E = fusion_idempotent(tab, ctx3).element
        assert (ctx3.rho(E) - E).is_zero()


def test_projector_eigenvalues_of_baxterized_factors(ctx2):
    # the two factors appearing in the two-box evaluations act on the
    # projectors as computed scalars: T1(q^-2) S = (q + q^-1) S and
    # T1(q^2) annihilates S and Pi
    ctx = ctx2
    q = ctx.params.q
    view = SpectralView.of(ctx.params)
    S, A, P = closed_forms(ctx)
    t_low = baxterized_T_one_arg(ctx, 1, q ** -2, view)
    assert (t_low * S - S.scale(q + 1 / q)).is_zero()
    t_high = baxterized_T_one_arg(ctx, 1, q ** 2, view)
    assert (t_high * S).is_zero() and (t_high * P).is_zero()


def test_inverse_identity_at_spec_point():
    # T1(v,u) [T1(u,v) f(u,v)] = 1 at u=2, v=1 with q=2, nu=3
    from bmwfusion import build_context
    ctx = build_context(2, q=Fr(2), nu=Fr(3))
    view = SpectralView.of(ctx.params)
    u, v = Fr(2), Fr(1)
    assert pole_factor_f(u, v, view) == Fr(-2, 7)
    prod = baxterized_T(ctx, 1, v, u, view) * \
        baxterized_T_inverse(ctx, 1, v, u, view)
    assert (prod - ctx.one()).is_zero()


# ---------------------------------------------------------------------------
# the fusion step against exact interpolation at rational points
# ---------------------------------------------------------------------------

def times_Y(E_prev, contents, k, ctx, view, u):
    """E_prev Y_k(c_1, ..., c_{k-1}, u) at a rational u, through the
    baxterized factors and element products: phi(u) but its prefactor,
    so it does not depend on c_k."""
    E = E_prev
    for m in range(k - 1, 0, -1):
        E = E * baxterized_Q(ctx, m, contents[m - 1], u, view)
    E = E.scale((view.c * u - 1) / (u - 1))
    for m in range(1, k):
        E = E * baxterized_T_inverse(ctx, m, u, contents[m - 1], view)
    return E


def denominator(contents, k, view):
    """The 5k - 3 linear factors f0 + f1 u, as (f0, f1), whose product D
    makes phi D a polynomial of degree <= 5k - 3, read off the closed
    forms: u - 1 of the Y_1 scalar, c u c_k - 1 of the prefactor, and per
    i < k (c c_i u - 1)(1 + (q/nu) c c_i u) of Q_i(c_i, u) and
    (c_i + (q/nu) u)(u - q^2 c_i)(u - q^-2 c_i) of T_i(c_i, u)^-1, whose
    T_i(c_i, u) cancels one u - c_i of f(c_i, u)."""
    c, r, q2 = view.c, view.q / view.nu, view.q * view.q
    out = [(-1, 1), (-1, c * contents[k - 1])]
    for ci in contents[:k - 1]:
        out += [(-1, c * ci), (1, r * c * ci), (ci, r), (-q2 * ci, 1),
                (-ci / q2, 1)]
    return out


def combine(coeffs, points):
    """sum_i coeffs[i] f_i nums_i over points = [(f_i, {word: int})], as
    (L, {word: numerator over L})."""
    fs = [a * f for a, (f, _) in zip(coeffs, points)]
    L = math.lcm(*(f.denominator for f in fs))
    out = {}
    for f, (_, nums) in zip(fs, points):
        a = f.numerator * (L // f.denominator)
        for w, x in nums.items():
            out[w] = out.get(w, 0) + a * x
    return L, out


def interpolation_step(E_prev, contents, k, ctx, view, products):
    """The fusion step by exact interpolation over the rationals: N =
    phi D at 5k - 2 rational points off the poles, and at one more where
    the interpolant must agree (a factor list that misses a pole of phi
    fails there); N and D expanded in h = u - c_k, and phi(c_k) =
    N_m / D_m, with m the order of c_k as a root of D; a nonzero N_j,
    j < m, is a true pole.
    ``products`` keeps {u: E_prev Y_k(u)} for the next content of the
    same prefix."""
    ck = contents[k - 1]
    factors = denominator(contents, k, view)
    assert len(factors) == 5 * k - 3
    points, us, u = [], [], Fr(1)
    while len(points) < 5 * k - 1:
        u = -u if u > 0 else 1 - u          # 1, -1, 2, -2, 3, ...
        D = math.prod(f0 + f1 * u for f0, f1 in factors)
        if not D or u in contents[:k]:  # f(c_i, c_i) = 0 raises PoleError
            continue
        E = products.get(u)
        if E is None:
            E = products[u] = times_Y(E_prev, contents, k, ctx, view, u)
        den = math.lcm(*(x.denominator for x in E.terms.values()))
        f = D * (u - ck) / (view.c * ck * u - 1) / den
        points.append((f, {w: x.numerator * (den // x.denominator)
                           for w, x in E.terms.items()}))
        us.append(u - ck)
    # D to h^m, and the h^j coefficients, j <= m, of the Lagrange basis
    # polynomials of the first 5k - 2 nodes and their values at the last
    m, d = 0, [Fr(1)]
    for f0, f1 in factors:
        m += not f0 + f1 * ck
        d = [(f0 + f1 * ck) * x + f1 * y for x, y in zip(d + [0], [0] + d)]
    *hs, extra = us
    weights, at = [], []
    for i, hi in enumerate(hs):
        others = hs[:i] + hs[i + 1:]
        basis = [Fr(1)]
        for h in others:            # times h_var - h, to h^m
            basis = [y - h * x for x, y in
                     zip(basis + [0], [0] + basis)][:m + 1]
        scale = math.prod(hi - h for h in others)
        weights.append([x / scale for x in basis])
        at.append(math.prod(extra - h for h in others) / scale)
    *points, (f, nums) = points
    L, got = combine(at, points)
    assert {w: Fr(x, L) for w, x in got.items() if x} == \
        {w: f * x for w, x in nums.items()}, \
        "phi D is no polynomial of degree <= 5k - 3"
    N = [combine([ws[j] for ws in weights], points) for j in range(m + 1)]
    if any(any(got.values()) for _, got in N[:m]):
        raise PoleAtEvaluation("pole of phi at u = %s" % ck)
    L, got = N[m]
    return ctx.element_type(ctx, {w: Fr(x, L) / d[m]
                                  for w, x in got.items() if x})


def reference_path(contents, ctx, view, memo):
    """[E_2, ..., E_len] of ``interpolation_step`` from E_1 = 1, None for
    a pole and the path cut there; ``memo`` keeps {content prefix: (its
    E, its products for the next step)}."""
    E, products = memo.setdefault(contents[:1], (ctx.one(), {}))
    path = []
    for k in range(2, len(contents) + 1):
        got = memo.get(contents[:k])
        if got is None:
            try:
                got = interpolation_step(E, contents, k, ctx, view, products)
            except PoleAtEvaluation:
                got = None
            got = memo[contents[:k]] = (got, {})
        E, products = got
        path.append(E)
        if E is None:
            break
    return path


def assert_steps_match_reference(contents, ctx, view, memo):
    """fusion_step = interpolation_step at every step, each from the
    reference's previous idempotent, a pole of the one a pole of the
    other; the last idempotent, or None after a pole."""
    E = ctx.one()
    for k, want in enumerate(reference_path(contents, ctx, view, memo), 2):
        if want is None:
            with pytest.raises(PoleAtEvaluation):
                fusion_step(E, contents, k, ctx, view)
            return None
        assert fusion_step(E, contents, k, ctx, view) == want, (contents, k)
        E = want
    return E


@pytest.mark.parametrize("point", ["6/5,7/3", "-5/6,3/7"])
def test_fusion_step_matches_interpolation(point):
    q, nu = map(Fr, point.split(","))
    ctx = build_context(4, q=q, nu=nu)
    tabs = enumerate_tableaux(4)
    assert len(tabs) == 25          # their prefixes are every n <= 3 one
    plain = SpectralView.of(ctx.params)
    # the plain view and the starred one, q -> -1/q
    for view in (plain, plain.starred()):
        memo = {}
        for tab in tabs:
            contents = quantum_contents(tab, view)
            want = assert_steps_match_reference(contents, ctx, view, memo)
            if view is plain:
                got = fusion_idempotent(tab, ctx).element
            else:
                got = consecutive_evaluation(ctx, contents, view)
            assert got == want, tab.encode()


def test_hecke_family_matches_interpolation():
    # both points, every c of the CLI Hecke suite
    for q, nu in ((Fr(6, 5), Fr(7, 3)), (Fr(-5, 6), Fr(3, 7))):
        params = make_params(q, nu, 4)
        hk = HeckeAlgebra(4, q)
        tabs = [t for t in enumerate_tableaux(4) if t.is_standard()]
        assert len(tabs) == 10
        for c in (Fr(0), Fr(1, 2), Fr(-2, 3), params.c):
            view = SpectralView(q=q, nu=nu, c=c)
            memo = {}
            for tab in tabs:
                want = assert_steps_match_reference(
                    quantum_contents(tab, params), hk, view, memo)
                assert hecke_family_idempotent(tab, c, hk, params) == want, \
                    (tab.encode(), c)


# no tableau has these contents (c c_1 c_2 = 1 and c_2 c_3 = nu^2); the
# first two steps are regular and the third has a true pole
def true_pole_contents(view):
    return (Fr(2), 1 / (2 * view.c), -2 * view.nu / view.q)


def test_fusion_step_true_pole_matches_reference(ctx3):
    view = SpectralView.of(ctx3.params)
    contents = true_pole_contents(view)
    path = reference_path(contents, ctx3, view, {})
    assert [E is None for E in path] == [False, True]
    assert assert_steps_match_reference(contents, ctx3, view, {}) is None


def test_interpolation_refuses_a_wrong_denominator(ctx3, monkeypatch):
    # u - 3 for the prefactor's c u c_3 - 1 at step 3: phi D keeps that
    # pole, so it is no polynomial, and the extra point tells
    view = SpectralView.of(ctx3.params)
    contents = quantum_contents(enumerate_tableaux(3)[0], view)
    right, pre = denominator, (-1, view.c * contents[2])
    monkeypatch.setitem(globals(), "denominator", lambda *args: [
        (-3, 1) if f == pre else f for f in right(*args)])
    with pytest.raises(AssertionError, match="no polynomial"):
        reference_path(contents, ctx3, view, {})


def test_fusion_step_makes_2k_minus_3_passes(ctx4, params4, monkeypatch):
    # the middle pair Q_1 T_1(c_1, u)^-1 as one factor, the closing scalar
    # in the first: one row pass per factor of Y_k but one
    passes = []
    apply_block = fusion._apply_block
    monkeypatch.setattr(fusion, "_apply_block", lambda *a: passes.append(
        1) or apply_block(*a))
    hk = HeckeAlgebra(4, params4.q)
    plain = SpectralView.of(params4)
    runs = [(ctx4, plain, t) for t in enumerate_tableaux(4)]
    runs += [(ctx4, plain.starred(), t) for t in enumerate_tableaux(4)]
    runs += [(hk, SpectralView(q=hk.q, nu=params4.nu, c=c), t)
             for c in (Fr(0), params4.c)
             for t in enumerate_tableaux(4) if t.is_standard()]
    for ctx, view, tab in runs:
        contents = quantum_contents(tab, view)
        E = ctx.one()
        for k in range(2, 5):
            passes.clear()
            E = fusion_step(E, contents, k, ctx, view)
            assert len(passes) == 2 * k - 3, (tab.encode(), k)


# ---------------------------------------------------------------------------
# the packed row pass against the list-form one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", ["6/5,7/3", "-5/6,3/7", "hecke"])
def test_row_table_scales_each_letter_to_one_denominator(point):
    # each letter's rows over the lcm L_l of their denominators, equal as
    # rationals, with C_l the largest column sum of their numerators
    if point == "hecke":
        alg = HeckeAlgebra(4, Fr(6, 5))
    else:
        q, nu = map(Fr, point.split(","))
        alg = build_context(4, q=q, nu=nu)
    table = fusion._bounded_rows(alg)
    assert fusion._bounded_rows(alg) is table
    assert table[None] == (1, None, 1)
    assert table.keys() == alg._rows.keys() | {None}
    mixed = False
    for l, row_of in alg._rows.items():
        L, rows, C = table[l]
        dens = {d for d, _ in row_of}
        mixed |= len(dens) > 1
        assert L == math.lcm(*dens)
        assert len(rows) == len(row_of) == len(alg.words)
        cols = [0] * len(alg.words)
        for (d, row), scaled in zip(row_of, rows):
            assert [(j2, Fr(x, L)) for j2, x in scaled] == \
                [(j2, Fr(x, d)) for j2, x in row]
            for j2, x in scaled:
                cols[j2] += abs(x)
        assert C == max(cols)
    # the BMW rows meet several denominators, so the scaling is exercised
    assert mixed == (point != "hecke")


def _times(f):
    """p -> p f to h^m, f of length m + 1: zip pairs p with f's heads."""
    heads = [f[e::-1] for e in range(len(f))]
    return lambda p: [sum(map(mul, p, g)) for g in heads]


def list_apply_block(D, vec, parts):
    """``fusion._apply_block`` with every h-polynomial a list of m + 1
    integers and ``parts`` = [(f, the rows of l, None for l = 1)]: one
    list product per (index, part) pair and one list multiply-add per row
    term, the content divided out."""
    bden = math.lcm(*(fden for (fden, _), _ in parts))
    dens = [{row_of[j][0] for j in vec} if row_of else {1}
            for _, row_of in parts]
    L = math.lcm(*(d for ds in dens for d in ds))
    # all over bden L: a row over d takes its polynomial times bden L / d
    parts = [({d: _times([x * (bden // fden) * (L // d) for x in f])
               for d in ds}, row_of)
             for ((fden, f), row_of), ds in zip(parts, dens)]
    out = {}
    get = out.get
    for j, p in vec.items():
        for times, row_of in parts:
            if row_of is None:          # the scalar part: f p at j
                pf = times[1](p)
                acc = get(j)
                out[j] = pf if acc is None else \
                    [a + y for a, y in zip(acc, pf)]
                continue
            d, row = row_of[j]
            pf = times[d](p)
            for j2, x in row:
                acc = get(j2)
                out[j2] = [x * y for y in pf] if acc is None else \
                    [a + x * y for a, y in zip(acc, pf)]
    D *= bden * L
    g = math.gcd(D, *(x for p in out.values() for x in p))
    return D // g, {j: [x // g for x in p] for j, p in out.items() if any(p)}


def both_passes(algebra, D, vec, parts):
    """The packed pass and the list-form one on ``parts`` = [(f, letter
    or None)] of the algebra's rows."""
    table = fusion._bounded_rows(algebra)
    return (fusion._apply_block(D, vec, [(f, table[l]) for f, l in parts]),
            list_apply_block(D, vec, [(f, l and algebra._rows[l])
                                      for f, l in parts]))


def random_poly(rnd, m1):
    """m + 1 = m1 integers of 3 to 240 bits, of either sign, some zero."""
    bits = rnd.choice((3, 40, 200, 240))
    return [rnd.choice((0, 1)) * rnd.randint(-2 ** bits, 2 ** bits)
            for _ in range(m1)]


@pytest.mark.parametrize("m1", [1, 2, 3, 4])
@pytest.mark.parametrize("algebra", ["bmw", "hecke"])
def test_packed_pass_matches_the_list_form(m1, algebra, ctx4, params4):
    alg = ctx4 if algebra == "bmw" else HeckeAlgebra(4, params4.q)
    letters = list(alg._rows)
    rnd = random.Random(m1)
    for _ in range(20):
        indices = rnd.sample(range(len(alg.words)),
                             rnd.randint(1, len(alg.words)))
        vec = {j: random_poly(rnd, m1) for j in indices}
        parts = [((rnd.choice((1, 7, 3 ** 130)), random_poly(rnd, m1)), l)
                 for l in rnd.sample(letters, rnd.randint(1, 3))]
        parts.insert(rnd.randint(0, len(parts)),
                     ((rnd.randint(1, 10 ** 6), random_poly(rnd, m1)), None))
        D = rnd.choice((1, rnd.randint(1, 2 ** 220)))
        packed, listed = both_passes(alg, D, vec, parts)
        assert packed == listed


@pytest.mark.parametrize("algebra", ["bmw", "hecke"])
def test_packed_pass_drops_a_cancelled_index(algebra, ctx4, params4):
    # T_1 by f and by -f cancel: only the scalar part's indices are left
    alg = ctx4 if algebra == "bmw" else HeckeAlgebra(4, params4.q)
    t1 = letter(T_KIND, 1)
    vec = {0: [3, -2 ** 210], 5: [-7, 1]}
    parts = [((3, [2, -7]), t1), ((5, [1, 4]), None), ((3, [-2, 7]), t1)]
    packed, listed = both_passes(alg, 11, vec, parts)
    assert packed == listed
    assert set(packed[1]) == {0, 5}
    reached = {j2 for j in vec for j2, _ in alg._rows[t1][j][1]}
    assert reached - {0, 5}, "no index for the rows to cancel at"


@pytest.mark.parametrize("algebra", ["bmw", "hecke"])
def test_packed_pass_of_an_empty_vector(algebra, ctx4, params4):
    # (1, {}) as the list form gives, and no max() of nothing
    alg = ctx4 if algebra == "bmw" else HeckeAlgebra(4, params4.q)
    parts = [((3, [2, -7]), l) for l in alg._rows] + [((5, [1, 4]), None)]
    assert both_passes(alg, 11, {}, parts) == ((1, {}), (1, {}))


@pytest.mark.parametrize("m1", [1, 3])
def test_packed_pass_at_its_bound(m1):
    # every row term of every index hits index 0, whose column sum is then
    # C = n length x: the top digit there is within a factor 0.94 of
    # 2^(B - 1), B = bits(big) + bits(f) + bits(m1 (2 C + 1)) + 1, so a B
    # one bit smaller overflows
    n, length, x = 15 // m1, 8, 2 ** 20 - 1
    rows = [(1, ((0, x),) * length) for _ in range(n)]
    algebra = types.SimpleNamespace(_rows={"a": rows}, _shared={})
    assert fusion._bounded_rows(algebra)["a"][2] == n * length * x
    big, f = 2 ** 200 - 1, (1, [2 ** 64 - 1] * m1)
    vec = {j: [big] * m1 for j in range(n)}
    packed, listed = both_passes(algebra, 1, vec,
                                 [(f, "a"), (f, None), (f, "a")])
    assert packed == listed
    digit = m1 * big * f[1][0] * (2 * n * length * x + 1)
    assert digit.bit_length() == 200 + 64 + (
        m1 * (2 * n * length * x + 1)).bit_length()


# ---------------------------------------------------------------------------
# products with y_k through its defining word, and the system certificate
# ---------------------------------------------------------------------------

def reduced_jm_interpolation(tab, ctx):
    """The JM interpolation multiplied by the reduced y_k, one factor
    (y_k - Y)/(c_k - Y) at a time."""
    contents = quantum_contents(tab, ctx.params)
    E = ctx.one()
    for k in range(2, len(tab) + 1):
        ck, y = contents[k - 1], ctx.jm_element(k)
        for Y in extension_spectrum(tab.shapes[k - 2], ctx.params):
            if Y != ck:
                E = E * (y - ctx.one().scale(Y)).scale(1 / (ck - Y))
    return E


def reduced_L_operator(ctx, j, u):
    """L_j(u) = (c u y_j - 1)(u - y_j)^-1 with the powers of the reduced
    y_j."""
    y = ctx.jm_element(j)
    m = [Fr(1)]
    for c in dict.fromkeys(quantum_contents(t, ctx.params)[j - 1]
                           for t in enumerate_tableaux(j)):
        m = [a - c * b for a, b in zip([Fr(0)] + m, m + [0])]
    mu = sum(a * u ** k for k, a in enumerate(m))
    inv, p = ctx.zero(), ctx.one()
    for r in range(len(m) - 1):
        h = sum(m[k] * u ** (k - 1 - r) for k in range(r + 1, len(m)))
        inv = inv + p.scale(h / mu)
        p = p * y
    return (y.scale(ctx.params.c * u) - ctx.one()) * inv


def direct_flags(idem, ctx):
    """verify_idempotent's flags from the left products y_j E."""
    E = idem.element
    return {"idempotent": (E * E - E).is_zero(),
            "jm_eigenvalues": all(
                (ctx.jm_element(j) * E - E.scale(cj)).is_zero()
                for j, cj in enumerate(idem.contents, start=1)),
            "rho_symmetric": (ctx.rho(E) - E).is_zero()}


def direct_system(idems, ctx):
    """complete_system_checks from every product E_a E_b, a != b."""
    total = ctx.zero()
    for idem in idems:
        total = total + idem.element
    return {"orthogonal": all((a.element * b.element).is_zero()
                              for i, a in enumerate(idems)
                              for j, b in enumerate(idems) if i != j),
            "complete": total == ctx.one()}


def in_four_orders(tabs, build, contexts):
    """{tab: build(tab, ctx)} four ways: in order on one context, in
    reverse on another, in a shuffled order alternating between two
    more, and each tableau alone on a fresh context from ``contexts()``.
    A context keeps the path of its last idempotent, so each way shares
    other prefixes."""
    shuffled = list(tabs)
    random.Random(0).shuffle(shuffled)
    first, second, pair = contexts(), contexts(), (contexts(), contexts())
    return [{t: build(t, first) for t in tabs},
            {t: build(t, second) for t in reversed(tabs)},
            {t: build(t, pair[i % 2]) for i, t in enumerate(shuffled)},
            {t: build(t, contexts()) for t in tabs}]


def jm_and_fusion(tab, ctx):
    return (jm_oracle_idempotent(tab, ctx).element.terms,
            fusion_idempotent(tab, ctx).element.terms)


POINTS = pytest.mark.parametrize(
    "q, nu", [(Fr(6, 5), Fr(7, 3)), (Fr(-5, 6), Fr(3, 7))],
    ids=["q=6/5,nu=7/3", "q=-5/6,nu=3/7"])


@POINTS
def test_jm_interpolation_by_defining_words_n4(q, nu, tmp_path):
    # every tableau of length <= 4 in each call order, and the fusion
    # idempotents on the same contexts (fusion = JM)
    tabs = [t for n in range(1, 5) for t in enumerate_tableaux(n)]
    assert len(tabs) == 36

    def contexts():
        return build_context(4, q=q, nu=nu, cache_dir=str(tmp_path))

    ways = in_four_orders(tabs, jm_and_fusion, contexts)
    ctx = contexts()
    for tab in tabs:
        want = reduced_jm_interpolation(tab, ctx).terms
        assert [way[tab] for way in ways] == [(want, want)] * 4, \
            tab.encode()


def test_jm_interpolation_by_defining_words_n5(ctx5):
    cache = os.path.dirname(ctx5._cache_path)
    tabs = enumerate_tableaux(5)[::10]
    ways = in_four_orders(tabs, jm_and_fusion, lambda: build_context(
        5, params=ctx5.params, cache_dir=cache))
    for tab in tabs:
        want = reduced_jm_interpolation(tab, ctx5).terms
        assert [way[tab] for way in ways] == [(want, want)] * 4, \
            tab.encode()


@POINTS
def test_hecke_family_paths_do_not_depend_on_the_call_order(q, nu):
    # c = 0 and c = params.c one after the other, as the benchmark calls
    params = make_params(q, nu, 4)
    cs = (Fr(0), params.c)
    tabs = [t for t in enumerate_tableaux(4) if t.is_standard()]

    def family(tab, hk):
        return [hecke_family_idempotent(tab, c, hk, params).terms
                for c in cs]

    ways = in_four_orders(tabs, family, lambda: HeckeAlgebra(4, q))
    hk = HeckeAlgebra(4, q)
    views = [(SpectralView(q=q, nu=nu, c=c), {}) for c in cs]
    for tab in tabs:
        want = [reference_path(quantum_contents(tab, params), hk, view,
                               memo)[-1].terms for view, memo in views]
        assert [way[tab] for way in ways] == [want] * 4, tab.encode()


@pytest.mark.parametrize("regime, omega", [(1, 5), (2, Fr(7, 2))])
def test_laurent_jm_paths_do_not_depend_on_the_call_order(regime, omega):
    # the BMW side of the Brauer idempotents at n <= 4, in both regimes:
    # every series coefficient with its window, (val, prec, den, nums)
    params = laurent_params(regime, omega)

    def series(tab, ctx):
        return {w: (c.val, c.prec, c.den, c.nums) for w, c in
                jm_oracle_idempotent(tab, ctx).element.terms.items()}

    for n in (2, 3, 4):
        tabs = enumerate_tableaux(n)
        ways = in_four_orders(tabs, series, lambda: AlgebraContext(
            n, params, verify=False))
        for tab in tabs:
            assert all(way[tab] == ways[-1][tab] for way in ways), \
                tab.encode()


def test_L_operator_powers_by_defining_words(ctx4):
    for j in range(1, 5):
        for u in (Fr(2, 7), Fr(-3)):
            assert repr(L_operator(ctx4, j, u)) == \
                repr(reduced_L_operator(ctx4, j, u))


def test_verify_idempotent_flags_match_the_left_products(ctx3):
    T1, T2 = ctx3.gen_T(1), ctx3.gen_T(2)
    for idem in (jm_oracle_idempotent(t, ctx3)
                 for t in enumerate_tableaux(3)):
        E = idem.element
        for X in (E, E + T1, E + T1 * T2, E * T1, T1 * E):
            other = dataclasses.replace(idem, element=X, verified={})
            assert verify_idempotent(other, ctx3) == \
                direct_flags(other, ctx3), (idem.tableau.encode(), X)
        # E T_1 keeps the left eigenvalues, E + T_1 loses them
        for X, left in ((E * T1, True), (E + T1, False)):
            other = dataclasses.replace(idem, element=X, verified={})
            assert verify_idempotent(other, ctx3)["jm_eigenvalues"] is left


def test_verifying_a_copy_keeps_the_original_flags(ctx2):
    # a dataclasses.replace copy shares the original's verified dict
    i = jm_oracle_idempotent(enumerate_tableaux(2)[0], ctx2)
    verify_idempotent(i, ctx2)
    assert i.verified and all(i.verified.values())
    flags = verify_idempotent(
        dataclasses.replace(i, element=i.element + ctx2.gen_T(1)), ctx2)
    assert not all(flags.values())
    assert i.verified and all(i.verified.values())


def broken_systems(idems, ctx, shorter):
    """(name, system) for a complete system made incomplete, not
    orthogonal, split or mixed in length; ``shorter`` is the idempotent of
    a shorter tableau."""
    last = len(idems) - 1
    perturbed = list(idems)
    perturbed[0] = dataclasses.replace(
        idems[0], element=idems[0].element + idems[last].element)
    # E_0 split into E_0 + N and -N, N = T_1 E_0: the sum stays 1 and both
    # parts keep E_0's right eigenvalues, but two content sequences agree
    nil = ctx.gen_T(1) * idems[0].element
    split = [dataclasses.replace(idems[0], element=idems[0].element + nil),
             dataclasses.replace(idems[0], element=nil.scale(-1))]
    return [("perturbed", perturbed),
            ("duplicated", idems + [idems[last]]),
            ("split", split + idems[1:]),
            ("left out", idems[1:]),
            ("shorter mixed in", idems + [shorter])]


def fresh(idems):
    """Copies of the idempotents with no verification flags."""
    return [dataclasses.replace(i, verified={}) for i in idems]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_system_certificate_agrees_with_direct_products(n, ctx2, ctx3, ctx4):
    ctx = {2: ctx2, 3: ctx3, 4: ctx4}[n]
    idems = [jm_oracle_idempotent(t, ctx) for t in enumerate_tableaux(n)]
    shorter = jm_oracle_idempotent(enumerate_tableaux(n - 1)[-1], ctx)
    want_flags = {id(i): direct_flags(i, ctx) for i in idems + [shorter]}
    full = fresh(idems)
    assert complete_system_checks(full, ctx) == direct_system(idems, ctx) \
        == {"orthogonal": True, "complete": True}
    # the certificate proves every flag
    assert [i.verified for i in full] == [want_flags[id(i)] for i in idems]
    for name, system in broken_systems(idems, ctx, shorter):
        want = direct_system(system, ctx)
        copies = fresh(system)
        assert complete_system_checks(copies, ctx) == want, name
        assert not all(want.values()), name
        # a broken system is not certified, "left out" included: it sets
        # no flag, and the caller's direct verification gives them all
        assert not any(i.verified for i in copies), name
        for idem in copies:
            verify_idempotent(idem, ctx)
        for idem, orig in zip(copies, system):
            flags = want_flags.get(id(orig)) or direct_flags(orig, ctx)
            assert idem.verified == flags, name


@pytest.mark.parametrize("method", ["jm", "fusion"])
@pytest.mark.parametrize("n", [3, 4])
def test_certified_system_forms_no_product_and_no_rho(n, method, ctx3, ctx4,
                                                      monkeypatch):
    ctx = {3: ctx3, 4: ctx4}[n]
    build = {"jm": jm_oracle_idempotent, "fusion": fusion_idempotent}[method]
    idems = [build(t, ctx) for t in enumerate_tableaux(n)]
    want = [direct_flags(i, ctx) for i in idems]

    def fails(*args, **kwargs):
        pytest.fail("the certified path formed a product or rho")

    monkeypatch.setattr(AlgebraContext, "rho", fails)
    monkeypatch.setattr(AlgebraElement, "__mul__", fails)
    monkeypatch.setattr(fusion, "_orthogonal_by_products", fails)
    assert complete_system_checks(idems, ctx) == {"orthogonal": True,
                                                  "complete": True}
    assert [i.verified for i in idems] == want

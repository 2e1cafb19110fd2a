"""Baxterized elements, the algebra-valued rational functions behind the
fusion construction, the two idempotent constructions (consecutive
evaluation and the Jucys-Murphy interpolation), closed-form
(anti)symmetrizers and the reflection-equation checks.

Evaluation is always stepwise: when the idempotent for the length-k
prefix is produced, all earlier spectral variables have already been
replaced by the contents, so every coefficient is a univariate rational
function in the single active variable u.  Its denominator is a product
of known linear factors in u, read off the closed forms of the factors.
Individual factors may vanish at the evaluation point c_k, so the step
runs at u = c_k + h, fraction-free, and takes no polynomial gcd: the
numerator is one vector of integer h-polynomials over one common
denominator, multiplied factor by factor over the algebra's row table
(each letter's integer rows over one denominator, with their largest
column sum C, formed once), and the factors' own h-polynomials and
values are integers over one denominator too.  Within a pass each
h-polynomial p is the one integer p(2^B) (Kronecker substitution), B the
bits of the vector's largest coefficient, of the largest scaled factor
and of m + 1 times the parts' summed C, plus a sign bit.  The value is
the first coefficient the vanishing factors leave, and a nonzero one
below it is a true pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import lshift

from .bmwcore import (K_KIND, T_KIND, AlgebraContext, AlgebraElement,
                      _over_common_denominator, check_jm_index,
                      fold_products, jm_word, letter)
from .combinatorics import (UpDownTableau, enumerate_tableaux,
                            extension_spectrum, quantum_contents)
from .errors import (BmwError, DomainMismatch, NonInvertible,
                     PoleAtEvaluation, PoleError)
from .scalars import ParamSet, format_rational, q_factorial, q_number


@dataclass(frozen=True)
class SpectralView:
    """The (q, nu, c) triple entering every baxterized coefficient.

    The starred view substitutes q -> -1/q (and recomputes c), which
    turns the construction for a tableau into the construction for its
    transpose; the algebra itself is unchanged since the defining
    relations only involve q - q^-1 and nu.
    """

    q: Fraction
    nu: Fraction
    c: Fraction

    @classmethod
    def of(cls, params: ParamSet) -> "SpectralView":
        return cls(q=params.q, nu=params.nu, c=params.c)

    def starred(self) -> "SpectralView":
        qs = -1 / self.q
        return SpectralView(q=qs, nu=self.nu, c=-1 / (qs * self.nu))

    @property
    def delta(self):
        return self.q - 1 / self.q


@dataclass
class Idempotent:
    """A primitive idempotent with its tableau label and verification
    status flags."""

    tableau: UpDownTableau
    element: AlgebraElement
    method: str
    contents: tuple = ()
    verified: dict = field(default_factory=dict)


def _div(num, den, what):
    """num / den for the exact rational spectral values of the element
    constructors; a vanishing denominator is a pole."""
    if den == 0:
        raise PoleError("%s: vanishing denominator" % what)
    return num / den


def _baxterized(ctx, i, r, view, what):
    """T_i + d/(r - 1) + d/(1 + nu^-1 q r) kappa_i."""
    d = view.delta
    a = _div(d, r - 1, what + " scalar part")
    b = _div(d, 1 + (view.q / view.nu) * r, what + " kappa part")
    return ctx.gen_T(i) + ctx.one().scale(a) + ctx.gen_K(i).scale(b)


def baxterized_T(ctx: AlgebraContext, i: int, u, v,
                 view: SpectralView) -> AlgebraElement:
    """T_i(u, v) = T_i + d/(v/u - 1) + d/(1 + nu^-1 q v/u) kappa_i.

    Pass ``view.starred()`` for q -> -1/q in the two scalar coefficients."""
    return _baxterized(ctx, i, v / u, view, "T_i(u,v)")


def baxterized_T_one_arg(ctx, i, x, view):
    """T_i(x) := T_i(x, 1)."""
    return baxterized_T(ctx, i, x, 1, view)


def pole_factor_f(u, v, view):
    """f(u, v) = (u-v)^2 / ((u - q^2 v)(u - q^-2 v)) = f(v, u)."""
    q = view.q
    f = _div((u - v) * (u - v), (u - q * q * v) * (u - v / (q * q)),
             "f(u,v) at u = q^{+-2} v")
    if f == 0:
        raise PoleError("f(u,v) = 0 at u = v")
    return f


def baxterized_T_inverse(ctx, i, v, u, view):
    """The inverse of T_i(v, u), namely T_i(u, v) f(u, v)."""
    return baxterized_T(ctx, i, u, v, view).scale(pole_factor_f(u, v, view))


def baxterized_Q(ctx, i, u, v, view):
    """Q_i(u, v; c) = T_i(1/(c u v)) with the fixed parameter c of the
    view: T_i + d/(c u v - 1) + d/(1 + nu^-1 q c u v) kappa_i."""
    return _baxterized(ctx, i, view.c * u * v, view, "Q_i")


def Y_script(ctx, j: int, contents, u, view) -> AlgebraElement:
    """Y_j(c_1, ..., c_{j-1}, u) as an element, multiplied one factor at a
    time: descending Q-factors, the scalar (c u - 1)/(u - 1) coming from
    y_1 = 1, then ascending inverse baxterized factors."""
    if len(contents) != j - 1:
        raise ValueError("need j-1 evaluated contents")
    E = ctx.one()
    for m in range(j - 1, 0, -1):
        E = E * baxterized_Q(ctx, m, contents[m - 1], u, view)
    E = E.scale(_div(view.c * u - 1, u - 1, "Y_1 scalar (c u - 1)/(u - 1)"))
    for m in range(1, j):
        E = E * baxterized_T_inverse(ctx, m, u, contents[m - 1], view)
    return E


def _bounded_rows(ctx):
    """{letter l: (L_l, rows, C_l)}, formed once per algebra (rows never
    change after build): rows[j] is l's row on basis index j over L_l, the
    lcm of l's row denominators, as ((j2, numerator), ...), and C_l is the
    largest column sum, max over j2 of sum_j |numerator of j2 in rows[j]|.
    The key None is the scalar part, (1, None, 1): rows over 1 with column
    sums 1."""
    got = ctx._shared.get("rows")
    if got is None:
        got = ctx._shared["rows"] = {None: (1, None, 1)}
        for l, rows in ctx._rows.items():
            L = math.lcm(*(d for d, _ in rows))
            rows = [tuple((j2, x * (L // d)) for j2, x in row)
                    for d, row in rows]
            cols = {}
            for j2, x in chain.from_iterable(rows):
                cols[j2] = cols.get(j2, 0) + abs(x)
            got[l] = L, rows, max(cols.values())
    return got


def _apply_block(D, vec, parts):
    """The vector D, vec = {basis index: h-polynomial to h^m} (integer
    numerators over D) times the sum of f l over ``parts`` = [(f, l's
    entry of ``_bounded_rows``)], each f an h-polynomial over its own
    denominator fden, as such a vector with its content divided out.  The
    output is over bden L, bden the lcm of the fden and L that of the
    parts' L_l, so each part takes the one scale bden // fden (L // L_l).

    Each polynomial p runs packed as the one integer P = p(2^B) (Kronecker
    substitution): each (index, part) pair costs one product P F, each row
    term one multiply-add, and each output index is unpacked once, for the
    content gcd.  The base-2^B digits of P F are the coefficients of p f.
    Its high part is a multiple of 2^((m+1)B), whatever its size, so the
    balanced residue of P F mod 2^((m+1)B) is p f to h^m, and a sum of
    such residues times row numerators is the output, as soon as every
    low digit lies in (-2^(B-1), 2^(B-1)).  B makes each fit: a digit of
    p f sums at most m + 1 products of a coefficient of p and one of the
    scaled f, and a digit at an output index j2 sums such digits times the
    numerators of j2 in each part's rows, at most C_l in absolute value.
    So B adds the bits of the largest coefficient of vec, of the largest
    scaled f and of (m + 1) times the summed C_l, and one sign bit."""
    bden = math.lcm(*(fden for (fden, _), _ in parts))
    L = math.lcm(*(Ll for _, (Ll, _, _) in parts))
    ks = [bden // fden * (L // Ll) for (fden, _), (Ll, _, _) in parts]
    m1 = len(parts[0][0][1])
    B = max(map(abs, chain.from_iterable(vec.values())),
            default=0).bit_length() \
        + max(max(map(abs, f)) * k for ((_, f), _), k in zip(parts, ks)
              ).bit_length() \
        + (m1 * sum(C for _, (_, _, C) in parts)).bit_length() + 1
    shifts = range(0, m1 * B, B)
    half = 1 << m1 * B - 1
    mask = 2 * half - 1
    packed = {j: sum(map(lshift, p, shifts)) for j, p in vec.items()}
    out = {}
    get = out.get
    for ((_, f), (_, rows, _)), k in zip(parts, ks):
        F = sum(map(lshift, f, shifts)) * k
        if rows is None:                # the scalar part: f p at j
            for j, P in packed.items():
                out[j] = get(j, 0) + ((P * F + half) & mask) - half
            continue
        for j, P in packed.items():
            R = ((P * F + half) & mask) - half
            for j2, x in rows[j]:
                out[j2] = get(j2, 0) + x * R
    # each digit plus 2^(B-1) is a digit in [0, 2^B): no carries; the
    # digits of all output indices in one list, for one gcd
    digit = 1 << B - 1
    bias, low = sum(digit << s for s in shifts), 2 * digit - 1
    keys = [j for j, P in out.items() if P]
    flat = [(U >> s & low) - digit for U in [out[j] + bias for j in keys]
            for s in shifts]
    D *= bden * L
    g = math.gcd(D, *flat)
    flat = iter([x // g for x in flat])
    return D // g, dict(zip(keys, map(list, zip(*[flat] * m1))))


def fusion_step(E_prev, contents, k: int, ctx, view):
    """One consecutive-evaluation step: assemble
    phi(u) = (u - c_k)/(c u c_k - 1) * E_prev * Y_k(c_1, ..., c_{k-1}, u)
    and evaluate it at u = c_k.

    ``ctx`` is a BMW context or, for the kappa = 0 image, a Hecke algebra.
    Every factor of Y_k is a numerator element over a product of known
    linear factors in u, read off its closed form.  The step runs at
    u = c_k + h in integers: each linear factor is its value and slope
    over one denominator, formed once.  With m of them vanishing at c_k,
    the numerator is one vector of integer h-polynomials to h^m over one
    denominator, times each factor t T_i + s + kap kappa_i of Y_k (t, s,
    kap integer h-polynomials over one denominator) in one pass over the
    integer rows, which packs each h-polynomial p into the one integer
    p(2^B) (``_apply_block``).  The middle two, Q_1 and T_1(c_1, u)^-1,
    run as their product, one such factor by the relations of T_1 and
    kappa_1, and the scalar (c u - 1)(u - c_k) rides in the first, so step
    k makes 2k - 3 passes.  The value is the h^m coefficient (exact: every
    factor is a polynomial in h) over the other factors' values and the
    vanishing factors' slopes, one Fraction of two integers per
    coefficient; a nonzero lower coefficient is a true pole."""
    d, q, c = view.delta, view.q, view.c
    r = q / view.nu
    ck = contents[k - 1]
    cn, cd = ck.numerator, ck.denominator

    def lin(f0, f1):
        """f0 + f1 u at u = c_k + h: (g, value, slope) over g."""
        a, b, e, f = f0.numerator, f0.denominator, f1.numerator, f1.denominator
        return b * f * cd, a * f * cd + e * cn * b, e * b * cd

    # the denominator's linear factors f0 + f1 u in the order of phi; the
    # factors t T_i + s + kap kappa_i of Y_k, each of t, s, kap a list of
    # terms (coeff, *linear factors) to sum
    den, blocks, scalar = [], [], (lin(-1, c), lin(-ck, 1))
    for i in range(k - 1, 0, -1):
        # Q_i(c_i, u) with x = c c_i u, over (x - 1)(1 + (q/nu) x)
        x1 = c * contents[i - 1]
        a, b = lin(-1, x1), lin(1, r * x1)
        den += (a, b)
        blocks.append((i, [(1, a, b, *scalar)], [(d, b, *scalar)],
                       [(d, a, *scalar)]))
        scalar = ()
    den.append(lin(-1, 1))               # the Y_1 scalar (c u - 1)/(u - 1)
    for i in range(1, k):
        # T_i(c_i, u) f(c_i, u) with one (u - c_i) cancelled, over
        # (c_i + (q/nu) u)(u - q^2 c_i)(u - q^-2 c_i)
        ci = contents[i - 1]
        a, b = lin(-ci, 1), lin(ci, r)
        den += (b, lin(-q * q * ci, 1), lin(-ci / (q * q), 1))
        blocks.append((i, [(1, a, a, b)], [(d * ci, a, b)], [(d * ci, a, a)]))
    den.append(lin(-1, c * ck))          # the prefactor's c u c_k - 1
    m, snum, sden = 0, 1, 1
    for g, value, slope in den:
        m += not value
        snum *= value or slope
        sden *= g

    rows = _bounded_rows(ctx)
    kappa = letter(K_KIND, 1) in rows    # a Hecke algebra has no kappa_i

    def term(coeff, f, g):
        """The term coeff f g of two terms."""
        return (coeff * f[0] * g[0],) + f[1:] + g[1:]

    # Q_1 T_1(c_1, u)^-1 as one factor: T^2 = 1 + delta T - delta nu kappa,
    # T kappa = kappa T = nu kappa, kappa^2 = mu kappa (T^2 = 1 + delta T
    # in a Hecke algebra); every view has the algebra's delta
    _, (t1,), (s1,), (k1,) = blocks[k - 2]
    _, (t2,), (s2,), (k2,) = blocks.pop(k - 1)
    blocks[k - 2] = (1, [term(1, t1, s2), term(1, s1, t2), term(d, t1, t2)],
                     [term(1, s1, s2), term(1, t1, t2)],
                     [term(1, s1, k2), term(1, k1, s2), term(ctx.nu, t1, k2),
                      term(ctx.nu, k1, t2), term(ctx.mu, k1, k2),
                      term(-d * ctx.nu, t1, t2)] if kappa else [])

    def poly(terms):
        """The sum of the terms, each coeff times its linear factors, to
        h^m: (denominator, ints)."""
        ps = []
        for coeff, *factors in terms:
            pden, p = coeff.denominator, [coeff.numerator] + [0] * m
            for g, value, slope in factors:
                pden *= g
                p = [value * x + slope * y for x, y in zip(p, [0] + p)]
            ps.append((pden, p))
        L = math.lcm(*(pden for pden, _ in ps))
        return L, [sum(col) for col in
                   zip(*([x * (L // pden) for x in p] for pden, p in ps))]

    D, vec = _over_common_denominator(E_prev.terms)
    vec = {ctx.word_index[w]: [x] + [0] * m for w, x in vec.items()}
    for i, t, s, kap in blocks:
        parts = [(poly(t), rows[letter(T_KIND, i)]), (poly(s), rows[None])]
        if kappa:
            parts.append((poly(kap), rows[letter(K_KIND, i)]))
        D, vec = _apply_block(D, vec, parts)
    out, D = {}, D * snum
    for j, p in vec.items():
        if any(p[:m]):
            raise PoleAtEvaluation("pole of the fusion function at u = %s"
                                   % format_rational(ck))
        out[ctx.words[j]] = Fraction(p[m] * sden, D)
    return ctx.element_type(ctx, out)


def _check_context(tab, ctx):
    """DomainMismatch unless ctx is a BMW context (an AlgebraContext) on at
    least len(tab) strands; a shorter tableau builds the idempotent of its
    sub-algebra."""
    if not isinstance(ctx, AlgebraContext):
        raise DomainMismatch("expected a BMW context, got %s"
                             % type(ctx).__name__)
    if len(tab) > ctx.n:
        raise DomainMismatch("tableau of length %d on a context with n = %d"
                             % (len(tab), ctx.n))


def _prefix_path(ctx, slot, keys, first, step):
    """The entry of the path along ``keys`` from ``first``, the k-th entry
    ``step(k, entry k - 1)``, which must depend on keys[:k] alone.  The
    context keeps the path of the last call per slot, (keys, entries),
    and a call starts from the longest prefix it shares with it."""
    old, path = ctx._shared.pop(slot, ((), []))    # re-inserted last
    p = 0
    while p < min(len(old), len(keys)) and old[p] == keys[p]:
        p += 1
    path = path[:p] or [first]
    for k in range(len(path) + 1, len(keys) + 1):
        path.append(step(k, path[-1]))
    ctx._shared[slot] = (tuple(keys), path)
    return path[len(keys) - 1]


def consecutive_evaluation(ctx, contents, view):
    """The fusion function at the content sequence: ``fusion_step`` for
    k = 2, ..., len(contents) from E_1 = 1, in a BMW or Hecke algebra.

    The step for k reads contents[:k] only, so the algebra keeps a prefix
    path per view (``_prefix_path``), for the two views used last: the
    plain and the starred view, or the Hecke family at two values of c."""
    E = _prefix_path(ctx, view, contents, ctx.one(),
                     lambda k, E: fusion_step(E, contents, k, ctx, view))
    views = [v for v in ctx._shared if isinstance(v, SpectralView)]
    if len(views) > 2:
        del ctx._shared[views[0]]
    return E


def fusion_idempotent(tab: UpDownTableau, ctx: AlgebraContext) -> Idempotent:
    """The primitive idempotent by consecutive evaluation of the fusion
    function at the tableau's content sequence.  The same steps over the
    starred view (contents included) give the transposed tableau's.  A
    Laurent context raises DomainMismatch: the step is rational."""
    _check_context(tab, ctx)
    if not ctx.rational:
        raise DomainMismatch("fusion idempotents need rational parameters")
    view = SpectralView.of(ctx.params)
    contents = quantum_contents(tab, ctx.params)
    return Idempotent(tableau=tab, element=consecutive_evaluation(
        ctx, contents, view), method="fusion", contents=contents)


def _times_jm(ctx, terms, factors):
    """The products terms * s (y_k - Y) for every (k, Y, s) in ``factors``,
    as {word: coeff} dicts from one ``fold_products`` call.

    A rational context multiplies by the defining word ``jm_word(k)`` of
    y_k, 2(k - 1) row steps, where the reduced y_k has many canonical
    words.  A Laurent context multiplies by the reduced y_k: there the
    word path leaves the series coefficients with shorter windows."""
    rights = []
    for k, Y, s in factors:
        if ctx.rational:
            check_jm_index(k, ctx.n)
            right = {jm_word(k): s}
            right[()] = right.get((), 0) - Y * s
        else:
            right = (ctx.jm_element(k) - ctx.one().scale(Y)).scale(s).terms
        rights.append(right)
    return fold_products(ctx, terms, rights)


def _newton_child(ctx, newton, ck):
    """The child of content c_k of a prefix whose first child formed
    ``newton`` = [x, sigma, Q]: the Newton form of
    prod_{Y != c_k} (u - Y)/(c_k - Y) over the nodes x, whose basis
    polynomials at y_k give E (y_k - x_0) ... (y_k - x_{m-1}) =
    sigma_m Q_m, with the divided differences b_m as coefficients, so
    sum_m b_m sigma_m Q_m summed in integers over one denominator."""
    x, sigma, Q = newton
    if not isinstance(Q[0], tuple):     # the second child: once, in place
        Q = newton[2] = [_over_common_denominator(q.terms) for q in Q]
    b = [Fraction(Y == ck) for Y in x]
    for level in range(1, len(x)):
        for i in range(len(x) - 1, level - 1, -1):
            b[i] = (b[i] - b[i - 1]) / (x[i] - x[i - level])
    parts = [(a * s, D, nums) for a, s, (D, nums) in zip(b, sigma, Q) if a]
    L = math.lcm(*(a.denominator * D for a, D, _ in parts))
    acc = {}
    for a, D, nums in parts:
        f = a.numerator * (L // (a.denominator * D))
        for w, v in nums.items():
            acc[w] = acc.get(w, 0) + f * v
    return AlgebraElement(ctx, {w: Fraction(v, L)
                                for w, v in acc.items() if v})


def _jm_interpolation(tab: UpDownTableau, ctx: AlgebraContext):
    """(contents, E): at each step multiply by
    prod_{Y != c_k} (y_k - Y)/(c_k - Y) over the spectrum of y_k on the
    image of the previous idempotent, one factor at a time through
    ``_times_jm``.  Runs over rational or truncated Laurent parameters
    alike.

    The idempotent of a prefix depends on its shapes alone, so the
    context keeps a prefix path of (E_k, newton) (``_prefix_path``).  In
    a rational context the first child of a prefix keeps its partial
    products Q_m, with the spectrum, c_k last, as nodes x and
    sigma_m = (c_k - x_0) ... (c_k - x_{m-1}), and a later child is
    their combination (``_newton_child``), with no fold.  A Laurent
    context multiplies factor by factor for every child, since a sum of
    series products would change the coefficient windows."""
    _check_context(tab, ctx)
    params = ctx.params
    contents = quantum_contents(tab, params)

    def child(k, prefix):
        E, newton = prefix
        ck = contents[k - 1]
        if newton:
            return _newton_child(ctx, newton, ck), []
        x = [Y for Y in extension_spectrum(tab.shapes[k - 2], params)
             if Y != ck]
        Q = [E]
        for Y in x:
            Q.append(AlgebraElement(ctx, _times_jm(
                ctx, Q[-1].terms, [(k, Y, 1 / (ck - Y))])[0]))
        if ctx.rational:
            sigma = [Fraction(1)]
            for Y in x:
                sigma.append(sigma[-1] * (ck - Y))
            newton += [x + [ck], sigma, Q]
        return Q[-1], []

    return contents, _prefix_path(ctx, "jm", tab.shapes, (ctx.one(), []),
                                  child)[0]


def jm_oracle_idempotent(tab: UpDownTableau,
                         ctx: AlgebraContext) -> Idempotent:
    """The same idempotent through the Jucys-Murphy interpolation."""
    contents, E = _jm_interpolation(tab, ctx)
    return Idempotent(tableau=tab, element=E, method="jm-oracle",
                      contents=contents)


def _right_eigenvector(ctx, E, contents):
    """Whether E y_j = c_j E for every j, in one fold.  A rational context
    keeps the verdict per content sequence with the terms it was formed
    on, and serves it again for an element with equal terms."""
    seen = ctx._shared.setdefault("eigen", {}) if ctx.rational else None
    hit = seen.get(contents) if seen else None
    if hit and hit[0] == E.terms:
        return hit[1]
    factors = [(j, cj, 1) for j, cj in enumerate(contents, start=1)]
    ok = all(AlgebraElement(ctx, p).is_zero()
             for p in _times_jm(ctx, E.terms, factors))
    if seen is not None:
        seen[contents] = (dict(E.terms), ok)
    return ok


def _check_labels(idem, ctx):
    """DomainMismatch unless the idempotent is an element of ctx labelled
    with its tableau's content sequence."""
    _check_context(idem.tableau, ctx)
    if idem.element.algebra != ctx:
        raise DomainMismatch("the idempotent is not an element of ctx")
    if idem.contents != quantum_contents(idem.tableau, ctx.params):
        raise DomainMismatch("the contents of %s are not its tableau's"
                             % idem.tableau.encode())


def verify_idempotent(idem: Idempotent, ctx: AlgebraContext) -> dict:
    """Idempotency and Jucys-Murphy eigenvalue checks, exact.

    E E = E is a direct product.  The eigenvalues y_j E = c_j E are read
    on R = rho(E) as R y_j = c_j R, every j in one fold: rho is an
    anti-automorphism fixing y_j, whose defining word is a palindrome.
    rho_symmetric is R = E.

    The idempotent must be an element of ctx, labelled with its tableau's
    content sequence (the eigenvalues checked), or DomainMismatch."""
    _check_labels(idem, ctx)
    E = idem.element
    R = ctx.rho(E)
    flags = {"idempotent": (E * E - E).is_zero(),
             "jm_eigenvalues": _right_eigenvector(ctx, R, idem.contents),
             "rho_symmetric": R == E}
    # a new dict: a dataclasses.replace copy shares the original's
    idem.verified = {**idem.verified, **flags}
    return flags


def _orthogonal_by_products(idems, ctx) -> bool:
    """Whether every product E_a E_b with a != b is zero; the products of
    one left factor E_a run as one batch of ``bmwcore.fold_products``."""
    ortho = True
    for a, left in enumerate(idems):
        rights = [e.element.terms for b, e in enumerate(idems) if b != a]
        for p in fold_products(ctx, left.element.terms, rights):
            if not AlgebraElement(ctx, p).is_zero():
                ortho = False
    return ortho


def complete_system_checks(idems, ctx: AlgebraContext) -> dict:
    """Pairwise orthogonality and completeness of a full system, which
    certifies itself and its idempotents' flags when the context is
    rational, the E_a sum to 1, the content sequences have one length and
    are pairwise distinct, and E_a y_j = c_j(a) E_a for every a and j.

    The proof: the y_j commute, so right joint eigenspaces
    {X : X y_j = c_j X} of distinct tuples c are independent.  In
    E_a = E_a 1 = sum_b E_a E_b each E_a E_b lies in the eigenspace of
    c(b), so E_a E_b = 0 for b != a and E_a E_a = E_a.  Then
    y_j = 1 y_j = sum_b c_j(b) E_b gives y_j E_a = c_j(a) E_a; a polynomial
    P_a with P_a(c(b)) = [a = b] gives E_a = P_a(y_1, y_2, ...), which rho,
    an anti-automorphism fixing the y_j, fixes.  So every idempotent with
    no flags yet gets the three flags of ``verify_idempotent`` True, with
    no rho and no product E E.  A Laurent context never certifies: over
    series, separating by c_j(a) - c_j(b) costs precision.

    Otherwise no flag is set (the caller verifies those idempotents) and
    orthogonality is read from every product E_a E_b with a != b.  Every
    idempotent must be an element of ctx labelled with its tableau's
    content sequence, as ``verify_idempotent`` requires, or
    DomainMismatch before any flag is set."""
    total = ctx.zero()
    for idem in idems:
        _check_labels(idem, ctx)
        total = total + idem.element
    complete = (total - ctx.one()).is_zero()
    seqs = [idem.contents for idem in idems]
    certified = complete and ctx.rational \
        and len({len(c) for c in seqs}) == 1 and len(set(seqs)) == len(seqs) \
        and all(_right_eigenvector(ctx, idem.element, idem.contents)
                for idem in idems)
    if certified:
        for idem in idems:
            idem.verified = idem.verified or dict.fromkeys(
                ("idempotent", "jm_eigenvalues", "rho_symmetric"), True)
    return {"orthogonal": certified or _orthogonal_by_products(idems, ctx),
            "complete": complete}


# ---------------------------------------------------------------------------
# symmetrizer and antisymmetrizer
# ---------------------------------------------------------------------------

def _line_idempotent(n, ctx, form, e):
    """The idempotent for the length-n tableau in one row (e = 1, S_n) or
    one column (e = -1, A_n).  chain form: (-1)^(n-1)/n_q T_1(q^2) ...
    T_{n-1}(q^{2(n-1)}) times the length-(n-1) one, for the row at the
    starred view (q -> -1/q transposes a construction); Y-product form: the
    closed expression with its prefactor; fusion form: consecutive
    evaluation at the contents q^(2ek).  These two stay at the own view:
    at the starred one their prefactors have poles at nu = q^m, which the
    genericity checklist allows."""
    if not 1 <= n <= ctx.n:
        raise DomainMismatch("n = %d outside 1..%d" % (n, ctx.n))
    view = SpectralView.of(ctx.params)
    q = view.q
    us = tuple(q ** (2 * e * k) for k in range(n))  # the tableau's contents
    if form == "chain":
        star = view.starred() if e == 1 else view
        p = star.q
        A = ctx.one()
        for m in range(2, n + 1):
            chain = ctx.one()
            for i in range(1, m):
                chain = chain * baxterized_T_one_arg(
                    ctx, i, p ** (2 * i), star)
            A = chain.scale(Fraction(-1) ** (m - 1) / q_number(m, p)) * A
        return A
    if form == "y-product":
        pref = q ** (e * (n * (n - 1) // 2)) / q_factorial(n, q)
        for k in range(1, n):
            pref *= (q ** (2 * e * k - 1) / view.nu + 1) / \
                (q ** (4 * e * k - 1) / view.nu + 1)
        return Y_product(ctx, us, view).scale(pref)
    if form == "fusion":
        return consecutive_evaluation(ctx, us, view)
    raise ValueError("unknown form %r" % form)


def antisymmetrizer(n: int, ctx: AlgebraContext,
                    form="chain") -> AlgebraElement:
    """A_n: the idempotent for the one-column tableau."""
    return _line_idempotent(n, ctx, form, -1)


def symmetrizer(n: int, ctx: AlgebraContext,
                form="chain") -> AlgebraElement:
    """S_n: the idempotent for the one-row tableau; its chain form is A_n's
    at the starred view."""
    return _line_idempotent(n, ctx, form, 1)


def Y_product(ctx, us, view) -> AlgebraElement:
    """Y_n(u_1, ..., u_n) = Q_2 ... Q_n T_n ... T_2 where
    Q_j = T_{j-1}(1/(c u_1 u_j)) ... T_1(1/(c u_{j-1} u_j)) and
    T_j = T_1(u_{j-1}, u_j) ... T_{j-1}(u_1, u_j)."""
    n = len(us)
    c = view.c
    out = ctx.one()
    for j in range(2, n + 1):
        # descending product T_{j-1}(1/(c u_1 u_j)) ... T_1(1/(c u_{j-1} u_j))
        for i in range(j - 1, 0, -1):
            x = 1 / (c * us[j - 1 - i] * us[j - 1])
            out = out * baxterized_T_one_arg(ctx, i, x, view)
    for j in range(n, 1, -1):
        for i in range(1, j):
            out = out * baxterized_T(ctx, i, us[j - 1 - i], us[j - 1], view)
    return out


# ---------------------------------------------------------------------------
# reflection equation checks
# ---------------------------------------------------------------------------

def L_operator(ctx, j, u):
    """L_j(u) = (c u y_j - 1)(u - y_j)^-1 with exact inversion.

    The spectrum of y_j is the set of j-th quantum contents of the up-down
    tableaux of length j, so m(t) = prod (t - c) over it annihilates y_j
    and (u - y_j)^-1 = h(y_j)/m(u) with h(t) = (m(u) - m(t))/(u - t).  A
    u in the spectrum raises NonInvertible; one more power of y_j checks
    m(y_j) = 0 exactly.  The result is formed as (u - y_j)^-1 (c u y_j - 1),
    with y_j as its defining word.  A Laurent context raises
    DomainMismatch: series contents compare on a window only, so m(t)
    has no exact factors there."""
    check_jm_index(j, ctx.n)
    if not ctx.rational:
        raise DomainMismatch("L_j(u) needs rational parameters")
    u = Fraction(u)
    spectrum = dict.fromkeys(quantum_contents(tab, ctx.params)[j - 1]
                             for tab in enumerate_tableaux(j))
    m = [Fraction(1)]             # coefficients of m(t), lowest first
    for c in spectrum:
        m = [a - c * b for a, b in zip([Fraction(0)] + m, m + [0])]
    mu_val = sum(a * u ** k for k, a in enumerate(m))
    if mu_val == 0:
        raise NonInvertible("u = %s is in the spectrum of y_%d"
                            % (format_rational(u), j))
    inv, m_of_y, p = ctx.zero(), ctx.zero(), ctx.one()
    for r, a in enumerate(m):        # p = y^r
        m_of_y = m_of_y + p.scale(a)
        if r + 1 < len(m):
            h = sum(m[k] * u ** (k - 1 - r) for k in range(r + 1, len(m)))
            inv = inv + p.scale(h / mu_val)
            p = AlgebraElement(ctx, _times_jm(ctx, p.terms, [(j, 0, 1)])[0])
    if not m_of_y.is_zero():
        raise BmwError("the contents of length-%d tableaux do not "
                       "annihilate y_%d" % (j, j))
    return AlgebraElement(ctx, _times_jm(
        ctx, inv.terms, [(j, 0, ctx.params.c * u)])[0]) - inv


def check_reflection(ctx, j, u, v, which="L", contents=None) -> bool:
    """The reflection equation, exactly, at rational spectral points.

    which="L": L_j(u) T_j(1/(c u v)) L_j(v) T_j(u/v)
             = T_j(u/v) L_j(v) T_j(1/(c u v)) L_j(u).
    which="Y": the same with the Y-functions (at the supplied contents)
    and the inverse of T_j(u/v) on both sides.
    which="L" on a Laurent context raises DomainMismatch (``L_operator``).
    """
    view = SpectralView.of(ctx.params)
    u, v = Fraction(u), Fraction(v)
    c = view.c
    Tm = baxterized_T_one_arg(ctx, j, 1 / (c * u * v), view)
    Tr = baxterized_T_one_arg(ctx, j, u / v, view)
    if which == "L":
        L_u = L_operator(ctx, j, u)
        L_v = L_operator(ctx, j, v)
        lhs = L_u * Tm * L_v * Tr
        rhs = Tr * L_v * Tm * L_u
        return (lhs - rhs).is_zero()
    if which == "Y":
        if contents is None or len(contents) != j - 1:
            raise ValueError("Y-variant needs j-1 contents")
        # T_j(u/v)^-1 = T_j(v/u) f(v, u) in one-argument form
        Tr_inv = baxterized_T_inverse(ctx, j, u, v, view)
        Yu = Y_script(ctx, j, contents, u, view)
        Yv = Y_script(ctx, j, contents, v, view)
        lhs = Yv * Tm * Yu * Tr_inv
        rhs = Tr_inv * Yu * Tm * Yv
        return (lhs - rhs).is_zero()
    raise ValueError("which must be 'L' or 'Y'")

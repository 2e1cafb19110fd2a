"""Classical limits to the Brauer algebra via truncated Laurent series.

Two contraction regimes are implemented:

* regime 1: q = e^h, nu = q^(1-omega), spectral points
  u = e^(2h(theta - (omega-1)/2)); generators go to s_i, e_i and the
  building blocks tend to s_i - e_i/(th1+th2) and s_i - 1/(th1-th2);
* regime 2: q = -e^h, nu = e^(h(omega-1)), u = e^(2h(-theta + (omega-1)/2)),
  producing the second family of limits (with kappa = omega/2 - 1) and
  idempotents for the transposed tableaux.

Brauer idempotents are obtained as constant terms of whole BMW
computations over Laurent parameters (the Jucys-Murphy interpolation run
with series scalars); first-order cancellations are handled by the
Laurent valuations.  The structure-constant oracle folds the h^0 parts of
the rows in rational arithmetic when every row coefficient has valuation
>= 0, where the h^0 term is a ring map, and the series otherwise.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from types import SimpleNamespace

from .bmwcore import (DEFAULT_TRUNCATION, AlgebraContext, AlgebraElement,
                      K_KIND, LaurentParams, _over_common_denominator,
                      check_index, default_truncation, fold_products,
                      letter_index, letter_kind)
from .brauer import BrauerAlgebra, BrauerElement, diagram_mul, e_diagram, \
    identity_diagram, s_diagram
from .combinatorics import UpDownTableau
from .errors import DomainMismatch
from .fusion import _jm_interpolation
from .scalars import TruncLaurent


@functools.cache
def _regime_labels(num, den, regimes=(1, 2)):
    """The context labels of these regimes at omega = num/den."""
    if not {1, 2}.issuperset(regimes):
        raise ValueError("regime must be 1 or 2")
    return tuple("regime%d(omega=%s)" % (r, Fraction(num, den))
                 for r in regimes)


def _check_laurent(ctx, omega, regimes=(1, 2)):
    """DOMAIN_MISMATCH unless ctx is the Laurent context of one of these
    regimes at omega; the labels are memoised, as the oracle checks each
    product."""
    if not isinstance(ctx, AlgebraContext) or ctx.rational:
        raise DomainMismatch("the contraction needs a Laurent context")
    labels = _regime_labels(omega.numerator, omega.denominator, regimes)
    if ctx.params.label not in labels:
        raise DomainMismatch("context %s, expected %s" % (
            ctx.params.label, " or ".join(labels)))


def laurent_params(regime: int, omega, prec: int = DEFAULT_TRUNCATION
                   ) -> LaurentParams:
    """The (q, nu) series of the chosen contraction regime."""
    omega = Fraction(omega)
    label, = _regime_labels(omega.numerator, omega.denominator, (regime,))
    if regime == 1:
        q = TruncLaurent.exp_h(1, prec)
        nu = TruncLaurent.exp_h(1 - omega, prec)
    else:
        q = TruncLaurent.exp_h(1, prec) * TruncLaurent.const(-1, prec)
        nu = TruncLaurent.exp_h(omega - 1, prec)
    return LaurentParams(q=q, nu=nu, label=label)


def spectral_series(regime: int, theta, omega,
                    prec: int = DEFAULT_TRUNCATION) -> TruncLaurent:
    """u(theta): the Laurent series of a rational spectral parameter."""
    theta, omega = Fraction(theta), Fraction(omega)
    if regime == 1:
        return TruncLaurent.exp_h(2 * (theta - (omega - 1) / 2), prec)
    if regime == 2:
        return TruncLaurent.exp_h(2 * (-theta + (omega - 1) / 2), prec)
    raise ValueError("regime must be 1 or 2")


def _expected_blocks(regime, i, th1, th2, omega, brauer):
    """The limiting blocks of the paper's two regimes as Brauer elements."""
    th1, th2, omega = Fraction(th1), Fraction(th2), Fraction(omega)
    s, e, one = brauer.s(i), brauer.e(i), brauer.one()
    if regime == 1:
        q_block = s - e.scale(1 / (th1 + th2))
        t_block = s - one.scale(1 / (th1 - th2))
    else:
        vk = omega / 2 - 1
        q_block = s + one.scale(1 / (th1 + th2 - vk)) - \
            e.scale(1 / (th1 + th2))
        t_block = s - one.scale(1 / (th1 - th2)) + \
            e.scale(1 / (th1 - th2 - vk))
    return q_block, t_block


def contraction_block_check(regime: int, i: int, th1, th2, omega) -> dict:
    """Compare the h^0 terms of the Laurent Q- and T-blocks with the
    limiting Brauer expressions.  Returns per-block pass flags; a point
    where a limiting block has a pole raises NonInvertible."""
    prec = DEFAULT_TRUNCATION
    p = laurent_params(regime, omega, prec)
    u1 = spectral_series(regime, th1, omega, prec)
    u2 = spectral_series(regime, th2, omega, prec)
    d, q, c = p.delta, p.q, p.c
    n = i + 1
    brauer = BrauerAlgebra(n, omega)
    s, e, one = brauer.s(i), brauer.e(i), brauer.one()

    def block(x):
        """h^0 part of T_i + d/(x - 1) + d/(1 + nu^-1 q x) K_i."""
        return s + one.scale((d / (x - 1)).constant_term()) + \
            e.scale((d / (TruncLaurent.const(1, prec) + p.nu_inv * q * x))
                    .constant_term())

    # Q_i(u1, u2; c) is the block at x = c u1 u2, T_i(u1, u2) at u2/u1,
    # formed first: at a pole of a limit the series division raises
    qb, tb = block(c * u1 * u2), block(u2 / u1)
    eq, et = _expected_blocks(regime, i, th1, th2, omega, brauer)
    return {"q_block": (qb - eq).is_zero(), "t_block": (tb - et).is_zero()}


# ---------------------------------------------------------------------------
# BMW words -> Brauer diagrams and the structure-constant oracle
# ---------------------------------------------------------------------------

@functools.cache
def word_to_diagram(n: int, word):
    """T_i -> s_i, K_i -> e_i as a diagram; returns (diagram, loops),
    memoised by (n, word).  An index outside 1..n-1 raises IndexError."""
    d = identity_diagram(n)
    loops = 0
    for l in word:
        i = letter_index(l)
        check_index(i, n)
        g = s_diagram(n, i) if letter_kind(l) != K_KIND else e_diagram(n, i)
        d, extra = diagram_mul(n, d, g)
        loops += extra
    return d, loops


def constant_term_element(elem, brauer: BrauerAlgebra) -> BrauerElement:
    """h^0 part of a Laurent-coefficient BMW element as a Brauer element;
    an int or Fraction coefficient is its own h^0 part.  An element
    outside the Laurent context of either regime at the omega of
    ``brauer``, or a Brauer algebra on another strand count, raises
    DOMAIN_MISMATCH."""
    _check_laurent(elem.algebra if isinstance(elem, AlgebraElement)
                   else None, brauer.omega)
    if brauer.n != elem.algebra.n:
        raise DomainMismatch("element of BMW_%d into B_%d"
                             % (elem.algebra.n, brauer.n))
    terms = {}
    for w, coeff in elem.terms.items():
        c0 = coeff if isinstance(coeff, (int, Fraction)) \
            else coeff.constant_term()
        if c0 == 0:
            continue
        d, loops = word_to_diagram(brauer.n, w)
        if loops:   # a canonical word has none
            c0 = c0 * brauer.omega ** loops
        prev = terms.get(d)
        terms[d] = c0 if prev is None else prev + c0
    return BrauerElement(brauer, terms)


def _constant_rows(ctx):
    """The h^0 parts of ``ctx._rows`` as integer rows, on an object that
    ``fold_products`` folds in rational arithmetic, or None unless every
    row coefficient has valuation >= 0 and a known h^0.  On such series
    the h^0 coefficient is a ring map, so these rows fold to the constant
    terms of the series products."""
    rows = {}
    for l, row_of in ctx._rows.items():
        rows[l] = out = []
        for den, pairs in row_of:
            if any(x.val < 0 or x.prec < 1 for _, x in pairs):
                return None
            d, nums = _over_common_denominator({j: x[0] for j, x in pairs})
            out.append((d * den, tuple((j, a) for j, a in nums.items() if a)))
    return SimpleNamespace(rational=True, words=ctx.words,
                           word_index=ctx.word_index, _rows=rows)


def structure_constant_oracle(ctx: AlgebraContext, omega) -> dict:
    """Constant terms of all canonical pair products must reproduce the
    independent Brauer multiplication under T -> s, K -> e.

    Also asserts that the canonical words map bijectively onto diagrams
    with no loop factors.  ``ctx`` must be the Laurent context of either
    regime at this omega, or DOMAIN_MISMATCH is raised.  The products of
    one left word with every basis word run as one batch of
    ``bmwcore.fold_products``: over the h^0 parts of the rows when every
    row coefficient has valuation >= 0 (``_constant_rows``), over the
    series otherwise."""
    omega = Fraction(omega)
    _check_laurent(ctx, omega)
    n = ctx.n
    brauer = BrauerAlgebra(n, omega)
    diag_of = {}
    seen = {}
    for w in ctx.words:
        d, loops = word_to_diagram(n, w)
        if loops:
            return {"ok": False, "reason": "loop in canonical word image"}
        if d in seen:
            return {"ok": False,
                    "reason": "canonical words not diagram-bijective"}
        seen[d] = w
        diag_of[w] = d
    const = _constant_rows(ctx)
    alg, one = (ctx, ctx._one) if const is None else (const, 1)
    rights = [{w: one} for w in ctx.words]
    checked = 0
    for w1 in ctx.words:
        prods = fold_products(alg, {w1: one}, rights)
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


# ---------------------------------------------------------------------------
# Brauer idempotents as constant terms of BMW computations
# ---------------------------------------------------------------------------

def brauer_idempotent_via_contraction(tab: UpDownTableau, regime: int,
                                      omega, ctx: AlgebraContext = None
                                      ) -> BrauerElement:
    """Constant term of the Jucys-Murphy interpolation run over Laurent
    parameters; the result is an idempotent of B_n(omega).

    The extension spectra must be pairwise distinct as series, as on the
    rational path; collisions raise NOT_GENERIC.  A given ``ctx`` must be
    the Laurent context of this regime and omega on len(tab) strands, or
    DOMAIN_MISMATCH is raised; without one the context is built at
    ``default_truncation(len(tab))`` series terms."""
    n = len(tab)
    omega = Fraction(omega)
    if ctx is None:
        ctx = AlgebraContext(n, laurent_params(regime, omega,
                                               default_truncation(n)),
                             verify=False)
    elif ctx.n != n:
        raise DomainMismatch("tableau of length %d on a context with n = %d"
                             % (n, ctx.n))
    _check_laurent(ctx, omega, (regime,))
    _, E = _jm_interpolation(tab, ctx)
    return constant_term_element(E, BrauerAlgebra(n, omega))

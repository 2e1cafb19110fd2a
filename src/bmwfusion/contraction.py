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
Laurent valuations.  The structure-constant oracle walks the prefix tree
of the words, one row step per pair, on the Brauer rows and on the h^0
parts of the rows when the h^0 term is a ring map on them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .bmwcore import (DEFAULT_TRUNCATION, AlgebraContext, AlgebraElement,
                      LaurentParams, _over_common_denominator, _sum_rows,
                      default_truncation, fold_products, word_name)
from .brauer import BrauerAlgebra, BrauerElement
from .combinatorics import UpDownTableau
from .errors import DomainMismatch
from .fusion import _jm_interpolation
from .scalars import TruncLaurent, _rational


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
    omega = _rational(omega)
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
    theta, omega = _rational(theta), _rational(omega)
    if regime == 1:
        return TruncLaurent.exp_h(2 * (theta - (omega - 1) / 2), prec)
    if regime == 2:
        return TruncLaurent.exp_h(2 * (-theta + (omega - 1) / 2), prec)
    raise ValueError("regime must be 1 or 2")


def _expected_blocks(regime, i, th1, th2, omega, brauer):
    """The limiting blocks of the paper's two regimes as Brauer elements."""
    th1, th2, omega = _rational(th1), _rational(th2), _rational(omega)
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

def constant_term_element(elem, brauer: BrauerAlgebra) -> BrauerElement:
    """h^0 part of a Laurent-coefficient BMW element as a Brauer element,
    each word on the diagram it spells in ``brauer`` (T_i -> s_i, K_i ->
    e_i); an int or Fraction coefficient is its own h^0 part.  An element
    outside the Laurent context of either regime at the omega of
    ``brauer``, a Brauer algebra on another strand count, or a word that
    is not a Brauer spelling raises DOMAIN_MISMATCH."""
    _check_laurent(elem.algebra if isinstance(elem, AlgebraElement)
                   else None, brauer.omega)
    if brauer.n != elem.algebra.n:
        raise DomainMismatch("element of BMW_%d into B_%d"
                             % (elem.algebra.n, brauer.n))
    terms, diagram_of = {}, brauer._diagram_of
    for w, coeff in elem.terms.items():
        d = diagram_of.get(w)
        if d is None:
            raise DomainMismatch("%s is not a Brauer spelling of B_%d"
                                 % (word_name(w), brauer.n))
        c0 = coeff if isinstance(coeff, (int, Fraction)) \
            else coeff.constant_term()
        if c0 == 0:
            continue
        prev = terms.get(d)
        terms[d] = c0 if prev is None else prev + c0
    return BrauerElement(brauer, terms)


def _constant_rows(ctx):
    """The h^0 parts of ``ctx._rows`` as integer rows {letter: [(den,
    ((index, numerator), ...)) per basis index]}, or None unless every row
    coefficient has valuation >= 0 and a known h^0.  On such series the
    h^0 coefficient is a ring map, so these rows multiply the constant
    terms of the series products."""
    rows = {}
    for l, row_of in ctx._rows.items():
        rows[l] = out = []
        for den, pairs in row_of:
            if any(x.val < 0 or x.prec < 1 for _, x in pairs):
                return None
            d, nums = _over_common_denominator({j: x[0] for j, x in pairs})
            out.append((d * den, tuple((j, a) for j, a in nums.items() if a)))
    return rows


def _basis_products(rows, tree, i):
    """Basis vector i times every word, in basis order, as (den, {index:
    numerator}) over the integer ``rows``: word k > 0 is word p times the
    letter l for (p, l) = tree[k - 1], p < k, one row step per product."""
    out = [(1, {i: 1})]
    for p, l in tree:
        den, nums = out[p]
        out.append(_sum_rows(den, [(a, rows[l][j]) for j, a in nums.items()]))
    return out


def _terms(keys, den, nums):
    """{keys[j]: a / den for j, a in nums}, an int when den is 1."""
    return {keys[j]: a if den == 1 else Fraction(a, den)
            for j, a in nums.items()}


def structure_constant_oracle(ctx: AlgebraContext, omega) -> dict:
    """Constant terms of all canonical pair products must reproduce the
    independent Brauer multiplication under T -> s, K -> e.

    Also asserts that the canonical words are exactly the Brauer
    spellings, each a loop-free word of its own diagram and its parent's
    plus one letter, the parent first.  ``ctx`` must be the Laurent
    context of either regime at this omega, or DOMAIN_MISMATCH is raised.
    Each left word times every word walks that prefix tree
    (``_basis_products``) on the Brauer rows, filled by ``diagram_mul``,
    and on the h^0 rows (``_constant_rows``); a row with a pole or no
    known h^0 leaves one ``fold_products`` batch of series per left word."""
    omega = _rational(omega)
    _check_laurent(ctx, omega)
    brauer = BrauerAlgebra(ctx.n, omega)
    diag_of, words, index = brauer._diagram_of, ctx.words, ctx.word_index
    same = index.keys() == diag_of.keys() and not words[0] and all(
        index.get(w) == k for k, w in enumerate(words))
    tree = [(index[w[:-1]], w[-1]) for w in words[1:]] if same else ()
    if not same or any(p >= k for k, (p, _) in enumerate(tree, 1)):
        return {"ok": False,
                "reason": "canonical words are not the Brauer spellings"}
    const, bwords = _constant_rows(ctx), brauer.words
    rights = [{w: ctx._one} for w in words]
    for i, w1 in enumerate(words):
        want = _basis_products(brauer._rows, tree,
                               brauer.word_index[diag_of[w1]])
        if const is None:
            prods = fold_products(ctx, {w1: ctx._one}, rights)
        else:
            prods = (_terms(words, *d)
                     for d in _basis_products(const, tree, i))
        for w2, p, d in zip(words, prods, want):
            got = constant_term_element(AlgebraElement(ctx, p), brauer)
            if got.terms != _terms(bwords, *d):
                return {"ok": False,
                        "reason": "structure constants differ at (%r, %r)"
                        % (w1, w2)}
    return {"ok": True, "pairs": len(words) ** 2}


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
    omega = _rational(omega)
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

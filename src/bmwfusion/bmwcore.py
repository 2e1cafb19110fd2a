"""Exact arithmetic in BMW_n(q, nu) on a canonical-word basis.

Letters are encoded as small integers: T_i -> 2i, K_i -> 2i+1 (kappa_i),
1 <= i <= n-1; a word is a tuple of letters.  Inverse generators are
eliminated on input via T_i^-1 = T_i - delta + delta K_i.

A cold build rewrites words onto a canonical spanning set by an oriented
rule system derived from the defining relations (each rule is an exact
consequence, its derivation named next to it), complete for n <= 3.  At
n = 4 and 5 it adds the word-elimination rules of a committed closure
plan, 8 and 309 of them: associativity defects, exact linear dependencies
that bring the dimension to (2n-1)!!; a plan that does not replay raises
DIMENSION_MISMATCH.  One loop applies both kinds of rule, which exist
only while a cold build runs.  Multiplication rewrites nothing: every
product, reduction and rho folds through the rows.

Contexts carry either rational parameters (certified generic) or truncated
Laurent parameters for the classical-limit mode.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from fractions import Fraction

from .combinatorics import check_strands
from .errors import (DimensionMismatch, DomainMismatch, NotGeneric,
                     RewriteLimit)
from .scalars import (ParamSet, TruncLaurent, _window, format_rational,
                      make_params)

T_KIND, K_KIND = 0, 1

CACHE_FORMAT_VERSION = 4
STEP_CAP = 10 ** 6   # rewrite steps allowed for one word
DEFAULT_TRUNCATION = 4


def default_truncation(n: int) -> int:
    """The series terms kept by default for a Laurent context on n strands,
    and from n = 5 on the fewest it accepts: with 4 terms the n = 5 plan
    replays to 945 words of unchecked precision, so such a context raises
    DIMENSION_MISMATCH."""
    return 5 if n >= 5 else DEFAULT_TRUNCATION


def letter(kind: int, i: int) -> int:
    return 2 * i + kind


def letter_index(l: int) -> int:
    return l >> 1


def letter_kind(l: int) -> int:
    return l & 1


def letter_name(l: int) -> str:
    return ("T%d" if letter_kind(l) == T_KIND else "K%d") % letter_index(l)


def word_name(w) -> str:
    return "*".join(letter_name(l) for l in w) if w else "1"


def check_index(i: int, n: int) -> None:
    """IndexError unless i is a generator index 1..n-1 of n strands."""
    if not 1 <= i <= n - 1:
        raise IndexError("generator index %d outside 1..%d" % (i, n - 1))


def check_jm_index(k: int, n: int) -> None:
    """IndexError unless k is a Jucys-Murphy index 1..n of n strands."""
    if not 1 <= k <= n:
        raise IndexError("Jucys-Murphy index %d outside 1..%d" % (k, n))


def jm_word(k: int):
    """The defining word T_{k-1}...T_1 T_1...T_{k-1} of y_k; () for k = 1."""
    down = tuple(letter(T_KIND, i) for i in range(k - 1, 0, -1))
    return down + down[::-1]


# per n, the rules tools/closure_plan.py writes at (6/5, 7/3); see _read_plan
CLOSURE_PLANS = {4: "264.63 265.63 364.623 365.623 5264.62 5265.22", 5: """
264.63 265.63 364.623 365.623 486.85 487.85 586.845 587.845 2464.83 2464.93
2474.83 2474.93 2486.85 2487.85 2586.845 2587.845 2864.63 2865.63 2964.63
2965.63 3464.823 3464.923 3474.823 3474.923 3486.85 3487.85 3586.845 3587.845
3864.623 3865.623 3964.623 3965.623 5264.62 5265.2289 5265.82 5265.92 7486.84
7487.44 7487.823 7586.623 24286.85 24287.85 24648.63 24649.63 24748.63 24749.63
24864.83 24874.83 25286.85 25287.85 25296.85 25297.85 26864.63 26865.63
26964.63 26965.63 27486.84 27487.44 27487.82 27586.62 34648.623 34648.72
34649.623 34748.623 34749.623 34864.823 34874.823 36864.623 36865.623 36964.623
36965.623 37486.84 42864.83 42874.83 48643.84 48743.84 52658.62 52658.72
52659.62 52659.72 52864.62 52864.823 52865.228 52865.823 52874.823 52875.823
53648.62 53648.72 53649.62 53649.72 53864.82 74287.845 74387.845 242864.83
242874.83 246864.63 246964.63 252864.823 252874.823 274287.845 346864.623
346964.623 426487.88 426586.84 426587.82 426864.63 426865.63 426964.63
426965.63 427486.84 427487.44 427487.82 427586.62 436487.88 436586.84
436864.623 436865.623 436964.623 436965.623 437486.84 437487.22 526487.88
526586.84 526587.82 526597.22 526864.623 526865.623 526865.72 526964.623
526965.623 527486.84 242649.72 426487.84 436487.84 526487.84 536864.623
536964.623 642865.668 642965.668 643864.62 643964.62 652864.62 652864.82
652865.228 652865.82 652874.82 652875.82 652964.62 652965.22 653864.82
742865.668 742874.82 742875.82 742965.668 742975.22 742975.82 743864.62
743964.62 743964.82 743965.22 743965.62 752864.62 752864.82 752865.226
752865.62 752865.82 752874.445 752874.62 752874.82 753864.82 265287.85
265297.85 642865.62 642965.62 742864.62 742865.62 742964.62 743864.62
2426487.88 2426864.63 2426964.63 2427487.44 2427487.62 2526487.88 2526864.623
2526864.72 2526964.623 2568643.66 2568643.84 2568652.22 2569643.66 2569652.22
2642865.66 2642865.8467 2648642.85 2648742.85 2652864.82 2652865.22
2652865.8246 2652874.82 2742865.66 2742865.84 4264287.845 4264874.82
4265287.845 4274287.845 4642865.668 4642965.668 4642865.62 4642965.62
4643864.62 4643964.62 4742864.62 4742865.6268 4742964.62 4742965.6268
4743864.62 24269652.22 24742864.62 24742964.62 27429652.228 42642865.66
42642865.84 42642874.82 42652865.22 42652865.824 42652874.84 42652965.22
42742865.66 42742865.846 42742874.62 42742964.82"""}


def _read_plan(text):
    """The (w, g, h, starts_group) entries of one token w.gh... a group."""
    for tok in text.split():
        w, gh = tok.split(".")
        for k, h in enumerate(gh[1:]):
            yield tuple(map(int, w)), int(gh[0]), int(h), k == 0


def double_factorial(m: int) -> int:
    r = 1
    while m > 1:
        r *= m
        m -= 2
    return r


class LaurentParams:
    """Parameter triple over truncated Laurent series (contraction mode)."""

    def __init__(self, q: TruncLaurent, nu: TruncLaurent, label: str):
        self.q = q
        self.nu = nu
        self.label = label
        qinv = q.invert()
        self.delta = q - qinv
        self.nu_inv = nu.invert()
        self.mu = (self.delta + self.nu_inv - nu) / self.delta
        self.c = -(qinv * self.nu_inv)


class RowAlgebra:
    """The base of the BMW, Hecke and Brauer algebras: after its build an
    algebra is a row table that :func:`fold_products` multiplies.

    A subclass fills ``words`` (its basis keys, the unit first), their
    ``word_index`` and the rows ``_rows[l][i]`` of each letter l on each
    basis index i, integers over one denominator when ``rational``.  It
    names its ``element_type`` and spells each basis key as a word in the
    letters (``spell``, by default through ``_spellings``)."""

    rational = True
    _one = Fraction(1)

    def spell(self, key):
        """The word in the letters whose product from 1 is ``key``."""
        return self._spellings[key]

    def one(self):
        return self.element_type(self, {self.words[0]: self._one})

    def zero(self):
        return self.element_type(self, {})

    def gen_T(self, i):
        return self._generator(T_KIND, i)

    def gen_K(self, i):
        return self._generator(K_KIND, i)

    def _generator(self, kind, i):
        """1 times the letter of this kind and index i, read off its row on
        the unit (a series row is over 1)."""
        check_index(i, self.n)
        den, pairs = self._rows[letter(kind, i)][0]
        words, rational = self.words, self.rational
        return self.element_type(self, {
            words[j]: Fraction(x, den) if rational else x for j, x in pairs})

    def from_terms(self, terms):
        """The element sum c * k over {basis key k: c}; any other key
        raises DomainMismatch."""
        for k in terms:
            if k not in self.word_index:
                raise self._outside(k)
        return self.element_type(self, terms)

    def _outside(self, key):
        """The DomainMismatch of a key outside the basis."""
        return DomainMismatch("%s is not a basis key of %s_%d" % (
            self.element_type._key_name(key), type(self).__name__, self.n))

    def product(self, a, b):
        """a * b for two elements of this algebra: every basis key of b
        spelled as a word, then one :func:`fold_products` call."""
        a._check(b)
        spell = self.spell
        return self.element_type(self, fold_products(
            self, a.terms, [{spell(k): c for k, c in b.terms.items()}])[0])


def _walk_basis(start, letters, step):
    """The basis of a :class:`RowAlgebra` whose right products by a letter
    ``step(key, l) = (product, k)`` grow when k is 0: the keys reached
    from ``start`` by growing products in breadth-first order, their
    index, each key's spelling (the first growing word that reaches it)
    and, per letter l, ``step(key, l)`` for every key in order."""
    keys, spellings = [start], {start: ()}
    steps = {l: [] for l in letters}
    for key in keys:                  # visits the keys it appends
        for l in letters:
            p, k = step(key, l)
            if not k and p not in spellings:
                spellings[p] = spellings[key] + (l,)
                keys.append(p)
            steps[l].append((p, k))
    return keys, {key: j for j, key in enumerate(keys)}, spellings, steps


class AlgebraContext(RowAlgebra):
    """Immutable context for one n (use :func:`build_context`): the
    canonical words and their row table, read from the cache file or built
    cold.  A cold build drops its rewriting state (``_memo``, ``_dyn``,
    ``_canonical``, ``_rules``) once the rows are filled."""

    def __init__(self, n, params, cache_dir=None, verify=True):
        check_strands(n)
        self.n = n
        self.params = params
        if isinstance(params, ParamSet):
            if params.certified_n < n:
                raise NotGeneric("certified_n",
                                 "params certified only for n=%d"
                                 % params.certified_n)
        elif isinstance(params, LaurentParams):
            if n >= 5 and params.q.prec < default_truncation(n):
                raise DimensionMismatch("the closure at n = %d needs %d series"
                                        " terms" % (n, default_truncation(n)))
            self._one = TruncLaurent.const(1, params.q.prec)
            self.rational = False
        else:
            raise DomainMismatch("params must be ParamSet or LaurentParams")
        self.delta = params.delta
        self.nu = params.nu
        self.nu_inv = self._one / params.nu
        self.mu = params.mu
        # 1 as the rewriting carries it: an integer numerator, or a series
        self._num_one = 1 if self.rational else self._one
        self.letters = [letter(k, i)
                        for i in range(1, n) for k in (T_KIND, K_KIND)]
        # _shared: the work fusion.py shares between idempotents
        self._jm, self._rho, self._shared = {}, None, {}
        self._cache_path = self._cache_file(cache_dir)
        # what the build did, never printed; a cold _close sets "closure"
        # and "rules_added", and a cold _build the redexes applied and the
        # _find_redex calls
        self.stats = {"cache": self._load_cache(), "closure": "cache",
                      "rules_added": 0}
        bad = self._build(verify)
        if bad and self.stats["cache"] == "hit":
            # an edited cache file: build cold once, and rewrite the file
            self._jm, self._shared = {}, {}
            self.stats["cache"] = "corrupt"
            bad = self._build(verify)
        if bad:
            raise DimensionMismatch(
                "relation suite failed after build: %s" % bad[0])
        if self.stats["cache"] != "hit":
            # a build from the cache reproduces the file it was read from
            self._save_cache()

    def _build(self, verify):
        """Close the basis and fill the rows, unless a cache hit loaded
        them; the failed relations if ``verify``, else none."""
        if self.stats["cache"] != "hit":
            # rewriting state; a word _find_redex found canonical stays so
            self._memo, self._dyn, self._rules = {}, {}, {}
            self._canonical, self._steps, self._searches = set(), 0, 0
            self.words = self._close()
            self.stats.update(rewrite_steps=self._steps,
                              redex_searches=self._searches)
            self.word_index = {w: k for k, w in enumerate(self.words)}
            # right action of each letter on each basis index, filled from
            # the products w * l the closure left in the memo
            self._rows = {l: [self._row(self._memo.pop(w + (l,)))
                              for w in self.words] for l in self.letters}
            self._drop_rules()
        return [r for r in self.verify_relations() if not r["ok"]] \
            if verify else []

    def _drop_rules(self):
        """End the cold build: the rows now hold all the rules gave."""
        del self._memo, self._dyn, self._canonical, self._rules

    # ------------------------------------------------------------------
    # rewriting rules (each an exact consequence of the defining relations)
    # ------------------------------------------------------------------

    def _pair_rule(self, ka, a, kb):
        """Same-index adjacent pair."""
        one, d, nu, mu = self._one, self.delta, self.nu, self.mu
        if ka == T_KIND and kb == T_KIND:
            # T^2 = 1 + delta T - delta nu K  (quadratic relation)
            return [((), one), ((letter(T_KIND, a),), d),
                    ((letter(K_KIND, a),), -(d * nu))]
        if ka == K_KIND and kb == K_KIND:
            return [((letter(K_KIND, a),), mu)]       # K^2 = mu K
        return [((letter(K_KIND, a),), nu)]           # TK = KT = nu K

    def _f_rule(self, j, ka, kb, kc):
        """A_j B_{j-1} C_j (high-low-high); every such triple rewrites."""
        one, d, nui = self._one, self.delta, self.nu_inv
        Tj, Kj = letter(T_KIND, j), letter(K_KIND, j)
        Tl, Kl = letter(T_KIND, j - 1), letter(K_KIND, j - 1)
        if kb == T_KIND:
            if ka == T_KIND and kc == T_KIND:      # braid relation
                return [((Tl, Tj, Tl), one)]
            if ka == T_KIND and kc == K_KIND:      # rho-image of K_l T_j T_l = T_j T_l K_j
                return [((Kl, Tj, Tl), one)]
            if ka == K_KIND and kc == T_KIND:      # K_j T_l T_j = K_j K_l
                return [((Kj, Kl), one)]
            return [((Kj,), nui)]                  # K_j T_l K_j = nu^-1 K_j
        if ka == T_KIND and kc == T_KIND:
            # T_j K_l T_j = T_l^-1 K_j T_l^-1, inverses expanded
            out = []
            for (x, cx) in ((Tl, one), (None, -d), (Kl, d)):
                for (y, cy) in ((Tl, one), (None, -d), (Kl, d)):
                    frag = (() if x is None else (x,)) + (Kj,) + \
                           (() if y is None else (y,))
                    out.append((frag, cx * cy))
            return out
        if ka == T_KIND and kc == K_KIND:          # T_j K_l K_j = (T_l - d) K_j + d K_l K_j
            return [((Tl, Kj), one), ((Kj,), -d), ((Kl, Kj), d)]
        if ka == K_KIND and kc == T_KIND:          # K_j K_l T_j = K_j (T_l - d) + d K_j K_l
            return [((Kj, Tl), one), ((Kj,), -d), ((Kj, Kl), d)]
        return [((Kj,), one)]                      # K_j K_l K_j = K_j

    def _inv_rule(self, i, ka, kb, kc):
        """A_i B_{i+1} C_i (low-high-low); None = canonical."""
        one, d, nui = self._one, self.delta, self.nu_inv
        Ti, Ki = letter(T_KIND, i), letter(K_KIND, i)
        Th, Kh = letter(T_KIND, i + 1), letter(K_KIND, i + 1)
        if kb == T_KIND:
            if ka == T_KIND and kc == T_KIND:
                return None
            if ka == T_KIND and kc == K_KIND:      # T_i T_h K_i = K_h K_i
                return [((Kh, Ki), one)]
            if ka == K_KIND and kc == T_KIND:      # K_i T_h T_i = K_i K_h
                return [((Ki, Kh), one)]
            return [((Ki,), nui)]                  # K_i T_h K_i = nu^-1 K_i
        if ka == T_KIND and kc == T_KIND:
            return None
        if ka == T_KIND and kc == K_KIND:          # T_i K_h K_i = (T_h - d) K_i + d K_h K_i
            return [((Th, Ki), one), ((Ki,), -d), ((Kh, Ki), d)]
        if ka == K_KIND and kc == T_KIND:          # K_i K_h T_i = K_i (T_h - d) + d K_i K_h
            return [((Ki, Th), one), ((Ki,), -d), ((Ki, Kh), d)]
        return [((Ki,), one)]                      # K_i K_h K_i = K_i

    def _g2_rule(self, i, kx, ky):
        """K_{i+1} T_i X_{i+2} Y_{i+1} T_i -> canonical combination."""
        one, d, nui = self._one, self.delta, self.nu_inv
        Kh = letter(K_KIND, i + 1)
        Ti, Ki = letter(T_KIND, i), letter(K_KIND, i)
        Th = letter(T_KIND, i + 1)
        T2, K2 = letter(T_KIND, i + 2), letter(K_KIND, i + 2)
        if kx == T_KIND and ky == T_KIND:
            return [((Kh, Ti, K2, Th), one)]
        if kx == K_KIND and ky == T_KIND:
            return [((Kh, Ti, T2, Th), one), ((Kh, Ki), -d),
                    ((Kh, Ti, K2, Th), d)]
        if kx == T_KIND and ky == K_KIND:
            return [((Kh, Ki, K2, Th), one), ((Kh, Ki, K2), -d),
                    ((Kh, Ki, K2, Kh), d), ((Kh, Ki, Th), d * nui),
                    ((Kh, Ki), -(d * d * nui)), ((Kh,), d * d * nui),
                    ((Kh, Ki, T2, Th), -d), ((Kh, Ki, T2), d * d),
                    ((Kh, Ki, T2, Kh), -(d * d))]
        return [((Kh, Ki, T2, Th), one), ((Kh, Ki, T2), -d),
                ((Kh, Ti, K2, Kh), d)]

    def _g1_rule(self, i, kx):
        """T_i K_{i+1} T_i X_{i+2} K_{i+1} (the rho-image of _g2_rule)."""
        one, d, nui = self._one, self.delta, self.nu_inv
        Kh = letter(K_KIND, i + 1)
        Ti, Ki = letter(T_KIND, i), letter(K_KIND, i)
        Th = letter(T_KIND, i + 1)
        T2, K2 = letter(T_KIND, i + 2), letter(K_KIND, i + 2)
        if kx == T_KIND:
            return [((Th, Ki, K2, Kh), one), ((Ki, K2, Kh), -d),
                    ((Kh, Ki, K2, Kh), d), ((Th, Ki, Kh), d * nui),
                    ((Ki, Kh), -(d * d * nui)), ((Kh,), d * d * nui),
                    ((Th, Ki, T2, Kh), -d), ((Ki, T2, Kh), d * d),
                    ((Kh, Ki, T2, Kh), -(d * d))]
        return [((Th, Ki, T2, Kh), one), ((Ki, T2, Kh), -d),
                ((Kh, Ti, K2, Kh), d)]

    def _f1_rule(self, i, kx):
        """T_i T_{i+1} T_i X_{i+2} K_{i+1}: the braid relation, then
        _inv_rule on T_{i+1} X_{i+2} K_{i+1}."""
        head = (letter(T_KIND, i + 1), letter(T_KIND, i))
        return [(head + frag, c)
                for frag, c in self._inv_rule(i + 1, T_KIND, kx, K_KIND)]

    # ------------------------------------------------------------------
    # redex search
    # ------------------------------------------------------------------

    def _redex(self, lo, hi, left, right, make, *args):
        """The redex w[lo:hi] -> left + make(*args) + right as (lo, hi,
        (den, [(fragment, numerator)])), or None if the rule leaves it
        canonical.  Each rule's coefficients are formed once per build:
        integer numerators over their least common denominator in a
        rational context, the series over 1 in a Laurent one."""
        key = (make.__name__, *args)
        rule = self._rules.get(key, key)
        if rule is key:
            rule = make(*args)
            if rule is not None and self.rational:
                den = math.lcm(*(c.denominator for _, c in rule))
                rule = den, [(f, c.numerator * (den // c.denominator))
                             for f, c in rule]
            elif rule is not None:
                rule = 1, rule
            self._rules[key] = rule
        if rule is None:
            return None
        if left or right:
            rule = rule[0], [(left + f + right, c) for f, c in rule[1]]
        return lo, hi, rule

    def _find_redex(self, w):
        """(start, end, (den, [(fragment, numerator)])) for the first
        redex of w: w[start:end] is the sum of the fragments' numerators
        over den.  None = canonical."""
        redex = self._redex
        L = len(w)
        for p in range(L - 1):
            la, lb = w[p], w[p + 1]
            a, ka = letter_index(la), letter_kind(la)
            b, kb = letter_index(lb), letter_kind(lb)
            if a == b:
                return redex(p, p + 2, (), (), self._pair_rule, ka, a, kb)
            if a >= b + 2:
                # distant pair, sort ascending
                return (p, p + 2, (1, [((lb, la), self._num_one)]))
            if a == b + 1:
                # F-family: A_j B_{j-1} W C_j with W of index <= j-2
                j = a
                qpos = p + 2
                while qpos < L and letter_index(w[qpos]) <= j - 2:
                    qpos += 1
                if qpos < L and letter_index(w[qpos]) == j:
                    return redex(p, qpos + 1, (), w[p + 2:qpos], self._f_rule,
                                 j, ka, kb, letter_kind(w[qpos]))
            if b >= a + 1:
                # INV-family: A_i W B_{i+1} C_i with W of index >= i+2
                i = a
                qpos = p + 1
                while qpos < L and letter_index(w[qpos]) >= i + 2:
                    qpos += 1
                if (qpos + 1 < L and letter_index(w[qpos]) == i + 1
                        and letter_index(w[qpos + 1]) == i):
                    red = redex(p, qpos + 2, w[p + 1:qpos], (),
                                self._inv_rule, i, ka, letter_kind(w[qpos]),
                                letter_kind(w[qpos + 1]))
                    if red is not None:
                        return red
            # G1 (B = K), FAM-F1 (B = T): T_i B_{i+1} T_i [W] X_{i+2} K_{i+1}
            if (ka == T_KIND and b == a + 1 and p + 2 < L
                    and w[p + 2] == letter(T_KIND, a)):
                i = a
                qpos = p + 3
                while qpos < L and (letter_index(w[qpos]) >= i + 3
                                    or letter_index(w[qpos]) <= i - 1):
                    qpos += 1
                if (qpos + 1 < L and letter_index(w[qpos]) == i + 2
                        and w[qpos + 1] == letter(K_KIND, i + 1)):
                    W = w[p + 3:qpos]
                    Whi = tuple(l for l in W if letter_index(l) >= i + 3)
                    Wlo = tuple(l for l in W if letter_index(l) <= i - 1)
                    return redex(p, qpos + 2, Whi, Wlo,
                                 self._g1_rule if kb == K_KIND
                                 else self._f1_rule, i, letter_kind(w[qpos]))
            # G2: K_{i+1} T_i [W] X_{i+2} Y_{i+1} T_i
            if ka == K_KIND and kb == T_KIND and b == a - 1:
                i = a - 1
                qpos = p + 2
                while qpos < L and letter_index(w[qpos]) >= i + 3:
                    qpos += 1
                if (qpos + 2 < L and letter_index(w[qpos]) == i + 2
                        and letter_index(w[qpos + 1]) == i + 1
                        and w[qpos + 2] == letter(T_KIND, i)):
                    return redex(p, qpos + 3, w[p + 2:qpos], (),
                                 self._g2_rule, i, letter_kind(w[qpos]),
                                 letter_kind(w[qpos + 1]))
        return None

    # ------------------------------------------------------------------
    # reduction, closure, completion
    # ------------------------------------------------------------------

    def _reduce(self, word):
        """Rewrite a word into (den, {canonical word: numerator}) by
        ``_rewrite`` through the relations, then, if the result holds a
        word with an elimination rule, through those rules, their counts
        kept out of ``stats``.  Two passes: one that applied a rule the
        moment its lead is popped would sum series in another order.  Each
        read stores the memo entry back canonical."""
        vec = self._memo.get(word)
        if vec is None:
            vec, steps, searches = self._rewrite(
                word, 1, {word: self._num_one}, self._find_redex,
                self._canonical)
            self._steps += steps
            self._searches += searches
        if not self._dyn.keys().isdisjoint(vec[1]):
            vec = self._rewrite(word, vec[0], dict(vec[1]), self._dyn_redex,
                                set())[0]
        self._memo[word] = vec
        return vec

    def _dyn_redex(self, w):
        """The elimination rule of w as a redex spanning all of w, or None."""
        rule = self._dyn.get(w)
        if rule is not None:
            return 0, len(w), (rule[0], rule[1].items())

    def _rewrite(self, word, den, pending, find, known):
        """Rewrite pending {word: numerator} over den until ``find`` (a
        word -> its redex or None) finds none: the vector (den, {word:
        numerator}) in lowest terms, the redexes applied and the ``find``
        calls.  A word of ``known`` is not searched; a canonical one joins
        it.  Past STEP_CAP redexes REWRITE_LIMIT names ``word``.  A rational
        context keeps integer numerators over den: a redex over r first
        multiplies den and the other numerators by r over its gcd with the
        redex's own.  A Laurent context runs over 1 with its series."""
        done = {}
        steps = searches = 0
        while pending:
            w, c = pending.popitem()
            if w in known:
                red = None
            else:
                searches += 1
                red = find(w)
            if red is None:
                known.add(w)
                prev = done.get(w)
                done[w] = c if prev is None else prev + c
                continue
            steps += 1
            if steps > STEP_CAP:
                raise RewriteLimit("step cap %d exceeded reducing %s"
                                   % (STEP_CAP, word_name(word)))
            lo, hi, (r, rep) = red
            if r != 1:
                g = math.gcd(c, r)
                c, r = c // g, r // g
                if r != 1:
                    den *= r
                    for u in pending:
                        pending[u] *= r
                    for u in done:
                        done[u] *= r
            pre, post = w[:lo], w[hi:]
            for frag, coeff in rep:
                nw = pre + frag + post
                nc = c * coeff
                if nw in pending:
                    nc = pending.pop(nw) + nc
                if nc != 0:
                    pending[nw] = nc
        return _lowest(den, done), steps, searches

    def _row(self, vec):
        """A reduced vector (den, {word: numerator}) as (den, ((j,
        numerator), ...)) by ascending basis index j, so no row depends on
        the memo's history."""
        den, nums = vec
        widx = self.word_index
        return den, tuple(sorted((widx[u], x) for u, x in nums.items()))

    def _closure_once(self):
        """The words reached from () by right letter products, in basis
        order."""
        basis = {(): None}
        frontier = [()]
        while frontier:
            nxt = []
            for w in frontier:
                for l in self.letters:
                    for u in self._reduce(w + (l,))[1]:
                        if u not in basis:
                            basis[u] = None
                            nxt.append(u)
            frontier = nxt
        return sorted(basis, key=lambda w: (len(w), w))

    def _defect(self, w, vg, g, h, gh):
        """The rule lead -> (den, rep) of the associativity defect (w.g).h
        - w.(g.h), given vg = w.g and gh = g.h as vectors (den, {word:
        numerator}), or None if it vanishes.  The lead is the defect's
        longest (then greatest) word."""
        def times(vec, l):
            den, nums = vec
            got = []
            for u, a in nums.items():
                d, red = self._reduce(u + (l,))
                got.append((a, (d, red.items())))
            return _sum_rows(den, got)

        d, t = times(vg, h)
        got = [(1, (d, t.items()))]
        for v, cv in gh[1].items():
            t = (gh[0], {w: cv})
            for l in v:
                t = times(t, l)
            got.append((-1, (t[0], t[1].items())))
        _, D = _sum_rows(1, got)
        if D:
            lead = max(D, key=lambda x: (len(x), x))
            cl = D.pop(lead)
            if not self.rational:
                return lead, (1, {u: -c / cl for u, c in D.items()})
            return lead, _lowest(abs(cl), {u: -c if cl > 0 else c
                                           for u, c in D.items()})

    def _close(self):
        """Replay CLOSURE_PLANS[n] and return the basis of (2n-1)!! words.

        Each plan entry (w, g, h, starts_group) names an associativity
        defect (w.g).h - w.(g.h): an exact linear dependency among the
        words so far, whose lead becomes an elimination rule.  vg = w.g
        is reduced at the first entry of a group; the later entries of
        the group use it as it was.  ``tools/closure_plan.py`` regenerates
        the plan and sweeps its replay.  A defect that vanishes, a lead
        that has a rule already or a basis of another size raises
        DIMENSION_MISMATCH.  ``stats["closure"]`` is "replay", or "none"
        when n has no plan.
        """
        text = CLOSURE_PLANS.get(self.n)
        self.stats["closure"] = "replay" if text else "none"
        for k, (w, g, h, starts) in enumerate(_read_plan(text or ""), 1):
            if starts:
                vg = self._reduce(w + (g,))
            rule = self._defect(w, vg, g, h, self._reduce((g, h)))
            if rule is None or rule[0] in self._dyn:
                raise DimensionMismatch(
                    "closure plan entry %d (%s.%d%d) for n=%d: %s" % (
                        k, "".join(map(str, w)), g, h, self.n,
                        "the defect vanishes" if rule is None else
                        "its lead %s has a rule" % word_name(rule[0])))
            self._dyn[rule[0]] = rule[1]
        added = self.stats["rules_added"] = len(self._dyn)
        basis = self._closure_once()
        want = double_factorial(2 * self.n - 1)
        if len(basis) != want:
            raise DimensionMismatch(
                "closure reached %d words after %d plan entries, expected %d"
                " for n=%d" % (len(basis), added, want, self.n))
        return basis

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def _point(self):
        """The parameters as the cache file records them: q and nu as
        rational text, or the label and the exact series of q and nu."""
        p = self.params
        if self.rational:
            return {"q": format_rational(p.q), "nu": format_rational(p.nu)}
        return {"label": p.label, "q": _series_json(p.q),
                "nu": _series_json(p.nu)}

    def _cache_file(self, cache_dir):
        if cache_dir is None:
            cache_dir = os.environ.get("BMWF_CACHE")
        if not cache_dir:
            return None
        point = self._point()
        if self.rational:
            tag = ("q%s-nu%s" % (point["q"], point["nu"])).replace("/", "_")
        else:   # the label, then val, prec, den and nums of q and nu
            tag = "laurent-" + hashlib.sha256(
                json.dumps(point).encode()).hexdigest()[:16]
        plan = CLOSURE_PLANS.get(self.n)      # another plan, other rules
        key = "bmw-n%d-%s-v%d%s.json" % (
            self.n, tag, CACHE_FORMAT_VERSION,
            "-" + hashlib.sha256(plan.encode()).hexdigest() if plan else "")
        return os.path.join(cache_dir, key)

    def _load_cache(self):
        """Fill ``words``, ``word_index`` and ``_rows`` from the cache file
        and return the cache state: "off" without a cache file, "hit",
        "miss" for a missing or other-version file, "corrupt" for an
        unreadable or malformed one, or one recorded for other parameters
        or another n.  A series is read only in the normal form
        ``_read_series`` accepts, and a series row only over 1, as the
        build writes it.  The build rewrites the file unless it was a hit;
        a hit that fails the relation suite is built again cold and
        becomes "corrupt".
        """
        path = self._cache_path
        if path is None:
            return "off"
        if not os.path.exists(path):
            return "miss"
        letters = set(self.letters)

        def word(x):
            w = tuple(x)
            if not letters.issuperset(w):
                raise ValueError("letter outside the algebra")
            return w

        seen = {}   # one TruncLaurent for each distinct series
        try:
            with open(path) as f:
                data = json.load(f)
            if data.get("version") != CACHE_FORMAT_VERSION:
                return "miss"
            if data["n"] != self.n or any(
                    data[k] != v for k, v in self._point().items()) or any(
                    type(data[k]) is not list for k in ("words", "rows")):
                return "corrupt"
            words = [word(w) for w in data["words"]]
            rows = data.pop("rows")
            del data
            num = int if self.rational else TruncLaurent
            for k, row_of in enumerate(rows):   # freed as it is converted
                rows[k] = [(den, tuple(map(tuple, pairs)) if self.rational
                            else tuple((j, _read_series(x, seen))
                                       for j, x in pairs))
                           for den, pairs in row_of]
            size = len(words)
            if size != double_factorial(2 * self.n - 1) or \
                    len(set(words)) != size or len(rows) != len(letters) or \
                    any(len(row_of) != size for row_of in rows) or not all(
                        type(den) is int and (den > 0 if self.rational
                                              else den == 1) and all(
                            type(j) is int and type(x) is num and 0 <= j < size
                            for j, x in pairs)
                        for row_of in rows for den, pairs in row_of):
                return "corrupt"
        except (OSError, ValueError, AttributeError, KeyError, TypeError):
            return "corrupt"
        self.words = words
        self.word_index = {w: k for k, w in enumerate(words)}
        self._rows = dict(zip(self.letters, rows))
        return "hit"

    def _save_cache(self):
        path = self._cache_path
        if path is None:
            return
        data = {
            "version": CACHE_FORMAT_VERSION,
            "n": self.n,
            **self._point(),
            # the basis, and the rows of each letter as _rows holds them
            "words": self.words,
            "rows": [self._rows[l] for l in self.letters],
        }
        tmp = None
        try:    # a cache that cannot be written is skipped
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".bmwf-tmp-")
            with os.fdopen(fd, "w") as f:
                # dumps, unlike dump, runs in C; it writes each coefficient
                # as rational text or as _series_json gives a series
                f.write(json.dumps(data, default=format_rational
                                   if self.rational else _series_json))
            os.replace(tmp, path)
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # element constructors
    # ------------------------------------------------------------------

    def spell(self, w):
        """A canonical word is its own spelling."""
        return w

    def from_terms(self, terms):
        """The element sum c * w over {word: c}, the words outside the basis
        multiplied out from 1 through the rows in one :func:`fold_products`
        call, which raises DomainMismatch for a letter outside the
        generators."""
        widx = self.word_index
        out, rest = {}, {}
        for w, c in terms.items():
            w = tuple(w)
            if w not in widx:
                rest[w] = c
            else:
                out[w] = out[w] + c if w in out else c
        if rest:
            rest, = fold_products(self, {(): self._one}, [rest])
            for u, c in rest.items():
                out[u] = out[u] + c if u in out else c
        return AlgebraElement(self, out)

    def reduce_word(self, word):
        """A word as {basis word: coefficient}: 1 times the word through
        the rows (``from_terms``)."""
        return self.from_terms({tuple(word): self._one}).terms

    def gen_Tinv(self, i):
        """T_i^-1 = T_i - delta + delta K_i."""
        check_index(i, self.n)
        return AlgebraElement(self, {
            (letter(T_KIND, i),): self._one,
            (): -self.delta * self._one,
            (letter(K_KIND, i),): self.delta * self._one,
        })

    def jm_element(self, k):
        """Jucys-Murphy element y_k: 1 times its defining word
        ``jm_word(k)``, one ``fold_products`` call through the rows."""
        check_jm_index(k, self.n)
        hit = self._jm.get(k)
        if hit is None:
            hit = self._jm[k] = AlgebraElement(self, fold_products(
                self, {(): self._one}, [{jm_word(k): self._one}])[0])
        return hit

    def rho(self, elem):
        """The anti-automorphism fixing every generator (word reversal),
        read off a table of rho(w) for each basis word w: 1 times the
        reversed words, one :func:`fold_products` call on first use.  A
        coefficient whose entry is one word with coefficient 1 is copied."""
        if self._rho is None:
            prods = fold_products(self, {(): self._one},
                                  [{w[::-1]: self._one} for w in self.words])
            self._rho = {w: [(u, None if len(p) == 1 and x == 1 else x)
                             for u, x in p.items()]
                         for w, p in zip(self.words, prods)}
        out = {}
        try:
            for w, c in elem.terms.items():
                for u, x in self._rho[w]:
                    y = c if x is None else c * x
                    out[u] = out[u] + y if u in out else y
        except KeyError:
            raise self._outside(w) from None
        return AlgebraElement(self, out)

    # ------------------------------------------------------------------
    # relation suite
    # ------------------------------------------------------------------

    def verify_relations(self):
        """Check the defining and derived relations instance by instance.

        Returns a list of {"relation", "instance", "ok"} dicts; the
        rho-images of the one-sided relations are included.

        Each side with a product is a left element times a combination of
        words: the words of its first right factor, then the basis words
        of every later factor concatenated, their coefficients multiplied.
        ``one()``, ``gen_T(i)``, ``gen_K(i)`` and ``T_i - delta`` are 1
        folded through their words (``gen_T`` reads the row of T_i at the
        unit, the fold of (T_i,) from 1), and a row step is linear in the
        vector it acts on, so a chain led by one of them is 1 folded
        through its words: the coefficients of the chained products, read
        off the same rows, on an edited table too.  The products run as
        one :func:`fold_products` call per left element: 1 for the chains
        led by a generator, the literal T_i^-1 for the three it leads
        ("inverse (left)", the right side of (2.10), rho(2.12)), each y_a
        for its commutators, and the products y_j y_{j+1} and K_j y_{j+1}
        of those folds for the two chains of (2.23).  A side with no
        product stands as it is; so the right side of "kappa-def", which
        mixes ``gen_T`` with the literal T_i^-1, is not folded from 1: on
        an edited table that would read other rows.
        """
        n, one, dlt = self.n, self._one, self.delta
        idx = range(1, n)
        T = {i: self.gen_T(i) for i in idx}
        K = {i: self.gen_K(i) for i in idx}
        Ti = {i: self.gen_Tinv(i) for i in idx}
        unit = self.one()
        D = {i: T[i] - unit.scale(dlt) for i in idx}
        ys = [self.jm_element(a) for a in range(1, n + 1)]
        # the words of 1 * T_i, 1 * K_i and 1 * (T_i - delta)
        t = {i: {(letter(T_KIND, i),): one} for i in idx}
        k = {i: {(letter(K_KIND, i),): one} for i in idx}
        d = {i: {(letter(T_KIND, i),): one, (): -(one * dlt)} for i in idx}
        # per fold its left terms (1: the unit), unless it is a product of
        # another fold
        lefts = {1: {(): one}, **{("Ti", i): Ti[i].terms for i in idx},
                 **{("y", a): y.terms for a, y in enumerate(ys)}}
        rights, done = {}, {}

        def mul(left, first, *later):
            """left * first * later, deferred to the fold of ``left``, with
            ``first`` a {word: coeff} and each later factor an element:
            a handle (left, position of the right factor)."""
            combo = first
            for f in later:
                nxt = {}
                for w, c in combo.items():
                    for u, x in f.terms.items():
                        wu = w + u
                        nxt[wu] = nxt[wu] + c * x if wu in nxt else c * x
                combo = nxt
            got = rights.setdefault(left, [])
            got.append(combo)
            return left, len(got) - 1

        def value(side):
            """The element of a side: itself, or its product, once the
            fold of its left has run."""
            if not isinstance(side, tuple):
                return side
            left, pos = side
            if left not in done:
                terms = lefts[left] if left in lefts else value(left).terms
                done[left] = fold_products(self, terms, rights[left])
            return AlgebraElement(self, done[left][pos])

        checks = []

        def chk(name, inst, lhs, rhs):
            checks.append((name, inst, lhs, rhs))

        for i in range(1, n - 1):
            chk("braid", "i=%d" % i, mul(1, t[i], T[i + 1], T[i]),
                mul(1, t[i + 1], T[i], T[i + 1]))
        for i in idx:
            for jj in range(i + 2, n):
                chk("distant", "i=%d j=%d" % (i, jj),
                    mul(1, t[i], T[jj]), mul(1, t[jj], T[i]))
        for i in idx:
            chk("inverse", "i=%d" % i, mul(1, t[i], Ti[i]), unit)
            chk("inverse", "i=%d (left)" % i, mul(("Ti", i), T[i].terms),
                unit)
            chk("kappa-def", "i=%d" % i,
                K[i], unit - (T[i] - Ti[i]).scale(one / dlt))
            chk("KT=nuK", "i=%d" % i, mul(1, k[i], T[i]), K[i].scale(self.nu))
            chk("TK=nuK", "i=%d" % i, mul(1, t[i], K[i]), K[i].scale(self.nu))
            chk("K^2=muK", "i=%d" % i, mul(1, k[i], K[i]), K[i].scale(self.mu))
        for i in idx:
            for eps in (1, -1):
                j = i + eps
                if not 1 <= j <= n - 1:
                    continue
                inst = "i=%d e=%+d" % (i, eps)
                ktt, kk = mul(1, k[i], T[j], T[i]), mul(1, k[i], K[j])
                ttk, kk_ji = mul(1, t[i], T[j], K[i]), mul(1, k[j], K[i])
                chk("K T^e K = nu^-e K", inst, mul(1, k[i], T[j], K[i]),
                    K[i].scale(self.nu_inv))
                chk("K T^-e K", inst, mul(1, k[i], Ti[j], K[i]),
                    K[i].scale(self.nu))
                chk("K T T = T T K (2.7)", inst, ktt, mul(1, t[j], T[i], K[j]))
                chk("KKK=K", inst, mul(1, k[i], K[j], K[i]), K[i])
                chk("square exchange (2.9)", inst, mul(1, d[i], K[j], D[i]),
                    mul(1, d[j], K[i], D[j]))
                chk("T K T = T^-1 K T^-1 (2.10)", inst,
                    mul(1, t[j], K[i], T[j]),
                    mul(("Ti", i), K[j].terms, Ti[i]))
                chk("K T T = K K (2.11)", inst, ktt, kk)
                chk("K T- T- = K K (2.12)", inst,
                    mul(1, k[i], Ti[j], Ti[i]), kk)
                chk("K K (T - d) (2.13)", inst, mul(1, k[j], K[i], D[j]),
                    mul(1, k[j], D[i]))
                # rho-images
                chk("rho(2.7)", inst, ttk, mul(1, k[j], T[i], T[j]))
                chk("rho(2.11)", inst, ttk, kk_ji)
                chk("rho(2.12)", inst, mul(("Ti", i), Ti[j].terms, K[i]),
                    kk_ji)
                chk("rho(2.13)", inst, mul(1, d[j], K[i], K[j]),
                    mul(1, d[i], K[j]))
        # Jucys-Murphy identities
        yy = {(a, b): mul(("y", a), ys[b].terms)
              for a in range(n) for b in range(n) if a != b}
        for a in range(n):
            for b in range(a + 1, n):
                chk("JM commute", "y%d y%d" % (a + 1, b + 1),
                    yy[a, b], yy[b, a])
        nu2 = self.nu * self.nu
        for j in idx:
            chk("K y y = nu^2 K (2.23)", "j=%d" % j,
                mul(mul(1, k[j], ys[j]), ys[j - 1].terms), K[j].scale(nu2))
            chk("y y K = nu^2 K (2.23)", "j=%d" % j,
                mul(yy[j - 1, j], K[j].terms), K[j].scale(nu2))
        return [{"relation": name, "instance": inst,
                 "ok": (value(lhs) - value(rhs)).is_zero()}
                for name, inst, lhs, rhs in checks]


def _series_json(x):
    """A series as the cache file writes it: [val, prec, den, nums]."""
    return [x.val, x.prec, x.den, list(x.nums)]


def _read_series(x, seen):
    """The series of ``_series_json`` output, or ValueError unless its
    fields are integers, den > 0 and ``scalars._window`` leaves it
    unchanged: the normal form, with prec - val numerators.  ``seen``
    maps the fields of each series read to its one TruncLaurent."""
    val, prec, den, nums = x
    key = (val, prec, den, *nums)
    if set(map(type, key)) != {int}:
        raise ValueError("series field not an integer")
    got = seen.get(key)
    if got is None:
        nums = key[3:]
        if den <= 0 or len(nums) != prec - val or \
                _window(val, prec, den, nums) != (val, prec, den, nums):
            raise ValueError("series not in normal form")
        got = seen[key] = TruncLaurent._make(val, prec, den, nums)
    return got


class SparseElement:
    """Sparse linear combination of basis keys over one scalar domain.

    The shared arithmetic of the BMW, Hecke and Brauer elements; each
    subclass defines its own ``__mul__`` and the basis-key order and
    names used by ``repr``.  Two elements are compatible when their
    algebras compare equal, which each algebra class defines.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c != 0}

    def _check(self, other):
        if type(other) is not type(self):
            raise DomainMismatch("expected a %s" % type(self).__name__)
        if other.algebra != self.algebra:
            raise DomainMismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = -c if prev is None else prev - c
        return type(self)(self.algebra, out)

    def __neg__(self):
        return type(self)(self.algebra,
                          {k: -c for k, c in self.terms.items()})

    def scale(self, x):
        return type(self)(self.algebra,
                          {k: c * x for k, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.algebra == other.algebra and (self - other).is_zero()

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    _key_order = None
    _key_name = staticmethod(str)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%s" % (self.terms[k], self._key_name(k))
                          for k in sorted(self.terms, key=self._key_order))


def _over_common_denominator(terms):
    """(D, {key: numerator}) with terms[key] = numerator / D."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in terms.items()}


def _sum_rows(den, got):
    """The vector sum a * row / den over got = [(a, (d, pairs))], each row
    (key, numerator) pairs over its denominator d, as (denominator, {key:
    numerator}): integer numerators over den times the rows' common
    denominator, zero terms dropped and the content divided out (no gcd
    over 1: the series of a Laurent closure's ``_defect`` sum so, in
    their own arithmetic).  Series rows fold in ``_fold_series``."""
    row_den = 1
    for _, (d, _) in got:
        if row_den % d:
            row_den = math.lcm(row_den, d)
    nxt = {}
    get = nxt.get
    for a, (d, row) in got:
        if d != row_den:        # most rows share row_den: skip a scale by 1
            a *= row_den // d
        for j, x in row:
            prev = get(j)
            nxt[j] = a * x if prev is None else prev + a * x
    return _lowest(den * row_den, nxt)


def _lowest(den, nums):
    """(den, nums) with the zero terms dropped and the content
    gcd(den, *nums) divided out (no gcd over denominator 1, so series
    numerators pass over 1 as they are)."""
    g = 1 if den == 1 else math.gcd(den, *nums.values())
    if g == 1:
        return den, {j: a for j, a in nums.items() if a}
    return den // g, {j: a // g for j, a in nums.items() if a}


# the window of an int or Fraction: it meets a series on the series' window
_INF = math.inf


def _digits(c):
    """(val, prec, den, nums) of a series, an int or a Fraction: a nonzero
    scalar is its h^0 term on an unbounded window, a zero scalar has no
    term and its window is its factor's (see ``_fold_series``)."""
    if c.__class__ is TruncLaurent:
        return c.val, c.prec, c.den, c.nums
    if c:
        return 0, _INF, c.denominator, (c.numerator,)
    return _INF, _INF, 1, ()


def _pack(nums, shift, B):
    """sum_t nums[t] 2^(B (shift + t)): the digits nums from digit shift on."""
    X = 0
    for x in reversed(nums):
        X = (X << B) + x
    return X << B * shift


def _unpack(X, B, n):
    """The n lowest balanced base-2^B digits of X, each in
    [-2^(B-1), 2^(B-1))."""
    half = 1 << B - 1
    mask, out = 2 * half - 1, []
    for _ in range(n):
        x = ((X + half) & mask) - half
        out.append(x)
        X = (X - x) >> B
    return out


def _row_table(algebra):
    """{letter l: (L_l, m_l, C_l, rows, packed)}, the row scaling that the
    fusion row pass and the series fold share.  L_l is the lcm of the
    denominators of l's rows (of their series, in a Laurent context), m_l
    the least valuation of those series (0 for integer rows) and C_l the
    largest column sum, max over j of the sum of |numerator| * L_l / den
    over every entry at j in l's rows.  Integer rows have ``rows[i]``, l's
    row on index i over L_l as ((j, numerator), ...), and ``packed`` None.
    Series rows have ``rows`` None and ``packed[B][i]`` l's row on index i
    as ((j, val, prec, P), ...), P the numerators over L_l packed from
    h^m_l on with B-bit digits (``_pack``), formed from ``_rows`` the first
    time a fold runs at that B.  The table is formed on first use and
    kept with the ``_rows`` it was formed from: a rebuild that replaces
    them forms it again."""
    got = algebra.__dict__.get("_table")
    if got is None or got[0] is not algebra._rows:
        table = {}
        for l, row_of in algebra._rows.items():
            if algebra.rational:
                L = math.lcm(*(d for d, _ in row_of))
                rows = [tuple((j, x * (L // d)) for j, x in pairs)
                        for d, pairs in row_of]
                m, packed = 0, None
                weights = ((j, abs(x)) for row in rows for j, x in row)
            else:
                xs = [x for _, pairs in row_of for _, x in pairs]
                L = math.lcm(*(x.den for x in xs))
                rows, m, packed = None, min((x.val for x in xs), default=0), {}
                weights = ((j, sum(map(abs, x.nums)) * (L // x.den))
                           for _, pairs in row_of for j, x in pairs)
            cols = {}
            for j, w in weights:
                cols[j] = cols.get(j, 0) + w
            table[l] = L, m, max(cols.values(), default=0), rows, packed
        got = algebra._table = (algebra._rows, table)
    return got[1]


def _packed_rows(algebra, l, entry, B):
    """The rows of letter l packed at B (see ``_row_table``)."""
    L, m, _, _, packed = entry
    rows = packed.get(B)
    if rows is None:
        rows = packed[B] = [
            tuple((j, x.val, x.prec,
                   _pack([a * (L // x.den) for a in x.nums], x.val - m, B))
                  for j, x in pairs) for _, pairs in algebra._rows[l]]
    return rows


def _pack_vector(D, entries, K):
    """The packed vector (D, V0, B, M, {index: (val, prec, X)}) of entries
    {index: (val, prec, digits)}, integers over D on [val, prec): V0 the
    least val, X the digits packed from h^V0 on, M their largest |digit|
    and B a multiple of 64 with M K < 2^(B-1)."""
    V0 = min((v for v, _, _ in entries.values() if v != _INF), default=0)
    M = max((abs(x) for _, _, xs in entries.values() for x in xs),
            default=0)
    B = 64 * ((M * K).bit_length() // 64 + 1)
    return D, V0, B, M, {i: (v, p, _pack(xs, v - V0, B) if xs else 0)
                         for i, (v, p, xs) in entries.items()}


def _repack(vec, K):
    """The packed vector with its digits unpacked, the content
    gcd(D, digits) divided out and packed again (``_pack_vector``)."""
    D, V0, B, _, coeffs = vec
    entries = {i: (v, p, _unpack(X >> B * (v - V0), B, p - v))
               for i, (v, p, X) in coeffs.items()}
    g = math.gcd(D, *(x for _, _, xs in entries.values() for x in xs))
    if g > 1:
        D //= g
        entries = {i: (v, p, [x // g for x in xs])
                   for i, (v, p, xs) in entries.items()}
    return _pack_vector(D, entries, K)


def _series_step(vec, rows, entry, zeros):
    """The packed vector times the rows of one letter (``_fold_series``)."""
    D, V0, B, M, coeffs = vec
    L, m, C, _, _ = entry
    acc = {}
    get = acc.get
    for i, (av, ap, X) in coeffs.items():
        for j, xv, xp, P in rows[i]:
            p = ap + xv
            if xp + av < p:
                p = xp + av
            e = get(j)
            if e is None:
                acc[j] = [X * P, p]
            else:
                e[0] += X * P
                if p < e[1]:
                    e[1] = p
    for i in zeros:             # a zero scalar times x: x's window + x.val
        for j, xv, xp, _ in rows[i]:
            e = acc[j]
            if xp + xv < e[1]:
                e[1] = xp + xv
    V0 += m
    out = {}
    for j, (S, p) in acc.items():
        s, R = B * (p - V0), 0
        if s > 0:               # the balanced residue mod 2^s
            half = 1 << s - 1
            R = ((S + half) & (2 * half - 1)) - half
        out[j] = (V0 + ((R & -R).bit_length() - 1) // B, p, R) if R else \
            (p, p, 0)
    return D * L, V0, B, M * C, out


def _fold_series(algebra, left, rights, trie):
    """The Laurent branch of :func:`fold_products` on its trie, whose
    leaves hold (k, coeff of right factor k).

    Every trie vector is (D, V0, B, M, {index: (val, prec, X)}): the
    coefficient at index is X(2^B) / D on [val, prec), X packing its
    integer numerators as B-bit digits from h^V0 on (Kronecker
    substitution), M a bound on every |digit|.  A row step is one
    multiply-add X P per (index, row entry) pair, on the window
    min(ap + xv, xp + av) of the two series, and one balanced residue per
    output index cuts the sum to its window; the lowest set bit gives its
    valuation.  The step multiplies D by L_l, moves V0 by m_l and M by C_l
    (``_row_table``): every digit of the sum at j is at most M times
    the column sum at j.  A node repacks its vector (``_repack``) only
    when M K reaches 2^(B-1), K the largest C_l of its letters and T_k of
    its leaves, T_k the sum of the |numerators| of right factor k over
    its common denominator d_k.  So every digit of a row step or of a
    leaf group lies in (-2^(B-1), 2^(B-1)).

    A leaf packs its coefficient over d_k at the node's B from the least
    valuation of factor k on and adds X C per index to the group
    (D d_k, offset, B) of factor k.  Each group is unpacked before its
    digits are scaled to the factor's common denominator, and each output
    coefficient is normalised once.  An int or Fraction of ``left`` has
    its h^0 term on an unbounded window, so it meets a series on the
    series' window, and two of them multiply as rationals.  A zero one
    bounds the window as the zero series on its factor's window does, the
    windows of TruncLaurent arithmetic."""
    table = _row_table(algebra)
    vmin, T, dens = [], [], []
    for r in rights:
        cs = [_digits(c) for c in r.values()]
        vmin.append(min([v for v, _, _, _ in cs if v != _INF] + [0]))
        dk = math.lcm(*(d for _, _, d, _ in cs))
        dens.append(dk)
        T.append(sum(abs(x) * (dk // d) for _, _, d, xs in cs for x in xs))

    def bound(node):
        """The largest C_l of the node's letters and T_k of its leaves."""
        return max((table[l][2] if l is not None else
                    max(T[k] for k, _ in c) for l, c in node.items()),
                   default=0)

    widx = algebra.word_index
    try:
        cs = {widx[w]: _digits(a) for w, a in left.items()}
    except KeyError as exc:     # an element built on a key off the basis
        raise algebra._outside(exc.args[0]) from None
    D = math.lcm(*(d for _, _, d, _ in cs.values()))
    vec = _pack_vector(D, {i: (v, p, [x * (D // d) for x in xs])
                           for i, (v, p, d, xs) in cs.items()}, bound(trie))
    # the scalars of left, the zero ones among them
    scalars = {widx[w]: a for w, a in left.items()
               if a.__class__ is not TruncLaurent}
    root_zeros = [i for i, a in scalars.items() if not a]
    # per right: {(den, offset, B): {index: packed sum}}, {index: window}
    # in the order the indices are reached, {index: rational sum}
    groups = [{} for _ in rights]
    wins = [{} for _ in rights]
    rats = [{} for _ in rights]
    stack = [(trie, vec)]
    while stack:
        node, vec = stack.pop()
        zeros, K = root_zeros if node is trie else (), bound(node)
        if vec[3] * K >> vec[2] - 1:
            vec = _repack(vec, K)
        D, V0, B, _, coeffs = vec
        for l, child in node.items():
            if l is not None:
                entry = table[l]
                stack.append((child, _series_step(
                    vec, _packed_rows(algebra, l, entry, B), entry, zeros)))
                continue
            for k, c in child:
                cv, cp, d, xs = _digits(c)
                acc = groups[k].setdefault((D * dens[k], V0 + vmin[k], B), {})
                get, win = acc.get, wins[k]
                C = _pack(xs, cv - vmin[k], B) * (dens[k] // d) if xs else 0
                if cp != _INF:          # a series
                    for i, (av, ap, X) in coeffs.items():
                        p = ap + cv
                        if cp + av < p:
                            p = cp + av
                        w = win.get(i)
                        if w is None or p < w:
                            win[i] = p
                        acc[i] = get(i, 0) + X * C
                    for i in zeros:
                        if cp + cv < win[i]:
                            win[i] = cp + cv
                    continue
                rat = rats[k]
                for i, (av, ap, X) in coeffs.items():
                    if ap == _INF:      # two scalars
                        a = scalars[i] * c
                        rat[i] = rat[i] + a if i in rat else a
                        win.setdefault(i, _INF)
                        continue
                    p = ap if c else ap + av
                    w = win.get(i)
                    if w is None or p < w:
                        win[i] = p
                    if c:
                        acc[i] = get(i, 0) + X * C
    words, out = algebra.words, []
    for group, win, rat in zip(groups, wins, rats):
        den = math.lcm(*(d for d, _, _ in group),
                       *(x.denominator for x in rat.values()))
        lo = min([off for _, off, _ in group] + [0])
        nums = {}
        for (d, off, B), acc in group.items():
            f = den // d
            for j, S in acc.items():
                n = win[j] - off
                if n > 0:
                    xs = nums.get(j)
                    if xs is None:
                        xs = nums[j] = [0] * (win[j] - lo)
                    for t, x in enumerate(_unpack(S, B, n), off - lo):
                        xs[t] += x * f
        got = {}
        for j, p in win.items():
            x = rat.get(j)
            if p == _INF:
                got[words[j]] = x
                continue
            xs = nums.get(j)
            if x and p > 0:     # h^0 of the rational sum, as const(x, p)
                if xs is None:
                    xs = [0] * (p - lo)
                xs[-lo] += x.numerator * (den // x.denominator)
            got[words[j]] = TruncLaurent._make(
                *_window(lo, p, den, xs) if xs else (p, p, 1, ()))
        out.append(got)
    return out


def fold_products(algebra, left, rights):
    """The products left * right for every right in ``rights``, as a list
    of {key: coeff} dicts in the order of ``rights``.

    ``algebra`` has a basis list ``words`` with its ``word_index``, and
    rows ``algebra._rows[l][i]``, all filled at build: the right action of
    letter ``l`` on basis index ``i`` as (den, ((j, numerator), ...)).
    ``left`` is keyed by basis elements, each right by words in the
    letters; a letter without rows raises DomainMismatch.  The words of
    all right factors are merged into one trie whose leaves hold
    (k, coeff) for right factor k, so the row step of each prefix is
    applied once to the vector of ``left``.  ``algebra.rational`` picks
    the arithmetic.  Integer rows fold int and Fraction coefficients: every
    vector is (den, {index: numerator}), the fold divides out the content
    at every step and builds one Fraction per output coefficient, each
    right factor over its own common denominator.  Series rows, always
    over 1, fold TruncLaurent, Fraction and int coefficients as packed
    integers, each series one integer (``_fold_series``).  Any other
    coefficient raises DomainMismatch.  Each product is the one computed
    alone.
    """
    rows, rational = algebra._rows, algebra.rational
    scalars = {Fraction, int} if rational else {TruncLaurent, Fraction, int}
    if not {c.__class__ for t in (left, *rights) for c in t.values()} <= \
            scalars:
        raise DomainMismatch("a coefficient outside the scalars of %s_%d"
                             % (type(algebra).__name__, algebra.n))
    if rational:
        den1, left = _over_common_denominator(left)
        rights = [_over_common_denominator(r) for r in rights]
    trie = {}
    for k, right in enumerate(rights):
        for w, c in (right[1] if rational else right).items():
            node = trie
            for l in w:
                child = node.get(l)
                if child is None:   # a new node: check its letter once
                    if l not in rows:
                        raise DomainMismatch(
                            "letter %r outside the generators of %s_%d"
                            % (l, type(algebra).__name__, algebra.n))
                    child = node[l] = {}
                node = child
            node.setdefault(None, []).append((k, c))
    if not rational:
        return _fold_series(algebra, left, rights, trie)
    # per right: {leaf den: {index: numerator}}
    groups = [{} for _ in rights]
    widx = algebra.word_index
    try:
        stack = [(trie, (den1, {widx[w]: a for w, a in left.items()}))]
    except KeyError as exc:     # an element built on a key off the basis
        raise algebra._outside(exc.args[0]) from None
    while stack:
        node, (den, nums) = stack.pop()
        for l, child in node.items():
            if l is not None:
                row_of = rows[l]
                got = [(a, row_of[i]) for i, a in nums.items()]
                stack.append((child, _sum_rows(den, got)))
                continue
            for k, c2 in child:
                acc = groups[k].setdefault(den, {})
                get = acc.get
                for j, a in nums.items():
                    prev = get(j)
                    acc[j] = a * c2 if prev is None else prev + a * c2
    words, out = algebra.words, []
    for (den2, _), group in zip(rights, groups):
        common = math.lcm(*group)
        acc = {}
        for den, part in group.items():
            s = common // den
            for j, a in part.items():
                acc[j] = acc.get(j, 0) + a * s
        den = common * den2
        out.append({words[j]: Fraction(a, den) for j, a in acc.items() if a})
    return out


class AlgebraElement(SparseElement):
    """Sparse linear combination of canonical words over one scalar domain.

    ``algebra`` is the :class:`AlgebraContext`.  The coefficients are
    those of its parameters: Fractions (or ints) in a rational context;
    truncated Laurent series, mixed with Fractions and ints, in a Laurent
    one.  Products run on :func:`fold_products` over the context's one
    row table, which raises DomainMismatch for any other coefficient.
    """

    __slots__ = ()

    _key_order = staticmethod(lambda w: (len(w), w))
    _key_name = staticmethod(word_name)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.product(self, other)


# named here, as the element class follows the context in this module
AlgebraContext.element_type = AlgebraElement


def build_context(n, params=None, q=None, nu=None, cache_dir=None):
    """Build an algebra context for n strands.

    Either pass a ParamSet/LaurentParams, or q and nu as rationals (which
    are then certified for n).
    """
    if params is None:
        params = make_params(q, nu, n)
    return AlgebraContext(n, params, cache_dir=cache_dir)

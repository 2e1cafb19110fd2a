"""Exact arithmetic in BMW_n(q, nu) on a canonical-word basis.

Letters are encoded as small integers: T_i -> 2i, K_i -> 2i+1 (kappa_i),
1 <= i <= n-1; a word is a tuple of letters.  Inverse generators are
eliminated on input via T_i^-1 = T_i - delta + delta K_i.

Multiplication rewrites words onto a canonical spanning set using an
oriented rule system derived from the defining relations (each rule is an
exact consequence; the derivation is named next to the rule).  The rule
system is complete for n <= 4; for larger n the construction closes the
table by converting associativity defects -- which are exact linear
dependencies over the discovered spanning set -- into additional
word-elimination rules until the dimension reaches (2n-1)!!.  A failure to
close raises DIMENSION_MISMATCH.

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

from .combinatorics import STRAND_CAP
from .errors import (CapExceeded, DimensionMismatch, DomainMismatch,
                     NotGeneric, RewriteLimit)
from .scalars import (ParamSet, TruncLaurent, format_rational, make_params,
                      parse_rational)

T_KIND, K_KIND = 0, 1

CACHE_FORMAT_VERSION = 2
STEP_CAP = 10 ** 6   # rewrite steps allowed for one word
DEFAULT_TRUNCATION = 4


def default_truncation(n: int) -> int:
    """The series terms kept by default for a Laurent context on n strands,
    and from n = 5 on the fewest it accepts: with 4 the n = 5 search stops
    at 930 of the 945 words, and a replay would reach 945 words of
    unchecked precision, so such a context raises DIMENSION_MISMATCH."""
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


# per n, the rules the closure search writes at (6/5, 7/3); see _read_plan
CLOSURE_PLANS = {5: """5386.85 5387.85 24286.85 24287.85 24864.83 24874.83
25286.85 25287.85 26864.63 26865.63 26964.63 26965.63 34864.83 34874.823
36864.63 36865.623 36964.623 36965.623 52758.72 52759.72 52865.82 52874.82
52875.82 65386.85 65387.85 75386.85 75396.85 246864.63 246964.63 252874.82
346864.63 346964.623 426487.88 426586.84 426587.82 426864.63 426865.63
426964.63 426965.63 436487.88 436586.84 436864.63 436865.623 436964.623
436965.623 526487.84 526586.84 526587.82 526864.63 526865.623 526964.623
526965.623 536864.63 536865.6236 536964.623 242649.72 426487.84 436487.84
642865.668 642965.668 643864.62 643964.62 652865.82 652874.82 652875.82
742864.22 742865.668 742875.82 742964.62 742964.82 742965.668 742974.62
742975.82 743964.62 743964.82 743965.22 743965.62 752964.22 2426487.88
2426864.63 2426964.63 2427487.44 2427487.62 2526487.88 2526864.63 2526864.72
2526964.623 2642865.66 2642865.8467 2642874.62 2642965.82 2652865.22
2652865.8246 2652874.824 265297.85 742865.62 2742865.66 2742865.84 4264287.845
4264874.82 4265287.845 4642865.668 4642965.668 4643864.62 4643964.62
4742865.6268 4742964.62 4742965.6268 24269652.22 24742964.62 27428652.22
27428742.628 27429652.82 42642865.66 42642865.84 42642874.62 42642874.82
42642965.82 42652865.22 42652865.824 4265287.85 4265297.85 4742865.62
4742965.62 42742865.66 42742865.84 242742965.82 427428652.22 2427429652.22
2427429742.22"""}


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


class AlgebraContext:
    """Immutable context: canonical words and memoized rewriting for one n.

    Use :func:`build_context`; the constructor itself performs the closure.
    """

    def __init__(self, n, params, cache_dir=None, verify=True):
        if n < 1 or n > STRAND_CAP:
            raise CapExceeded("n = %d outside supported range 1..%d"
                              % (n, STRAND_CAP))
        self.n = n
        self.params = params
        if isinstance(params, ParamSet):
            if params.certified_n < n:
                raise NotGeneric("certified_n",
                                 "params certified only for n=%d"
                                 % params.certified_n)
            self._one = Fraction(1)
            self.rational = True
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
        self.letters = [letter(k, i)
                        for i in range(1, n) for k in (T_KIND, K_KIND)]
        self._memo = {}
        self._dyn = {}
        self._jm = {}
        self._cache_path = self._cache_file(cache_dir)
        # what the build did; plain values, never printed
        self.stats = {"closure_rounds": 0, "triples_checked": 0,
                      "triples_skipped": 0, "rules_added": 0,
                      "rules_reset": 0, "cache": self._load_cache()}
        self.words = self._close()
        self.word_index = {w: k for k, w in enumerate(self.words)}
        # right action of each letter on each basis index, built on first
        # use by _row as (den, ((j, numerator), ...))
        self._rows = {l: [None] * len(self.words) for l in self.letters}
        self._built = False
        if verify:
            report = self.verify_relations()
            bad = [r for r in report if not r["ok"]]
            if bad:
                raise DimensionMismatch(
                    "relation suite failed after build: %s" % bad[0])
        if self.stats["cache"] != "hit":
            # a build from the cache reproduces the file it was read from
            self._save_cache()
        # from now on a row replaces the memo entry it was read from, so a
        # context keeps one copy of each product w * l
        self._built = True
        for l, row_of in self._rows.items():
            for i, row in enumerate(row_of):
                if row is not None:
                    self._memo.pop(self.words[i] + (l,), None)

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

    def _s_rule(self, i, kb, kc):
        """K_i B_{i-1} C_{i+1} K_i; None = canonical.

        The reducible cases follow from the cap absorptions
        K K T K = K T K K (exact) and K K K K = K T T K + d K T K K
        - d nu^-1 K, both proved from the tangle relations.
        """
        one, d, nui = self._one, self.delta, self.nu_inv
        Ki = letter(K_KIND, i)
        Tl = letter(T_KIND, i - 1)
        Th, Kh = letter(T_KIND, i + 1), letter(K_KIND, i + 1)
        if kb == T_KIND:
            return None
        if kc == T_KIND:
            return [((Ki, Tl, Kh, Ki), one)]
        return [((Ki, Tl, Th, Ki), one), ((Ki, Tl, Kh, Ki), d),
                ((Ki,), -(d * nui))]

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

    def _fuse_pair(self, j, z, c):
        """T_j z T_j with z of lower level carrying at most one (j-1)-letter."""
        one, d, nu = self._one, self.delta, self.nu
        Tj, Kj = letter(T_KIND, j), letter(K_KIND, j)
        bpos = None
        for t, l in enumerate(z):
            if letter_index(l) == j - 1:
                bpos = t
                break
        if bpos is None:
            return [(z, c), (z + (Tj,), c * d), (z + (Kj,), -(c * d * nu))]
        z1, B, z2 = z[:bpos], z[bpos], z[bpos + 1:]
        mid = self._f_rule(j, T_KIND, letter_kind(B), T_KIND)
        return [(z1 + frag + z2, c * cf) for (frag, cf) in mid]

    def _fam_f2(self, i, ka, kx, kd):
        """A_i T_{i+1} X_{i+2} T_{i+1} D_i with (A,D) != (T,T)."""
        one, d = self._one, self.delta
        Ai, Di = letter(ka, i), letter(kd, i)
        Th, Kh = letter(T_KIND, i + 1), letter(K_KIND, i + 1)
        Kj = letter(K_KIND, i + 2)
        out = []
        if kx == T_KIND:
            for (z, c) in self._inv_rule(i, ka, T_KIND, kd):
                out.extend(self._fuse_pair(i + 2, z, c))
            return out
        for (z, c) in self._inv_rule(i, ka, K_KIND, kd):
            out.extend(self._fuse_pair(i + 2, z, c))
        parts = [((Th,), one), ((), -d), ((Kh,), d)]
        for (x, cx) in parts:
            for (y, cy) in parts:
                if x == (Th,) and y == (Th,):
                    continue
                out.append(((Ai,) + x + (Kj,) + y + (Di,), -(cx * cy)))
        return out

    # ------------------------------------------------------------------
    # redex search
    # ------------------------------------------------------------------

    def _find_redex(self, w):
        one = self._one
        L = len(w)
        for p in range(L - 1):
            la, lb = w[p], w[p + 1]
            a, ka = letter_index(la), letter_kind(la)
            b, kb = letter_index(lb), letter_kind(lb)
            if a == b:
                return (p, p + 2, self._pair_rule(ka, a, kb))
            if a >= b + 2:
                # distant pair, sort ascending
                return (p, p + 2, [((lb, la), one)])
            if a == b + 1:
                # F-family: A_j B_{j-1} W C_j with W of index <= j-2
                j = a
                qpos = p + 2
                while qpos < L and letter_index(w[qpos]) <= j - 2:
                    qpos += 1
                if qpos < L and letter_index(w[qpos]) == j:
                    rep = self._f_rule(j, ka, kb, letter_kind(w[qpos]))
                    W = w[p + 2:qpos]
                    return (p, qpos + 1,
                            [(frag + W, c) for (frag, c) in rep])
            if b >= a + 1:
                # INV-family: A_i W B_{i+1} C_i with W of index >= i+2
                i = a
                qpos = p + 1
                while qpos < L and letter_index(w[qpos]) >= i + 2:
                    qpos += 1
                if (qpos + 1 < L and letter_index(w[qpos]) == i + 1
                        and letter_index(w[qpos + 1]) == i):
                    rep = self._inv_rule(i, ka, letter_kind(w[qpos]),
                                         letter_kind(w[qpos + 1]))
                    if rep is not None:
                        W = w[p + 1:qpos]
                        return (p, qpos + 2,
                                [(W + frag, c) for (frag, c) in rep])
            # G1: T_i K_{i+1} T_i [W] X_{i+2} K_{i+1}
            if (ka == T_KIND and kb == K_KIND and b == a + 1 and p + 2 < L
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
                    rep = self._g1_rule(i, letter_kind(w[qpos]))
                    return (p, qpos + 2,
                            [(Whi + frag + Wlo, c) for (frag, c) in rep])
            # G2: K_{i+1} T_i [W] X_{i+2} Y_{i+1} T_i
            if ka == K_KIND and kb == T_KIND and b == a - 1:
                i = a - 1
                qpos = p + 2
                while qpos < L and letter_index(w[qpos]) >= i + 3:
                    qpos += 1
                if (qpos + 2 < L and letter_index(w[qpos]) == i + 2
                        and letter_index(w[qpos + 1]) == i + 1
                        and w[qpos + 2] == letter(T_KIND, i)):
                    rep = self._g2_rule(i, letter_kind(w[qpos]),
                                        letter_kind(w[qpos + 1]))
                    W = w[p + 2:qpos]
                    return (p, qpos + 3,
                            [(W + frag, c) for (frag, c) in rep])
            # S-family: K_i B_{i-1} [W] C_{i+1} K_i
            if ka == K_KIND and b == a - 1:
                i = a
                qpos = p + 2
                while qpos < L and (letter_index(w[qpos]) <= i - 2
                                    or letter_index(w[qpos]) >= i + 2):
                    qpos += 1
                if (qpos + 1 < L and letter_index(w[qpos]) == i + 1
                        and w[qpos + 1] == letter(K_KIND, i)):
                    rep = self._s_rule(i, kb, letter_kind(w[qpos]))
                    if rep is not None:
                        W = w[p + 2:qpos]
                        Whi = tuple(l for l in W
                                    if letter_index(l) >= i + 2)
                        Wlo = tuple(l for l in W
                                    if letter_index(l) <= i - 2)
                        return (p, qpos + 2,
                                [(Whi + frag + Wlo, c) for (frag, c) in rep])
            # FAM-F1: T_i T_{i+1} T_i [W] X_{i+2} K_{i+1}
            if (ka == T_KIND and kb == T_KIND and b == a + 1 and p + 2 < L
                    and w[p + 2] == letter(T_KIND, a)):
                i = a
                qpos = p + 3
                while qpos < L and (letter_index(w[qpos]) >= i + 3
                                    or letter_index(w[qpos]) <= i - 1):
                    qpos += 1
                if (qpos + 1 < L and letter_index(w[qpos]) == i + 2
                        and w[qpos + 1] == letter(K_KIND, i + 1)):
                    tail = self._inv_rule(i + 1, T_KIND,
                                          letter_kind(w[qpos]), K_KIND)
                    W = w[p + 3:qpos]
                    Whi = tuple(l for l in W if letter_index(l) >= i + 3)
                    Wlo = tuple(l for l in W if letter_index(l) <= i - 1)
                    head = (letter(T_KIND, i + 1), letter(T_KIND, i))
                    return (p, qpos + 2,
                            [(Whi + head + frag + Wlo, c)
                             for (frag, c) in tail])
            # FAM-F2: A_i T_{i+1} [W] X_{i+2} T_{i+1} D_i, (A,D) != (T,T)
            if b == a + 1 and kb == T_KIND:
                i = a
                qpos = p + 2
                while qpos < L and letter_index(w[qpos]) >= i + 3:
                    qpos += 1
                if (qpos + 2 < L and letter_index(w[qpos]) == i + 2
                        and w[qpos + 1] == letter(T_KIND, i + 1)
                        and letter_index(w[qpos + 2]) == i):
                    kd = letter_kind(w[qpos + 2])
                    if not (ka == T_KIND and kd == T_KIND):
                        rep = self._fam_f2(i, ka, letter_kind(w[qpos]), kd)
                        W = w[p + 2:qpos]
                        return (p, qpos + 3,
                                [(W + frag, c) for (frag, c) in rep])
        return self._slide_redex(w)

    def _slide_redex(self, w):
        """Suffix slide P C -> C P' (P index-shifted) for a chain
        C = T_m..T_j ending the word and a pinned prefix with a kappa among
        its shifted letters.  A backslide (T_m..T_j) X_g, j < g <= m, needs
        no rule: T_g T_{g-1} [T_{g-2}..T_j] X_g is an F-family redex."""
        L = len(w)
        if L == 0 or letter_kind(w[-1]) != T_KIND:
            return None
        s = L - 1
        while s > 0 and w[s - 1] == letter(T_KIND, letter_index(w[s]) + 1):
            s -= 1
        if L - s < 2 or s == 0:
            return None
        j, m = letter_index(w[-1]), letter_index(w[s])
        shifted = []
        has_k = False
        for l in w[:s]:
            ii, kk = letter_index(l), letter_kind(l)
            if j <= ii <= m - 1:
                shifted.append(letter(kk, ii + 1))
                if kk == K_KIND:
                    has_k = True
            elif ii <= j - 2:
                shifted.append(l)
            else:
                return None
        if not has_k:
            return None
        return (0, L, [(w[s:] + tuple(shifted), self._one)])

    # ------------------------------------------------------------------
    # reduction, closure, completion
    # ------------------------------------------------------------------

    def reduce_word(self, word):
        """Rewrite a word into {canonical word: coefficient}."""
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        pending = {word: self._one}
        done = {}
        steps = 0
        while pending:
            w, c = pending.popitem()
            red = self._find_redex(w)
            if red is None:
                rep = self._dyn.get(w)
                if rep is None:
                    prev = done.get(w)
                    done[w] = c if prev is None else prev + c
                    continue
                pre = post = ()         # an elimination rule replaces w
                rep = rep.items()
            else:
                lo, hi, rep = red
                pre, post = w[:lo], w[hi:]
            steps += 1
            if steps > STEP_CAP:
                raise RewriteLimit("step cap %d exceeded reducing %s"
                                   % (STEP_CAP, word_name(word)))
            for frag, coeff in rep:
                nw = pre + frag + post
                nc = c * coeff
                if nw in pending:
                    nc = pending.pop(nw) + nc
                if nc != 0:
                    pending[nw] = nc
        done = {w: c for w, c in done.items() if c != 0}
        self._memo[word] = done
        return done

    def _renormalize(self, vec):
        """Push a vector through the dynamic elimination rules."""
        if not self._dyn:
            return dict(vec)
        out = {}
        stack = list(vec.items())
        while stack:
            w, c = stack.pop()
            rep = self._dyn.get(w)
            if rep is None:
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
            else:
                for u, cu in rep.items():
                    stack.append((u, c * cu))
        return {w: c for w, c in out.items() if c != 0}

    def _red(self, word):
        return self._renormalize(self.reduce_word(word))

    def _row(self, l, i):
        """words[i] * l as (den, ((j, numerator), ...)) over basis indices:
        integer numerators over their least common denominator in a
        rational context, the series themselves over 1 in a Laurent one.
        After the build it replaces the memo entry it was read from."""
        word = self.words[i] + (l,)
        vec = self._red(word)
        den, nums = _over_common_denominator(vec) if self.rational \
            else (1, vec)
        if self._built:
            self._memo.pop(word, None)
        widx = self.word_index
        row = self._rows[l][i] = (den, tuple((widx[u], x)
                                             for u, x in nums.items()))
        return row

    def _closure_once(self):
        """The words reached from () by right letter products, in basis
        order."""
        basis = {(): None}
        frontier = [()]
        while frontier:
            nxt = []
            for w in frontier:
                for l in self.letters:
                    for u in self._red(w + (l,)):
                        if u not in basis:
                            basis[u] = None
                            nxt.append(u)
            frontier = nxt
        return sorted(basis, key=lambda w: (len(w), w))

    def _close(self):
        """Add elimination rules until the basis has (2n-1)!! words.

        Each round turns the associativity defects (w.g).h - w.(g.h) over
        basis words w and letters g, h into rules.  When the pair (g, h)
        is canonical, w.(g.h) is computed by the very products that give
        (w.g).h, so the defect is zero and the triple is skipped.  That
        holds only while vg = w.g is fresh: once a rule is set, vg no
        longer reduces through every rule, the two sides can differ, and
        the defect is itself a rule that must not be lost.

        The search records each rule it writes in ``_plan`` as (w, g, h,
        starts_group), true for the first rule after vg = w.g was reduced:
        later rules of that (w, g) use the stale vg.  A cold build replays
        CLOSURE_PLANS[n] through the same ``defect``, then closes once.  A
        vanished defect, a lead that has a rule or a wrong word count hands
        over to the search, which goes on from the (exact) rules so far.
        ``stats["closure"]`` names where the rules came from: "cache",
        "replay", "none" when none was needed, or "search" once a round
        ran.  To regenerate a plan, build with CLOSURE_PLANS emptied.
        """
        stats = self.stats
        known = len(self._dyn)
        want = double_factorial(2 * self.n - 1)

        def times(vec, l):
            out = {}
            for u, a in vec.items():
                for v, x in self._red(u + (l,)).items():
                    prev = out.get(v)
                    out[v] = a * x if prev is None else prev + a * x
            return {v: c for v, c in out.items() if c}

        def defect(w, vg, g, h, gh):
            """The rule lead -> rep of (w.g).h - w.(g.h), or None if zero."""
            D = times(vg, h)
            for v, cv in gh.items():
                t = {w: cv}
                for l in v:
                    t = times(t, l)
                for u, b in t.items():
                    prev = D.get(u)
                    D[u] = -b if prev is None else prev - b
            D = {u: c for u, c in D.items() if c}
            if D:
                lead = max(D, key=lambda x: (len(x), x))
                cl = D.pop(lead)
                return lead, {u: -c / cl for u, c in D.items()}

        def write(lead, rep, entry):
            plan.append(entry)
            self._dyn[lead] = rep

        plan = self._plan = []      # (w, g, h, starts_group) per rule set
        text = CLOSURE_PLANS.get(self.n)
        stats["closure"] = "cache" if known else "replay" if text else "none"
        if stats["closure"] == "replay":
            for w, g, h, starts in _read_plan(text):
                if starts:
                    vg = self._red(w + (g,))
                rule = defect(w, vg, g, h, self._red((g, h)))
                if rule is None or rule[0] in self._dyn:
                    break
                write(*rule, (w, g, h, starts))
        basis = self._closure_once()
        rounds = 0
        while len(basis) != want:
            stats["closure"] = "search"
            rounds += 1
            stats["closure_rounds"] = rounds
            if rounds > 60:
                raise DimensionMismatch(
                    "closure stuck at %d words (expected %d) for n=%d"
                    % (len(basis), want, self.n))
            if len(basis) < want:
                raise DimensionMismatch(
                    "closure undershot: %d words < %d for n=%d"
                    % (len(basis), want, self.n))
            found = 0
            for w in basis:
                for g in self.letters:
                    vg = self._red(w + (g,))
                    fresh, starts = found, True
                    for h in self.letters:
                        gh = self._red((g, h))
                        if found == fresh and gh == {(g, h): 1}:
                            stats["triples_skipped"] += 1
                            continue
                        stats["triples_checked"] += 1
                        rule = defect(w, vg, g, h, gh)
                        if rule is None:
                            continue
                        found += 1
                        if self._dyn.get(rule[0]) == rule[1]:
                            stats["rules_reset"] += 1
                            continue
                        write(*rule, (w, g, h, starts))
                        starts = False
                if found >= 80:
                    break
            if found == 0:
                raise DimensionMismatch(
                    "no associativity defects but %d words != %d for n=%d"
                    % (len(basis), want, self.n))
            basis = self._closure_once()
        stats["rules_added"] = len(self._dyn) - known
        return basis

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def _cache_file(self, cache_dir):
        if cache_dir is None:
            cache_dir = os.environ.get("BMWF_CACHE")
        if not cache_dir or not isinstance(self.params, ParamSet):
            return None
        plan = CLOSURE_PLANS.get(self.n)      # another plan, other rules
        key = "bmw-n%d-q%s-nu%s-v%d%s.json" % (
            self.n, str(self.params.q).replace("/", "_"),
            str(self.params.nu).replace("/", "_"), CACHE_FORMAT_VERSION,
            "-" + hashlib.sha256(plan.encode()).hexdigest() if plan else "")
        return os.path.join(cache_dir, key)

    def _load_cache(self):
        """Fill ``_dyn`` and ``_memo`` from the cache file and return the
        cache state: "off" without a cache file, "hit", "miss" for a
        missing or other-version file, "corrupt" for an unreadable or
        malformed one.  The build rewrites the file unless it was a hit."""
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

        def entries(key):
            return {word(ent["word"]): {word(u): parse_rational(c)
                                        for u, c in ent["expansion"]}
                    for ent in data.get(key, [])}

        try:
            with open(path) as f:
                data = json.load(f)
            if data.get("version") != CACHE_FORMAT_VERSION:
                return "miss"
            dyn, memo = entries("dyn"), entries("table")
        except (OSError, ValueError, AttributeError, KeyError, TypeError):
            return "corrupt"
        self._dyn.update(dyn)
        self._memo.update(memo)
        return "hit"

    def _save_cache(self):
        path = self._cache_path
        if path is None:
            return
        data = {
            "version": CACHE_FORMAT_VERSION,
            "n": self.n,
            "q": format_rational(self.params.q),
            "nu": format_rational(self.params.nu),
            "dyn": [{"word": list(w),
                     "expansion": [[list(u), format_rational(c)]
                                   for u, c in sorted(v.items())]}
                    for w, v in sorted(self._dyn.items())],
            # reduced, so the file depends only on the algebra and its rules
            "table": [{"word": list(w),
                       "expansion": [[list(u), format_rational(c)]
                                     for u, c in sorted(self._red(w).items())]}
                      for w in sorted(v + (l,) for v in self.words
                                      for l in self.letters)],
        }
        tmp = None
        try:    # a cache that cannot be written is skipped
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".bmwf-tmp-")
            with os.fdopen(fd, "w") as f:
                json.dump(data, f)
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

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {(): self._one})

    def from_terms(self, terms):
        """The element sum c * w over {word: c}, reduced onto the basis.

        A letter outside this algebra's generators raises DomainMismatch.
        """
        widx = self.word_index
        letters = set(self.letters)
        out = {}
        for w, c in terms.items():
            w = tuple(w)
            if w in widx:
                red = ((w, c),)
            else:
                bad = [l for l in w if l not in letters]
                if bad:
                    raise DomainMismatch(
                        "letter %r outside the generators of BMW_%d"
                        % (bad[0], self.n))
                red = [(u, c * cu) for u, cu in self._red(w).items()]
            for u, cu in red:
                prev = out.get(u)
                out[u] = cu if prev is None else prev + cu
        return AlgebraElement(self, out)

    def scalar(self, x):
        return AlgebraElement(self, {(): self._one * x})

    def gen_T(self, i):
        self._check_index(i)
        return AlgebraElement(self, {(letter(T_KIND, i),): self._one})

    def gen_K(self, i):
        self._check_index(i)
        return AlgebraElement(self, {(letter(K_KIND, i),): self._one})

    def gen_Tinv(self, i):
        """T_i^-1 = T_i - delta + delta K_i."""
        self._check_index(i)
        return AlgebraElement(self, {
            (letter(T_KIND, i),): self._one,
            (): -self.delta * self._one,
            (letter(K_KIND, i),): self.delta * self._one,
        })

    def _check_index(self, i):
        if not 1 <= i <= self.n - 1:
            raise IndexError("generator index %d outside 1..%d"
                             % (i, self.n - 1))

    def jm_element(self, k):
        """Jucys-Murphy element y_k = T_{k-1}...T_2 T_1^2 T_2...T_{k-1}."""
        if not 1 <= k <= self.n:
            raise IndexError("Jucys-Murphy index %d outside 1..%d"
                             % (k, self.n))
        hit = self._jm.get(k)
        if hit is not None:
            return hit
        if k == 1:
            y = self.one()
        else:
            y = self.gen_T(1) * self.gen_T(1)
            for i in range(2, k):
                y = self.gen_T(i) * y * self.gen_T(i)
        self._jm[k] = y
        return y

    def rho(self, elem):
        """The anti-automorphism fixing every generator (word reversal)."""
        out = {}
        for w, c in elem.terms.items():
            for u, cu in self._red(tuple(reversed(w))).items():
                prev = out.get(u)
                nc = c * cu if prev is None else prev + c * cu
                out[u] = nc
        return AlgebraElement(self, out)

    # ------------------------------------------------------------------
    # relation suite
    # ------------------------------------------------------------------

    def verify_relations(self):
        """Check the defining and derived relations instance by instance.

        Returns a list of {"relation", "instance", "ok"} dicts; the
        rho-images of the one-sided relations are included.
        """
        report = []

        def chk(name, inst, lhs, rhs):
            ok = (lhs - rhs).is_zero()
            report.append({"relation": name, "instance": inst, "ok": ok})

        n = self.n
        one = self.one()
        dlt = self.delta

        def T(i):
            return self.gen_T(i)

        def Ti(i):
            return self.gen_Tinv(i)

        def K(i):
            return self.gen_K(i)

        for i in range(1, n - 1):
            chk("braid", "i=%d" % i,
                T(i) * T(i + 1) * T(i), T(i + 1) * T(i) * T(i + 1))
        for i in range(1, n):
            for jj in range(i + 2, n):
                chk("distant", "i=%d j=%d" % (i, jj),
                    T(i) * T(jj), T(jj) * T(i))
        for i in range(1, n):
            chk("inverse", "i=%d" % i, T(i) * Ti(i), one)
            chk("inverse", "i=%d (left)" % i, Ti(i) * T(i), one)
            chk("kappa-def", "i=%d" % i,
                K(i), one - (T(i) - Ti(i)).scale(self._one / dlt))
            chk("KT=nuK", "i=%d" % i, K(i) * T(i), K(i).scale(self.nu))
            chk("TK=nuK", "i=%d" % i, T(i) * K(i), K(i).scale(self.nu))
            chk("K^2=muK", "i=%d" % i, K(i) * K(i), K(i).scale(self.mu))
        for i in range(1, n):
            for eps in (1, -1):
                j = i + eps
                if not 1 <= j <= n - 1:
                    continue
                chk("K T^e K = nu^-e K", "i=%d e=%+d" % (i, eps),
                    K(i) * T(j) * K(i), K(i).scale(self.nu_inv))
                chk("K T^-e K", "i=%d e=%+d" % (i, eps),
                    K(i) * Ti(j) * K(i), K(i).scale(self.nu))
                chk("K T T = T T K (2.7)", "i=%d e=%+d" % (i, eps),
                    K(i) * T(j) * T(i), T(j) * T(i) * K(j))
                chk("KKK=K", "i=%d e=%+d" % (i, eps),
                    K(i) * K(j) * K(i), K(i))
                dmt_i = T(i) - one.scale(dlt)
                dmt_j = T(j) - one.scale(dlt)
                chk("square exchange (2.9)", "i=%d e=%+d" % (i, eps),
                    dmt_i * K(j) * dmt_i, dmt_j * K(i) * dmt_j)
                chk("T K T = T^-1 K T^-1 (2.10)", "i=%d e=%+d" % (i, eps),
                    T(j) * K(i) * T(j), Ti(i) * K(j) * Ti(i))
                chk("K T T = K K (2.11)", "i=%d e=%+d" % (i, eps),
                    K(i) * T(j) * T(i), K(i) * K(j))
                chk("K T- T- = K K (2.12)", "i=%d e=%+d" % (i, eps),
                    K(i) * Ti(j) * Ti(i), K(i) * K(j))
                chk("K K (T - d) (2.13)", "i=%d e=%+d" % (i, eps),
                    K(j) * K(i) * dmt_j, K(j) * dmt_i)
                # rho-images
                chk("rho(2.7)", "i=%d e=%+d" % (i, eps),
                    T(i) * T(j) * K(i), K(j) * T(i) * T(j))
                chk("rho(2.11)", "i=%d e=%+d" % (i, eps),
                    T(i) * T(j) * K(i), K(j) * K(i))
                chk("rho(2.12)", "i=%d e=%+d" % (i, eps),
                    Ti(i) * Ti(j) * K(i), K(j) * K(i))
                chk("rho(2.13)", "i=%d e=%+d" % (i, eps),
                    dmt_j * K(i) * K(j), dmt_i * K(j))
        # Jucys-Murphy identities
        ys = [self.jm_element(k) for k in range(1, n + 1)]
        for a in range(n):
            for b in range(a + 1, n):
                chk("JM commute", "y%d y%d" % (a + 1, b + 1),
                    ys[a] * ys[b], ys[b] * ys[a])
        nu2 = self.nu * self.nu
        for j in range(1, n):
            chk("K y y = nu^2 K (2.23)", "j=%d" % j,
                K(j) * ys[j] * ys[j - 1], K(j).scale(nu2))
            chk("y y K = nu^2 K (2.23)", "j=%d" % j,
                ys[j - 1] * ys[j] * K(j), K(j).scale(nu2))
        return report


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

    def map_coefficients(self, f):
        """Apply f to every coefficient (e.g. evaluation of rational
        functions at a point)."""
        return type(self)(self.algebra,
                          {k: f(c) for k, c in self.terms.items()})

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


def _sum_rows(den, got, reduce):
    """The vector sum a * row / den over got = [(a, (d, pairs))], each row
    given by (key, numerator) pairs over its integer denominator d.

    Returns (denominator, {key: numerator}) over den times the rows' common
    denominator.  With ``reduce``, zero terms are dropped and the content
    is divided out (no gcd over denominator 1); without it the sums stay
    as they are, since a zero series still bounds the window of its sums.
    """
    row_den = 1
    for _, (d, _) in got:
        if row_den % d:
            row_den = math.lcm(row_den, d)
    nxt = {}
    get = nxt.get
    for a, (d, row) in got:
        if d != row_den:        # most rows share row_den: skip a scale by 1
            if reduce:
                a *= row_den // d
            else:   # scale the integers: one coefficient product per term
                row = [(j, x * (row_den // d)) for j, x in row]
        for j, x in row:
            prev = get(j)
            nxt[j] = a * x if prev is None else prev + a * x
    den *= row_den
    if not reduce:
        return den, nxt
    g = 1 if den == 1 else math.gcd(den, *nxt.values())
    if g == 1:
        return den, {j: a for j, a in nxt.items() if a}
    return den // g, {j: a // g for j, a in nxt.items() if a}


def fold_products(alg, left, rights, integer_rows=False):
    """The products left * right for every right in ``rights``, as a list
    of {key: coeff} dicts in the order of ``rights``.

    ``alg`` has a basis list ``words`` with its ``word_index``, and rows
    ``alg._rows[l][i]`` (else ``alg._row(l, i)``), the right action of
    letter ``l`` on basis index ``i`` as (den, ((j, numerator), ...)).
    ``left`` is keyed by basis elements, each right by words in the
    letters.  The words of all right factors are merged into one trie
    whose leaves hold (k, coeff) for right factor k, so the row step of
    each prefix is applied once to the vector of ``left``; every vector
    of the fold is (den, {index: coeff}).  With integer rows and only
    rational coefficients in the call, the fold divides out the content at
    every step and builds one Fraction per output coefficient, each right
    factor over its own common denominator.  Any other coefficients keep
    their own arithmetic, with 1/den folded into the right-hand
    coefficient once per leaf.  Each product is the one computed alone.
    """
    rows = alg._rows
    exact = integer_rows and all(type(c) is Fraction or type(c) is int
                                 for t in (left, *rights) for c in t.values())
    den1 = 1
    if exact:
        den1, left = _over_common_denominator(left)
        rights = [_over_common_denominator(r) for r in rights]
    else:
        rights = [(1, r) for r in rights]
    trie = {}
    for k, (_, right) in enumerate(rights):
        for w, c in right.items():
            node = trie
            for l in w:
                node = node.setdefault(l, {})
            node.setdefault(None, []).append((k, c))
    groups = [{} for _ in rights]   # per right: leaf den -> {index: coeff}
    widx = alg.word_index
    stack = [(trie, (den1, {widx[w]: a for w, a in left.items()}))]
    while stack:
        node, (den, nums) = stack.pop()
        for l, child in node.items():
            if l is not None:
                row_of = rows[l]
                got = []
                for i, a in nums.items():
                    row = row_of[i]
                    if row is None:
                        row = alg._row(l, i)
                    got.append((a, row))
                stack.append((child, _sum_rows(den, got, exact)))
                continue
            for k, c2 in child:
                d = den
                if d != 1 and not exact:
                    c2, d = c2 * Fraction(1, d), 1
                acc = groups[k].setdefault(d, {})
                get = acc.get
                for j, a in nums.items():
                    prev = get(j)
                    acc[j] = a * c2 if prev is None else prev + a * c2
    words = alg.words
    out = []
    for (den2, _), group in zip(rights, groups):
        if not exact:
            out.append({words[j]: c for j, c in group.get(1, {}).items()})
            continue
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

    ``algebra`` is the :class:`AlgebraContext`.  The coefficient domain
    may be richer than the context's parameter domain (series in
    h = u - c_k during the fusion step, or rational functions of a
    RatFunc spectral argument), and it may mix with the rationals it
    contains.  Products run on :func:`fold_products` over the context's
    one row table.
    """

    __slots__ = ()

    _key_order = staticmethod(lambda w: (len(w), w))
    _key_name = staticmethod(word_name)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        ctx = self.algebra
        return AlgebraElement(ctx, fold_products(
            ctx, self.terms, [other.terms], ctx.rational)[0])


def build_context(n, params=None, q=None, nu=None, cache_dir=None):
    """Build an algebra context for n strands.

    Either pass a ParamSet/LaurentParams, or q and nu as rationals (which
    are then certified for n).
    """
    if params is None:
        params = make_params(q, nu, n)
    return AlgebraContext(n, params, cache_dir=cache_dir)

"""Exact scalar arithmetic: rationals, rational functions, truncated
Laurent series, q-numbers and the algebra parameter set.

Two coefficient domains are used throughout the package, one per kind
of algebra:

* ``fractions.Fraction`` (and int) -- the ground field for specialized
  parameters, the coefficients that a rational BMW context and the Hecke
  and Brauer algebras fold;
* :class:`TruncLaurent` -- truncated Laurent series in one variable
  ``h``, the contraction parameter of the Brauer limits: a Laurent
  context folds them, mixed with Fractions and ints.

``TruncLaurent`` is stored fraction-free: integer numerators over one
positive denominator, with their common content divided out
(``_window``).  Its sums and products compute on those fields, by the
window rules of ``__add__`` and ``__mul__``.  The element fold does not
run here: ``bmwcore._fold_series`` folds series packed, each one
integer, by the same window rules, and normalises each output
coefficient once.  A parameter from the caller enters as an int or a
Fraction (``_rational``); a float raises DomainMismatch.
:class:`RatFunc`, gcd-normalised rational functions, is folded by no
algebra; it remains as public API (the baxterized elements take it as a
spectral argument, their products do not) and as a target of the traced
benchmark.

All values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import check_strands
from .errors import (DivisionByZero, DomainMismatch, NegativeValuation,
                     NonInvertible, NotGeneric, PoleAtEvaluation)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (base 10); bad text or p/0 is ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _rational(x) -> Fraction:
    """A parameter as a Fraction: an int or a Fraction.  Anything else, a
    float among them, raises DomainMismatch, as the arithmetic is exact."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise DomainMismatch("%r is not an int or a Fraction" % (x,))


def format_rational(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def q_number(k: int, q: Fraction) -> Fraction:
    """k_q = (q^k - q^-k)/(q - q^-1), evaluated in polynomial form.

    The polynomial form sum_{m} q^(k-1-2m) is valid for every q != 0,
    including q = +-1.
    """
    if k < 0:
        raise ValueError("q-number needs k >= 0")
    if q == 0:
        raise DivisionByZero("q = 0 in q-number")
    return sum((q ** (k - 1 - 2 * m) for m in range(k)), Fraction(0))


def q_factorial(k: int, q: Fraction) -> Fraction:
    """k_q! = 2_q 3_q ... k_q with 0_q! = 1_q! = 1."""
    out = Fraction(1)
    for m in range(2, k + 1):
        out *= q_number(m, q)
    return out


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient tuples, no trailing zeros)
# ---------------------------------------------------------------------------

def _trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pcontent(a):
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
        if g == 1:
            break
    return g


def _pprim(a):
    g = _pcontent(a)
    if g in (0, 1):
        return a
    return tuple(x // g for x in a)


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (integer coefficients)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _trim(a):
        da = len(a) - 1
        la = a[-1]
        a = [x * lb for x in a]
        for j in range(len(b)):
            a[da - db + j] -= la * b[j]
        a = list(_trim(a))
        if not a:
            break
    return tuple(a)


def _pgcd(a, b):
    """Gcd of integer polynomials, primitive with positive leading coeff."""
    a, b = _pprim(a), _pprim(b)
    while b:
        r = _pprim(_pseudo_rem(a, b))
        a, b = b, r
    if not a:
        return ()
    return a if a[-1] > 0 else _pneg(a)


def _pdiv_exact(a, b):
    """Exact division of integer polynomials (b | a assumed)."""
    if not a:
        return ()
    out = [0] * (len(a) - len(b) + 1)
    a = list(a)
    lb = b[-1]
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1]
        if c % lb != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // lb
        out[k] = q
        if q:
            for j in range(len(b)):
                a[k + j] -= q * b[j]
    return _trim(out)


def _peval(a, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


class RatFunc:
    """Univariate rational function over Q with integer-polynomial storage.

    Invariants: den != 0, poly-gcd(num, den) = 1, gcd of the integer
    contents is 1, and den has positive leading coefficient.  Constants
    embed with den = (1,).
    """

    __slots__ = ("var", "num", "den")

    def __init__(self, num, den=(1,), var="u", _normalized=False):
        if not _normalized:
            num, den = self._normalize(num, den)
        self.num = num
        self.den = den
        self.var = var

    @staticmethod
    def _normalize(num, den):
        num, den = _trim(num), _trim(den)
        if not den:
            raise DivisionByZero("zero denominator in rational function")
        if not num:
            return (), (1,)
        g = _pgcd(num, den)
        if len(g) > 1 or g[:1] not in ((), (1,)):
            num = _pdiv_exact(num, g)
            den = _pdiv_exact(den, g)
        cn, cd = _pcontent(num), _pcontent(den)
        g = math.gcd(cn, cd)
        if g > 1:
            num = tuple(x // g for x in num)
            den = tuple(x // g for x in den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return num, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, x, var="u"):
        x = _rational(x)
        return cls((x.numerator,), (x.denominator,), var=var)

    @classmethod
    def variable(cls, var="u"):
        return cls((0, 1), (1,), var=var)

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.var != self.var:
                raise ValueError("mixed variable tags %r, %r"
                                 % (self.var, other.var))
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other, var=self.var)
        return None

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return RatFunc(num, _pmul(self.den, o.den), var=self.var)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _padd(_pmul(self.num, o.den), _pneg(_pmul(o.num, self.den)))
        return RatFunc(num, _pmul(self.den, o.den), var=self.var)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den, var=self.var,
                       _normalized=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # cross-cancel before multiplying to keep degrees small
        g1 = _pgcd(self.num, o.den)
        g2 = _pgcd(o.num, self.den)
        n1 = _pdiv_exact(self.num, g1) if len(g1) > 1 else self.num
        d2 = _pdiv_exact(o.den, g1) if len(g1) > 1 else o.den
        n2 = _pdiv_exact(o.num, g2) if len(g2) > 1 else o.num
        d1 = _pdiv_exact(self.den, g2) if len(g2) > 1 else self.den
        return RatFunc(_pmul(n1, n2), _pmul(d1, d2), var=self.var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero rational function")
        return self * RatFunc(o.den, o.num, var=self.var)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.var, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def evaluate_at(self, x) -> Fraction:
        """Exact value at a rational point; raises on a pole."""
        x = _rational(x)
        d = _peval(self.den, x)
        if d == 0:
            raise PoleAtEvaluation("pole of rational function at %s"
                                   % format_rational(x))
        return _peval(self.num, x) / d

    def __repr__(self):
        def fmt(p):
            if not p:
                return "0"
            parts = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append("%s*%s" % (c, self.var))
                else:
                    parts.append("%s*%s^%d" % (c, self.var, i))
            return " + ".join(parts)

        if self.den == (1,):
            return "(%s)" % fmt(self.num)
        return "(%s)/(%s)" % (fmt(self.num), fmt(self.den))


# ---------------------------------------------------------------------------
# truncated Laurent series in h
# ---------------------------------------------------------------------------

def _window(val, prec, den, nums):
    """(val, prec, den, nums) of the series nums / den from h^val on, in
    the normal form of :class:`TruncLaurent`: no leading zero, nums cut or
    zero-padded to [val, prec), the content divided out, and val == prec
    when zero; a valuation above prec raises."""
    lead, n = 0, len(nums)
    while lead < n and not nums[lead]:
        lead += 1
    val += lead
    if val > prec:
        raise NegativeValuation(
            "valuation %d above the precision bound %d" % (val, prec))
    if lead == n or val == prec:
        return prec, prec, 1, ()
    if lead or n != prec - val:
        nums = [*nums[lead:lead + prec - val]] + [0] * (prec - val - n + lead)
    g = math.gcd(den, *nums)
    if g > 1:
        return val, prec, den // g, tuple(x // g for x in nums)
    return val, prec, den, tuple(nums)


class TruncLaurent:
    """Truncated Laurent series sum_k c_k h^k known on [val, prec).

    Stored fraction-free: c_k = nums[k - val] / den on the whole window,
    with den > 0 and gcd(den, *nums) = 1, so one value has one storage.
    The leading numerator is nonzero unless the element is zero on the
    whole window; then nums is empty, den is 1 and val == prec.
    ``coeffs`` builds the window's Fractions on demand.
    """

    __slots__ = ("val", "prec", "den", "nums")

    def __init__(self, val, coeffs, prec=None):
        coeffs = [_rational(c) for c in coeffs]
        if prec is None:
            prec = val + len(coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        self.val, self.prec, self.den, self.nums = _window(
            val, prec, den,
            [c.numerator * (den // c.denominator) for c in coeffs])

    @classmethod
    def _make(cls, val, prec, den, nums):
        """An already-normalised series (see the class invariants)."""
        x = object.__new__(cls)
        x.val, x.prec, x.den, x.nums = val, prec, den, nums
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec):
        return cls._make(prec, prec, 1, ())

    @classmethod
    def const(cls, x, prec):
        """x on [0, prec), or the zero series on the empty window
        [prec, prec) when h^0 lies beyond it, as a scalar meets a series."""
        x = _rational(x)
        if prec <= 0:
            return cls.zero(prec)
        return cls._make(*_window(0, prec, x.denominator, [x.numerator]))

    @classmethod
    def exp_h(cls, r, prec):
        """exp(r h) truncated: 1, r, r^2/2, ... on [0, prec), or the zero
        series on [prec, prec) when prec <= 0, as ``const``."""
        r = _rational(r)
        if prec <= 0:
            return cls.zero(prec)
        c, out = Fraction(1), []
        for k in range(prec):
            out.append(c)
            c = c * r / (k + 1)
        return cls(0, out, prec)

    @property
    def coeffs(self):
        """The window's coefficients as Fractions, from h^val on."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def is_zero(self):
        return not self.nums

    def __getitem__(self, k):
        """Coefficient of h^k (must lie below the precision bound)."""
        if k >= self.prec:
            raise NegativeValuation(
                "coefficient h^%d beyond precision %d" % (k, self.prec))
        if k < self.val:
            return Fraction(0)
        return Fraction(self.nums[k - self.val], self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        """The sum on the lesser window; an int or Fraction x meets the
        series as const(x, prec)."""
        if other.__class__ is not TruncLaurent:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = TruncLaurent.const(other, self.prec)
        prec = min(self.prec, other.prec)
        val = min(self.val, other.val, prec)
        den = math.lcm(self.den, other.den)
        out = [0] * (prec - val)
        for t in (self, other):
            if t.val < prec:
                f, k = den // t.den, t.val - val
                for x in t.nums[:prec - t.val]:
                    out[k] += x * f
                    k += 1
        return TruncLaurent._make(*_window(val, prec, den, out))

    __radd__ = __add__

    def __neg__(self):
        return TruncLaurent._make(self.val, self.prec, self.den,
                                  tuple(-x for x in self.nums))

    def __sub__(self, other):
        if isinstance(other, (TruncLaurent, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        """The product on min(a.prec + b.val, b.prec + a.val); a nonzero
        int or Fraction keeps the series' window, and zero is the zero
        series on it."""
        if other.__class__ is not TruncLaurent:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other:
                p = other.numerator
                return TruncLaurent._make(*_window(
                    self.val, self.prec, self.den * other.denominator,
                    [x * p for x in self.nums]))
            other = TruncLaurent.zero(self.prec)
        av, an, bv, bn = self.val, self.nums, other.val, other.nums
        prec = min(self.prec + bv, other.prec + av)
        if not an or not bn:
            return TruncLaurent.zero(prec)
        n = prec - av - bv
        out = [0] * n
        for i in range(n):
            x = an[i]
            if x:
                for j in range(n - i):
                    out[i + j] += x * bn[j]
        return TruncLaurent._make(*_window(av + bv, prec,
                                           self.den * other.den, out))

    __rmul__ = __mul__

    def __pow__(self, e):
        """Integer power by repeated multiplication; e < 0 inverts first."""
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return TruncLaurent.const(1, self.prec)
        base = self if e > 0 else self.invert()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def invert(self):
        if self.is_zero():
            raise NonInvertible("zero truncated Laurent series")
        c = self.coeffs
        inv = [1 / c[0]]
        for k in range(1, len(c)):
            inv.append(-sum(c[j] * inv[k - j] for j in range(1, k + 1))
                       / c[0])
        return TruncLaurent(-self.val, inv, -self.val + len(c))

    def __truediv__(self, other):
        """By a series, or by a nonzero int or Fraction x as * (1/x)."""
        if isinstance(other, TruncLaurent):
            return self * other.invert()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise NonInvertible("division of a series by zero")
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.invert() * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar sits at h^0: compare on [val, prec) without building
            # a series, whose h^0 term would lie outside a window at prec <= 0
            if not self.nums:
                return not other or self.prec <= 0
            if not other or self.prec <= 0:
                return False
            return (self.val == 0 and not any(self.nums[1:])
                    and self.nums[0] == other * self.den)
        if not isinstance(other, TruncLaurent):
            return NotImplemented
        # equality on the common window
        prec = min(self.prec, other.prec)
        lo = min(self.val if self.nums else prec,
                 other.val if other.nums else prec)
        for k in range(lo, prec):
            if self[k] != other[k]:
                return False
        return True

    def __hash__(self):
        raise TypeError("TruncLaurent is not hashable (window equality)")

    def __bool__(self):
        return bool(self.nums)

    def shift(self, k):
        """Multiply by h^k."""
        return TruncLaurent._make(self.val + k, self.prec + k, self.den,
                                  self.nums)

    def constant_term(self) -> Fraction:
        """The h^0 coefficient; genuine h-poles raise NEGATIVE_VALUATION."""
        if self.nums and self.val < 0:
            raise NegativeValuation(
                "true pole in h: valuation %d" % self.val)
        if self.prec < 1:
            raise NegativeValuation(
                "insufficient precision (%d) for a constant term" % self.prec)
        return self[0]

    def __repr__(self):
        if not self.nums:
            return "O(h^%d)" % self.prec
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.val + i
            if k == 0:
                parts.append(format_rational(c))
            else:
                parts.append("%s*h^%d" % (format_rational(c), k))
        return " + ".join(parts) + " + O(h^%d)" % self.prec


# ---------------------------------------------------------------------------
# parameter set and genericity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSet:
    """Exact parameter values with the derived constants.

    c = -1/(q nu) and mu = (q - q^-1 + nu^-1 - nu)/(q - q^-1), both exact.
    ``certified_n`` is the largest strand count the genericity checklist
    was verified for.
    """

    q: Fraction
    nu: Fraction
    c: Fraction
    mu: Fraction
    certified_n: int

    @property
    def delta(self) -> Fraction:
        return self.q - 1 / self.q


def _content_set(q: Fraction, nu: Fraction, n: int):
    vals = []
    for m in range(-n, n + 1):
        vals.append(q ** (2 * m))
    for m in range(-n, n + 1):
        vals.append(nu * nu * q ** (2 * m))
    return vals


def genericity_check(q: Fraction, nu: Fraction, n: int):
    """Return None if (q, nu) pass the genericity checklist for n strands,
    else the name of the violated constraint.

    The checklist makes NOT_GENERIC deterministic: (a) no small root of
    unity behaviour, (b) all potential quantum contents distinct, (c) no
    pole of the Q-factors or the fusion prefactor on contents, (d) no
    mu-type degeneration.
    """
    # (a) needs no loop: the only rational roots of unity are +1 and -1
    if q == 0 or q == 1 or q == -1:
        return "q in {0, +1, -1} (q - q^-1 vanishes)"
    if nu == 0:
        return "nu = 0"
    # (b) contents pairwise distinct: with q past (a) the q-powers are, and
    # so are the nu^2 q-powers, so a collision is nu^2 q^2m = q^2k
    vals = _content_set(q, nu, n)
    if len(set(vals)) != len(vals):
        seen = {q ** (2 * m): "q^%d" % (2 * m) for m in range(-n, n + 1)}
        for m in range(-n, n + 1):
            v = nu * nu * q ** (2 * m)
            if v in seen:
                return "content collision nu^2 q^%d = %s" % (2 * m, seen[v])
    # (c) c x y != 1 for contents x, y (poles of Q-factors and prefactor)
    c = Fraction(-1) / (q * nu)
    for x in vals:
        for y in vals:
            if c * x * y == 1:
                return "c x y = 1 on potential contents"
    # (d) nu not of the form q^(1-k)
    for k in range(-2 * n, 2 * n + 1):
        if nu == q ** (1 - k):
            return "nu = q^%d (mu-type degeneration)" % (1 - k)
    return None


def make_params(q, nu, n: int) -> ParamSet:
    """Build a certified parameter set; raises NotGeneric on failure."""
    q, nu = _rational(q), _rational(nu)
    bad = genericity_check(q, nu, n)
    if bad is not None:
        raise NotGeneric(bad)
    c = Fraction(-1) / (q * nu)
    mu = (q - 1 / q + 1 / nu - nu) / (q - 1 / q)
    return ParamSet(q=q, nu=nu, c=c, mu=mu, certified_n=n)


DEFAULT_Q = Fraction(6, 5)
DEFAULT_NU = Fraction(7, 3)


def suggest_params(n: int) -> ParamSet:
    """A certified small-numerator parameter set for the requested n.

    Tries the default pair first, then scans small rationals.  An n outside
    1..STRAND_CAP raises CapExceeded: no context could be built for it.
    """
    check_strands(n)
    try:
        return make_params(DEFAULT_Q, DEFAULT_NU, n)
    except NotGeneric:
        pass
    for a in range(2, 30):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for c_, d in ((7, 3), (5, 2), (8, 3), (9, 4), (11, 3)):
                try:
                    return make_params(Fraction(a, b), Fraction(c_, d), n)
                except NotGeneric:
                    continue
    raise NotGeneric("search", "no generic parameters found for n=%d" % n)

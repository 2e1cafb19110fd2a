import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmwfusion import (AlgebraContext, BrauerAlgebra, CapExceeded,
                       DivisionByZero, DomainMismatch, HeckeAlgebra,
                       NotGeneric, PoleAtEvaluation, RatFunc, TruncLaurent,
                       brauer_idempotent_via_contraction, build_context,
                       check_reflection, contraction_block_check,
                       enumerate_tableaux, hecke_family_idempotent,
                       laurent_params, make_params, q_factorial, q_number,
                       structure_constant_oracle)
from bmwfusion.contraction import spectral_series
from bmwfusion.fusion import L_operator
from bmwfusion.errors import NegativeValuation, NonInvertible
from bmwfusion.jsonio import laurent_to_json
from bmwfusion.scalars import (format_rational, genericity_check,
                               parse_rational, suggest_params)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7)

nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_rational_roundtrip():
    assert parse_rational("-3/7") == Fr(-3, 7)
    assert format_rational(Fr(-3, 7)) == "-3/7"
    assert format_rational(Fr(4)) == "4"
    assert parse_rational("5") == 5


@pytest.mark.parametrize("text", ["1/0", "0/0", " -3/0 ", "x", "1/2/3", ""])
def test_parse_rational_rejects_bad_text(text):
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert info.type is ValueError


def test_q_numbers():
    assert q_number(1, Fr(9, 2)) == 1
    assert q_number(2, Fr(2)) == Fr(5, 2)
    assert q_factorial(3, Fr(2)) == Fr(105, 8)
    assert q_factorial(0, Fr(2)) == 1
    assert q_factorial(1, Fr(2)) == 1
    # polynomial form works at q = 1
    assert q_number(4, Fr(1)) == 4


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_ratfunc_normalization_and_eval():
    u = RatFunc.variable()
    f = (u - 1) / (u * u - 1)
    assert f == RatFunc((1,), (1, 1))          # 1/(u+1)
    assert f.evaluate_at(3) == Fr(1, 4)


def test_ratfunc_pole_factor_value():
    q, v, uval = Fr(2), Fr(1), Fr(2)
    u = RatFunc.variable()
    f = ((u - v) * (u - v)) / ((u - q * q * v) * (u - v / (q * q)))
    assert f.evaluate_at(uval) == Fr(-2, 7)


def test_ratfunc_pole_detection():
    u = RatFunc.variable()
    g = RatFunc((1,), (-1, 1))                  # 1/(u-1)
    with pytest.raises(PoleAtEvaluation):
        g.evaluate_at(1)
    with pytest.raises(DivisionByZero):
        g / (u - u)


def test_ratfunc_variable_tags():
    u = RatFunc.variable("u")
    v = RatFunc.variable("v")
    with pytest.raises(ValueError):
        u + v


@given(a=rationals, b=nonzero_rationals, c=rationals)
@settings(max_examples=60, deadline=None)
def test_ratfunc_field_axioms(a, b, c):
    u = RatFunc.variable()
    x = u * a + 1
    y = u * b - 2
    z = u * c + c
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not y.is_zero():
        assert (x * y) / y == x


@given(b=nonzero_rationals)
@settings(max_examples=40, deadline=None)
def test_ratfunc_mul_div_roundtrip(b):
    u = RatFunc.variable()
    a = (u * 3 - 1) / (u + 7)
    g = u * b + b
    assert (a * g) / g == a


# ---------------------------------------------------------------------------
# truncated Laurent series
# ---------------------------------------------------------------------------

def test_exp_series():
    e = TruncLaurent.exp_h(1, 3)
    assert e.coeffs == (1, 1, Fr(1, 2))
    assert e.val == 0


def test_laurent_division_after_cancellation():
    h = TruncLaurent(1, (1,), 4)                # the element h
    num = TruncLaurent.exp_h(2, 4) - TruncLaurent.exp_h(0, 4)
    g = num / h
    assert g.val == 0
    assert g[0] == 2 and g[1] == 2


def test_laurent_invert():
    e = TruncLaurent.exp_h(1, 5)
    assert e.invert() == TruncLaurent.exp_h(-1, 5)
    assert (e * e.invert() - TruncLaurent.const(1, 5)).is_zero()
    with pytest.raises(Exception):
        TruncLaurent.zero(4).invert()


@pytest.mark.parametrize("x, prec", [(1, -1), (0, 0)])
def test_laurent_precision_below_valuation(x, prec):
    with pytest.raises(NegativeValuation):
        TruncLaurent(0, (x,), prec)


def _fields(x):
    return x.val, x.prec, x.den, x.nums


@pytest.mark.parametrize("prec", [-3, -1, 0])
def test_a_constant_beyond_its_window_is_the_empty_window(prec):
    # const, exp_h and s ** 0 meet h^0 as s + 1 and s * 1 do: beyond the
    # window it is lost, and the series is zero on [prec, prec); they
    # raised NEGATIVE_VALUATION at prec < 0
    empty = (prec, prec, 1, ())
    for x in (1, 0, Fr(-2, 3)):
        assert _fields(TruncLaurent.const(x, prec)) == empty
    assert _fields(TruncLaurent.exp_h(2, prec)) == empty
    s = TruncLaurent(prec - 2, (2, 1), prec)
    assert _fields(s ** 0) == empty
    assert _fields(s + TruncLaurent.const(1, prec)) == _fields(s + 1) == \
        _fields(s)
    assert _fields(s * 1) == _fields(s)


def test_exact_scalar_keeps_the_window():
    s = TruncLaurent(-1, [1, 2, 3], 2)
    for f in (lambda: s * 2, lambda: 2 * s, lambda: s * Fr(2),
              lambda: s / Fr(1, 2)):
        assert _outcome(f) == (-1, 2, (2, 4, 6))
    assert _outcome(lambda: s / 2) == (-1, 2, (Fr(1, 2), 1, Fr(3, 2)))
    assert _outcome(lambda: 1 / s) == _outcome(s.invert) == (1, 4, (1, -2, 1))
    assert _outcome(lambda: Fr(2, 3) / s) == (1, 4, (Fr(2, 3), Fr(-4, 3),
                                                     Fr(2, 3)))
    assert _outcome(lambda: s * 0) == (1, 1, ())
    with pytest.raises(NonInvertible):
        s / 0


def test_scalar_added_beyond_the_window_is_lost():
    assert _outcome(lambda: TruncLaurent(-2, [1], -1) + 1) == (-2, -1, (1,))
    assert _outcome(lambda: 1 - TruncLaurent(-2, [1], -1)) == \
        (-2, -1, (-1,))
    assert _outcome(lambda: TruncLaurent(-2, [1], 0) + 1) == (-2, 0, (1, 0))


def test_laurent_integer_powers():
    q = TruncLaurent.exp_h(1, 4)
    assert q ** 3 == TruncLaurent.exp_h(3, 4)
    assert q ** -2 == TruncLaurent.exp_h(-2, 4)
    assert q ** 0 == TruncLaurent.const(1, 4)
    assert (q ** 0).prec == 4


def test_laurent_constant_term_errors():
    x = TruncLaurent(-1, (1, 2), 3)
    with pytest.raises(NegativeValuation):
        x.constant_term()
    y = TruncLaurent(1, (5,), 4)
    assert y.constant_term() == 0
    z = TruncLaurent(0, (3, 1), 2)
    assert z.constant_term() == 3


@given(r=rationals, s=rationals)
@settings(max_examples=40, deadline=None)
def test_exp_multiplicative(r, s):
    n = 5
    a = TruncLaurent.exp_h(r, n)
    b = TruncLaurent.exp_h(s, n)
    assert (a * b - TruncLaurent.exp_h(r + s, n)).is_zero()


@given(r=rationals)
@settings(max_examples=40, deadline=None)
def test_exp_inverse(r):
    n = 4
    a = TruncLaurent.exp_h(r, n)
    assert (a * TruncLaurent.exp_h(-r, n) - TruncLaurent.const(1, n)).is_zero()


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_make_params_values():
    ps = make_params(Fr(2), Fr(3), 2)
    assert ps.mu == Fr(-7, 9)
    assert ps.c == Fr(-1, 6)
    assert ps.c * ps.q * ps.nu == -1
    # both closed forms of mu agree
    q, nu = ps.q, ps.nu
    assert ps.mu * (q - 1 / q) * nu == (1 / q + nu) * (q - nu)


def test_make_params_rejects_degenerate():
    with pytest.raises(NotGeneric):
        make_params(Fr(1), Fr(3), 2)
    with pytest.raises(NotGeneric):
        make_params(Fr(2), Fr(4), 2)     # nu = q^2: content collision


def test_default_params_generic_to_5():
    assert genericity_check(Fr(6, 5), Fr(7, 3), 5) is None


def test_suggest_params():
    ps = suggest_params(5)
    assert genericity_check(ps.q, ps.nu, 5) is None


@pytest.mark.parametrize("n", [0, -1, 6])
def test_suggest_params_outside_the_strand_range(n):
    with pytest.raises(CapExceeded):
        suggest_params(n)


def _tab2():
    return next(t for t in enumerate_tableaux(2) if t.is_standard())


# every entry point that takes a parameter value, given a float there
_FLOAT_SITES = {
    "make_params": lambda ctx: make_params(1.2, Fr(7, 3), 3),
    "build_context": lambda ctx: build_context(3, q=1.2, nu=Fr(7, 3)),
    "TruncLaurent": lambda ctx: TruncLaurent(0, [0.1]),
    "const": lambda ctx: TruncLaurent.const(0.1, 2),
    "exp_h": lambda ctx: TruncLaurent.exp_h(0.1, 2),
    "HeckeAlgebra": lambda ctx: HeckeAlgebra(2, 1.2),
    "hecke_family_idempotent": lambda ctx: hecke_family_idempotent(
        _tab2(), 0.5, HeckeAlgebra(2, ctx.params.q), ctx.params),
    "BrauerAlgebra": lambda ctx: BrauerAlgebra(2, 5.0),
    "laurent_params": lambda ctx: laurent_params(1, 5.0),
    "spectral_series": lambda ctx: spectral_series(1, 0.5, 5),
    "contraction_block_check": lambda ctx: contraction_block_check(
        1, 1, 0.5, Fr(1, 3), 5),
    "structure_constant_oracle": lambda ctx: structure_constant_oracle(
        AlgebraContext(2, laurent_params(1, 5), verify=False), 5.0),
    "brauer_idempotent_via_contraction":
        lambda ctx: brauer_idempotent_via_contraction(_tab2(), 1, 5.0),
    "L_operator": lambda ctx: L_operator(ctx, 1, 0.5),
    "check_reflection": lambda ctx: check_reflection(ctx, 1, 0.5, Fr(1, 3)),
}


@pytest.mark.parametrize("site", list(_FLOAT_SITES))
def test_a_float_parameter_raises_domain_mismatch(site, ctx2):
    # no floats: Fraction(1.2) would be 5404319552844595/4503599627370496
    with pytest.raises(DomainMismatch):
        _FLOAT_SITES[site](ctx2)


@given(a=rationals, b=rationals, c=rationals, s=st.integers(-2, 2))
@settings(max_examples=40, deadline=None)
def test_laurent_ring_axioms(a, b, c, s):
    n = 4
    x = TruncLaurent(s, (a, b), s + n)
    y = TruncLaurent.exp_h(b, n)
    z = TruncLaurent.const(c, n) + TruncLaurent(1, (a,), n)
    assert ((x + y) + z - (x + (y + z))).is_zero()
    assert ((x * y) * z - (x * (y * z))).is_zero()
    assert (x * (y + z) - (x * y + x * z)).is_zero()


@given(a=nonzero_rationals, b=rationals, s=st.integers(-2, 2))
@settings(max_examples=40, deadline=None)
def test_laurent_inverse_axiom(a, b, s):
    n = 4
    x = TruncLaurent(s, (a, b, b), s + n)
    one = TruncLaurent.const(1, n)
    assert (x * x.invert() - one).is_zero()


def test_laurent_equals_a_scalar_at_nonpositive_precision():
    # the scalar sits at h^0, outside a window [val, prec) with prec <= 0
    x = TruncLaurent(-2, (1, 2), 0)
    z = TruncLaurent.zero(-1)
    assert not x == 0 and x != 0 and not x == 3
    assert z == 0 and not z != 0 and z == 3 and z == Fr(1, 2)
    # inside the window h^0 must match and the rest vanish
    assert TruncLaurent.const(3, 2) == 3 and TruncLaurent.const(3, 2) != 0
    assert TruncLaurent(0, (3, 1)) != 3
    assert TruncLaurent(-1, (1, 3)) != 3
    assert TruncLaurent.zero(2) == 0 and TruncLaurent.zero(2) != 3


def test_laurent_shift():
    x = TruncLaurent(0, (1, 2), 3)
    y = x.shift(2)
    assert y.val == 2 and y[2] == 1 and y[3] == 2


# ---------------------------------------------------------------------------
# differential test against a naive truncated Laurent series
# ---------------------------------------------------------------------------

class _RefLaurent:
    """A Fraction list on [val, prec) with the window rules of TruncLaurent:
    leading zeros raise val, a valuation above prec raises, a nonzero list
    is cut or zero-padded to the window, an empty one has val == prec."""

    def __init__(self, val, coeffs, prec=None):
        c = [Fr(x) for x in coeffs]
        if prec is None:
            prec = val + len(c)
        while c and c[0] == 0:
            c.pop(0)
            val += 1
        if val > prec:
            raise NegativeValuation("valuation above precision")
        del c[prec - val:]
        if c:
            c += [Fr(0)] * (prec - val - len(c))
        else:
            val = prec
        self.val, self.c, self.prec = val, c, prec

    def at(self, k):
        return self.c[k - self.val] if 0 <= k - self.val < len(self.c) \
            else Fr(0)

    def coerce(self, other):
        if isinstance(other, _RefLaurent):
            return other
        if self.prec <= 0:      # h^0 lies beyond the window
            return _RefLaurent(self.prec, [], self.prec)
        return _RefLaurent(0, [other], self.prec)

    def __add__(self, other):
        o = self.coerce(other)
        prec = min(self.prec, o.prec)
        val = min(self.val, o.val, prec)
        return _RefLaurent(val, [self.at(k) + o.at(k)
                                 for k in range(val, prec)], prec)

    def __neg__(self):
        return _RefLaurent(self.val, [-x for x in self.c], self.prec)

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __mul__(self, other):
        if not isinstance(other, _RefLaurent) and other:
            # an exact nonzero scalar keeps the window
            return _RefLaurent(self.val, [x * other for x in self.c],
                               self.prec)
        o = self.coerce(other)
        prec = min(self.prec + o.val, o.prec + self.val)
        if not self.c or not o.c:
            return _RefLaurent(prec, [], prec)
        val = self.val + o.val
        return _RefLaurent(val, [sum(self.c[i] * o.c[k - i]
                                     for i in range(k + 1))
                                 for k in range(prec - val)], prec)

    def invert(self):
        a = self.c
        if not a:
            raise NonInvertible("zero series")
        inv = [1 / a[0]]
        for k in range(1, len(a)):
            inv.append(-sum(a[j] * inv[k - j] for j in range(1, k + 1))
                       / a[0])
        return _RefLaurent(-self.val, inv, -self.val + len(a))

    def __pow__(self, e):
        if e == 0:
            return self.coerce(1)      # as const(1, prec)
        base = self if e > 0 else self.invert()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def shift(self, k):
        return _RefLaurent(self.val + k, self.c, self.prec + k)

    def __eq__(self, other):
        if not isinstance(other, _RefLaurent):
            # the scalar is other * h^0, compared on this series' window
            return all(self.at(k) == (other if k == 0 else 0)
                       for k in range(min(self.val, 0), self.prec))
        o = other
        prec = min(self.prec, o.prec)
        lo = min(self.val if self.c else prec, o.val if o.c else prec)
        return all(self.at(k) == o.at(k) for k in range(lo, prec))


def _outcome(f, *args):
    try:
        out = f(*args)
    except (NegativeValuation, NonInvertible) as exc:
        return type(exc)
    if isinstance(out, TruncLaurent):
        # the storage invariants: equal coefficients then mean equal storage
        assert out.den > 0 and math.gcd(out.den, *out.nums) == 1
        assert len(out.nums) == out.prec - out.val
        assert out.nums[0] != 0 if out.nums else out.den == 1
    if isinstance(out, (TruncLaurent, _RefLaurent)):
        coeffs = out.coeffs if isinstance(out, TruncLaurent) else out.c
        assert all(type(c) is Fr for c in coeffs)
        return out.val, out.prec, tuple(coeffs)
    return out


laurent_args = st.tuples(
    st.integers(-3, 3),
    st.lists(st.one_of(st.just(Fr(0)), rationals), max_size=6),
    st.one_of(st.none(), st.integers(-2, 6)))


def _both(args):
    val, coeffs, width = args
    prec = None if width is None else val + width
    return (_outcome(TruncLaurent, val, coeffs, prec),
            _outcome(_RefLaurent, val, coeffs, prec))


def _pair(args):
    val, coeffs, width = args
    prec = None if width is None else val + width
    try:
        return (TruncLaurent(val, coeffs, prec),
                _RefLaurent(val, coeffs, prec))
    except NegativeValuation:
        return None


@given(args=laurent_args)
@settings(max_examples=300, deadline=None)
def test_laurent_constructor_matches_reference(args):
    got, want = _both(args)
    assert got == want


@pytest.mark.parametrize("args, want", [
    ((0, (0, 0, 3, 1), 5), (2, 5, (3, 1, 0))),
    ((2, (), 5), (5, 5, ())),
    ((1, (Fr(1, 2),), 4), (1, 4, (Fr(1, 2), 0, 0))),
    ((0, (1, 2, 3), 1), (0, 1, (1,))),
    ((0, (0, 0, 0, 0, 0, 1), 3), NegativeValuation),
    ((4, (), 2), NegativeValuation),
])
def test_laurent_constructor_window_rules(args, want):
    assert _outcome(TruncLaurent, *args) == want
    assert _outcome(_RefLaurent, *args) == want


_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "eq": lambda a, b: a == b,
}


@given(x=laurent_args, y=laurent_args, c=rationals,
       i=st.one_of(st.sampled_from((0, 1, -1)), st.integers(-30, 30)),
       e=st.integers(-3, 3), k=st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_laurent_arithmetic_matches_reference(x, y, c, i, e, k):
    x, y = _pair(x), _pair(y)
    if x is None or y is None:
        return
    (a, ra), (b, rb) = x, y
    for name, f in _BINARY.items():
        assert _outcome(f, a, b) == _outcome(f, ra, rb), name
        # Fraction and int scalars, on either side of a product
        for s in (c, i):
            assert _outcome(f, a, s) == _outcome(f, ra, s), name + " scalar"
    for s in (c, i):
        assert _outcome(lambda: s * a) == _outcome(lambda: ra * s)
    assert _outcome(lambda: c - a) == _outcome(lambda: -ra + c)
    # sums in their order: a scalar meets the window of the series summed
    # before it, and the scalars before the first series meet it as their
    # sum
    for s in (c, i):
        assert _outcome(lambda: b + s + a) == _outcome(lambda: rb + s + ra)
        assert _outcome(lambda: s + s + a + b) == \
            _outcome(lambda: ra + (s + s) + rb)
    # a series on the empty window [k, k) bounds every window it meets
    z, rz = TruncLaurent.zero(k), _RefLaurent(k, [], k)
    for name, f in _BINARY.items():
        assert _outcome(f, a, z) == _outcome(f, ra, rz), name + " empty"
        assert _outcome(f, z, a) == _outcome(f, rz, ra), name + " empty"
        for s in (c, i):
            assert _outcome(f, z, s) == _outcome(f, rz, s), name + " empty"
    assert _outcome(lambda: a == 0) == _outcome(lambda: ra == 0)
    assert _outcome(lambda: a != 0) == _outcome(lambda: not ra == 0)
    assert _outcome(lambda: a.invert()) == _outcome(lambda: ra.invert())
    assert _outcome(lambda: a ** e) == _outcome(lambda: ra ** e)
    assert _outcome(lambda: a.shift(k)) == _outcome(lambda: ra.shift(k))
    assert laurent_to_json(a) == {
        "val": ra.val, "N": ra.prec - ra.val,
        "coeffs": [format_rational(v) for v in ra.c]}

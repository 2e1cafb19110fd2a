from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmwfusion import (DivisionByZero, NotGeneric, PoleAtEvaluation, RatFunc,
                       TruncLaurent, make_params, q_factorial, q_number)
from bmwfusion.errors import NegativeValuation
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
        TruncLaurent.const(x, prec)


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


def test_laurent_shift():
    x = TruncLaurent(0, (1, 2), 3)
    y = x.shift(2)
    assert y.val == 2 and y[2] == 1 and y[3] == 2

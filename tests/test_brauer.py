import random
from fractions import Fraction as Fr

import pytest

from bmwfusion import BrauerAlgebra, CapExceeded, DomainMismatch
from bmwfusion.brauer import all_diagrams
from bmwfusion.bmwcore import double_factorial
from bmwfusion.jsonio import brauer_from_json


def test_generator_relations():
    B = BrauerAlgebra(3, Fr(5))
    one = B.one()
    for i in (1, 2):
        s, e = B.s(i), B.e(i)
        assert (s * s - one).is_zero()
        assert (e * e - e.scale(B.omega)).is_zero()
        assert (s * e - e).is_zero() and (e * s - e).is_zero()
    assert (B.s(1) * B.s(2) * B.s(1) - B.s(2) * B.s(1) * B.s(2)).is_zero()
    assert (B.e(1) * B.e(2) * B.e(1) - B.e(1)).is_zero()
    assert (B.e(1) * B.s(2) * B.s(1) - B.e(1) * B.e(2)).is_zero()


def test_diagram_counts():
    for n in (1, 2, 3, 4, 5):
        assert len(all_diagrams(n)) == double_factorial(2 * n - 1)


def test_brauer_associativity():
    B = BrauerAlgebra(3, Fr(7, 2))
    diagrams = all_diagrams(3)
    rnd = random.Random(0)

    def rand():
        terms = {}
        for _ in range(3):
            terms[rnd.choice(diagrams)] = Fr(rnd.randint(-4, 4) or 2)
        return B.from_terms(terms)

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_loop_factor():
    B = BrauerAlgebra(2, Fr(5))
    e = B.e(1)
    assert (e * e - e.scale(5)).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_index_range(n):
    B = BrauerAlgebra(n, Fr(5))
    for i in range(1, n):
        assert not B.s(i).is_zero() and not B.e(i).is_zero()
    for i in (0, n):
        with pytest.raises(IndexError):
            B.s(i)
        with pytest.raises(IndexError):
            B.e(i)


def test_strand_cap():
    for n in (0, 9):
        with pytest.raises(CapExceeded):
            BrauerAlgebra(n, Fr(5))


def test_from_terms_rejects_a_non_diagram():
    # from JSON: point "5" at n = 2 and a repeated point; as keys: an
    # unsorted pair, too few pairs and pairs of the wrong size
    for pairs in ([["1", "5"], ["2", "1'"]], [["1", "2"], ["1", "2"]]):
        data = {"algebra": "brauer", "n": 2, "omega": "5",
                "terms": [{"diagram": pairs, "coeff": "1"}]}
        with pytest.raises(DomainMismatch):
            brauer_from_json(data)
    B = BrauerAlgebra(2, Fr(5))
    for bad in ({(2, 0), (1, 3)}, {(0, 1)}, {(0, 1, 2), (3,)}):
        with pytest.raises(DomainMismatch):
            B.from_terms({frozenset(bad): Fr(1)})

import random
from fractions import Fraction as Fr

import pytest

from bmwfusion import BrauerAlgebra, BrauerElement, CapExceeded, \
    DomainMismatch
from bmwfusion.brauer import diagram_mul, e_diagram, s_diagram
from bmwfusion.bmwcore import (K_KIND, T_KIND, double_factorial,
                               fold_products, letter)
from conftest import word_diagram

OMEGAS = pytest.mark.parametrize("omega", [Fr(5), Fr(7, 2), Fr(0)],
                                 ids=["5", "7_2", "0"])


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
    # the breadth-first search reaches every diagram, each spelled by a
    # loop-free word that folds from 1 through the rows to the diagram
    for n in (1, 2, 3, 4, 5):
        B = BrauerAlgebra(n, 5)
        assert len(set(B.words)) == double_factorial(2 * n - 1)
        for d in B.words:
            assert sorted(sum(d, ())) == list(range(2 * n))
            assert all(a < b for a, b in d)
            assert word_diagram(n, B.spell(d)) == (d, 0)
        lengths = [len(B.spell(d)) for d in B.words]
        assert lengths == sorted(lengths)
        got = fold_products(B, B.one().terms,
                            [{B.spell(d): 1} for d in B.words])
        assert got == [{d: 1} for d in B.words]


@OMEGAS
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rows_are_the_stacked_products(n, omega):
    B = BrauerAlgebra(n, omega)
    gens = {}
    for i in range(1, n):
        gens[letter(T_KIND, i)] = s_diagram(n, i)
        gens[letter(K_KIND, i)] = e_diagram(n, i)
    assert set(B._rows) == set(gens)
    for l, row_of in B._rows.items():
        assert len(row_of) == len(B.words)
        for d, (den, pairs) in zip(B.words, row_of):
            p, loops = diagram_mul(n, d, gens[l])
            c = omega ** loops
            assert {B.words[j]: Fr(x, den) for j, x in pairs} == \
                ({p: c} if c else {})


def pair_product(a, b):
    """a * b over every pair of diagrams, with omega^loops for each: the
    product before the row table, kept as the reference."""
    alg = a.algebra
    out = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            d, loops = diagram_mul(alg.n, d1, d2)
            out[d] = out.get(d, Fr(0)) + c1 * c2 * alg.omega ** loops
    return BrauerElement(alg, out)


@OMEGAS
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_product_matches_the_pair_product(n, omega):
    # every diagram at n <= 4, 60 random ones at n = 5
    B = BrauerAlgebra(n, omega)
    rnd = random.Random(n)

    def dense():
        keys = B.words if n <= 4 else rnd.sample(B.words, 60)
        return B.from_terms({d: Fr(rnd.randint(-9, 9), rnd.randint(1, 4))
                             for d in keys})

    for _ in range(2):
        a, b = dense(), dense()
        assert (a * b).terms == pair_product(a, b).terms


def test_tables_are_memoised_by_n_and_omega():
    assert BrauerAlgebra(4, 5)._rows is BrauerAlgebra(4, Fr(10, 2))._rows
    assert BrauerAlgebra(4, 5)._rows is not BrauerAlgebra(4, 7)._rows


def _reference_diagram_mul(n, d1, d2):
    """The stacking product on a graph of tagged points ("t" top, "m"
    middle, "b" bottom): the reference for ``diagram_mul``."""
    adj = {}

    def link(x, y):
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    for (x, y) in d1:
        link(("t", x) if x < n else ("m", x - n),
             ("t", y) if y < n else ("m", y - n))
    for (x, y) in d2:
        link(("m", x) if x < n else ("b", x - n),
             ("m", y) if y < n else ("b", y - n))
    ext = [("t", a) for a in range(n)] + [("b", a) for a in range(n)]
    seen = set()
    pairs = set()
    touched = set()
    for s in ext:
        if s in seen:
            continue
        seen.add(s)
        prev, cur = None, s
        while True:
            nbrs = adj[cur]
            nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
            prev, cur = cur, nxt
            if cur[0] == "m":
                touched.add(cur)
            else:
                seen.add(cur)
                a = cur[1] if cur[0] == "t" else n + cur[1]
                b = s[1] if s[0] == "t" else n + s[1]
                pairs.add((min(a, b), max(a, b)))
                break
    loops = 0
    unvisited = {("m", a) for a in range(n)} - touched
    unvisited = {m for m in unvisited if m in adj}
    while unvisited:
        s = unvisited.pop()
        prev, cur = None, s
        while True:
            nbrs = adj[cur]
            nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
            prev, cur = cur, nxt
            if cur == s:
                loops += 1
                break
            unvisited.discard(cur)
    return frozenset(pairs), loops


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagram_mul_matches_reference_on_every_pair(n):
    diagrams = BrauerAlgebra(n, 5).words
    for d1 in diagrams:
        for d2 in diagrams:
            assert diagram_mul(n, d1, d2) == \
                _reference_diagram_mul(n, d1, d2), (d1, d2)


def test_diagram_mul_matches_reference_on_random_n5_pairs():
    diagrams = BrauerAlgebra(5, 5).words
    rnd = random.Random(5)
    loops = set()
    for _ in range(5000):
        d1, d2 = rnd.choice(diagrams), rnd.choice(diagrams)
        got = diagram_mul(5, d1, d2)
        assert got == _reference_diagram_mul(5, d1, d2), (d1, d2)
        loops.add(got[1])
    assert loops >= {0, 1, 2}


def test_brauer_associativity():
    B = BrauerAlgebra(3, Fr(7, 2))
    diagrams = B.words
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
    # an unsorted pair, a point outside 0..3 at n = 2, too few pairs and
    # pairs of the wrong size
    B = BrauerAlgebra(2, Fr(5))
    for bad in ({(2, 0), (1, 3)}, {(0, 4), (1, 2)}, {(0, 1)},
                {(0, 1, 2), (3,)}):
        with pytest.raises(DomainMismatch):
            B.from_terms({frozenset(bad): Fr(1)})

"""The Brauer algebra B_n(omega) on the diagram basis.

A diagram is a perfect matching on the 2n points {top 0..n-1, bottom
n..2n-1}; concatenation closes with one factor of omega per closed loop.
Generators: s_i (simple transposition) and e_i (cup-cap), the letters
T_i and K_i of ``bmwcore``, whose rows ``bmwcore.fold_products`` reads.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .bmwcore import (K_KIND, T_KIND, RowAlgebra, SparseElement, _walk_basis,
                      letter)
from .combinatorics import check_strands
from .scalars import _rational

Diagram = frozenset  # of sorted 2-tuples covering {0..2n-1}


def identity_diagram(n: int) -> Diagram:
    return frozenset((a, n + a) for a in range(n))


def s_diagram(n: int, i: int) -> Diagram:
    """s_i: tops i-1 and i crossed (1-based generator index)."""
    pairs = {a: n + a for a in range(n)}
    pairs[i - 1] = n + i
    pairs[i] = n + i - 1
    return frozenset((min(a, b), max(a, b)) for a, b in pairs.items())


def e_diagram(n: int, i: int) -> Diagram:
    """e_i: top arc {i-1, i} and bottom arc {i-1', i'} (1-based index)."""
    out = set()
    out.add((i - 1, i))
    out.add((n + i - 1, n + i))
    for a in range(n):
        if a not in (i - 1, i):
            out.add((a, n + a))
    return frozenset(out)


def diagram_mul(n: int, d1: Diagram, d2: Diagram):
    """Stack d1 above d2; return (diagram, number of closed loops).
    Point p of d1 is node p and point p of d2 is node n + p: each middle
    node n..2n-1 has one edge of either diagram, and a walk alternates."""
    up, down = {}, {}
    for a, b in d1:
        up[a], up[b] = b, a
    for a, b in d2:
        down[n + a], down[n + b] = n + b, n + a
    middle = set(range(n, 2 * n))

    def walk(node, edges, other):
        node = edges[node]
        while node in middle:
            middle.remove(node)
            edges, other = other, edges
            node = edges[node]
        return node

    pairs, ends = set(), set()
    # p runs over the outer points; p < end, as lower ones are all paired
    for p in range(2 * n):
        if p not in ends:
            end = walk(p, up, down) if p < n else walk(p + n, down, up)
            end = end if end < n else end - n
            ends.add(end)
            pairs.add((p, end))
    loops = 0
    while middle:
        walk(middle.pop(), up, down)
        loops += 1
    return frozenset(pairs), loops


@functools.cache
def _table(n: int, omega: Fraction):
    """The row table of B_n(omega), memoised by (n, omega) and shared by
    every algebra of that (n, omega), so read only: the diagrams, their
    index and spellings by ``bmwcore._walk_basis`` from the identity over
    the loop-free right products by s_i (letter T_i) and e_i (letter
    K_i), the diagram of each spelling, and the rows d_i g_l =
    omega^loops d_j as (b^loops, ((j, a^loops),)) for omega = a/b, empty
    when omega = 0 and a loop closes."""
    gens = {letter(k, i): (s_diagram if k == T_KIND else e_diagram)(n, i)
            for i in range(1, n) for k in (T_KIND, K_KIND)}
    words, index, spellings, found = _walk_basis(
        identity_diagram(n), gens, lambda d, l: diagram_mul(n, d, gens[l]))
    a, b = omega.numerator, omega.denominator
    rows = {l: tuple((b ** k, ((index[p], a ** k),) if a or not k else ())
                     for p, k in prods) for l, prods in found.items()}
    return (tuple(words), index, spellings,
            {w: d for d, w in spellings.items()}, rows)


class BrauerElement(SparseElement):
    """Sparse rational combination of Brauer diagrams."""

    __slots__ = ()

    _key_order = staticmethod(sorted)
    _key_name = staticmethod(lambda d: str(sorted(d)))

    def __init__(self, algebra, terms):
        super().__init__(algebra, {d: Fraction(c) for d, c in terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.algebra.product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented


class BrauerAlgebra(RowAlgebra):
    """B_n(omega) over exact rationals, 1 <= n <= STRAND_CAP, on the row
    table of its (n, omega); each diagram is spelled by its word there,
    and ``_diagram_of`` maps each spelling back to its diagram."""

    element_type = BrauerElement

    def __init__(self, n: int, omega):
        check_strands(n)
        self.n = n
        self.omega = _rational(omega)
        (self.words, self.word_index, self._spellings, self._diagram_of,
         self._rows) = _table(n, self.omega)

    def __eq__(self, other):
        if not isinstance(other, BrauerAlgebra):
            return NotImplemented
        return (self.n, self.omega) == (other.n, other.omega)

    def __hash__(self):
        return hash((self.n, self.omega))

    s, e = RowAlgebra.gen_T, RowAlgebra.gen_K

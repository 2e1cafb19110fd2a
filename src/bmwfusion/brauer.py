"""The Brauer algebra B_n(omega) on the diagram basis.

A diagram is a perfect matching on the 2n points {top 0..n-1, bottom
n..2n-1}; concatenation closes with one factor of omega per closed loop.
Generators: s_i (simple transposition) and e_i (cup-cap).
"""

from __future__ import annotations

from fractions import Fraction

from .bmwcore import SparseElement, check_index
from .combinatorics import check_strands
from .errors import DomainMismatch

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


def all_diagrams(n: int):
    """All (2n-1)!! perfect matchings on 2n points, deterministic order."""
    points = list(range(2 * n))
    out = []

    def rec(rest, acc):
        if not rest:
            out.append(frozenset(acc))
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            acc.append((a, b))
            rec(rest[1:k] + rest[k + 1:], acc)
            acc.pop()

    rec(points, [])
    return out


class BrauerAlgebra:
    """B_n(omega) over exact rationals, 1 <= n <= STRAND_CAP."""

    def __init__(self, n: int, omega):
        check_strands(n)
        self.n = n
        self.omega = Fraction(omega)

    def __eq__(self, other):
        if not isinstance(other, BrauerAlgebra):
            return NotImplemented
        return (self.n, self.omega) == (other.n, other.omega)

    def __hash__(self):
        return hash((self.n, self.omega))

    def one(self) -> "BrauerElement":
        return BrauerElement(self, {identity_diagram(self.n): Fraction(1)})

    def zero(self) -> "BrauerElement":
        return BrauerElement(self, {})

    def s(self, i: int) -> "BrauerElement":
        check_index(i, self.n)
        return BrauerElement(self, {s_diagram(self.n, i): Fraction(1)})

    def e(self, i: int) -> "BrauerElement":
        check_index(i, self.n)
        return BrauerElement(self, {e_diagram(self.n, i): Fraction(1)})

    def from_terms(self, terms) -> "BrauerElement":
        """The element sum c * d over {d: c}; a key that is not n sorted
        pairs covering 0..2n-1 once raises DomainMismatch."""
        for d in terms:
            if any(len(p) != 2 or p[0] > p[1] for p in d) or \
                    sorted(sum(d, ())) != list(range(2 * self.n)):
                raise DomainMismatch("%r is not a Brauer diagram on %d "
                                     "strands" % (sorted(d), self.n))
        return BrauerElement(self, dict(terms))


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
        self._check(other)
        alg = self.algebra
        n, w = alg.n, alg.omega
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d, loops = diagram_mul(n, d1, d2)
                c = c1 * c2 * w ** loops
                out[d] = out.get(d, Fraction(0)) + c
        return BrauerElement(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

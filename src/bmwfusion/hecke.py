"""The Hecke algebra H_n(q) on the natural basis T_w, the quotient map
from BMW_n, and the one-parameter family of fusion idempotents.

Permutations are tuples in 0-indexed one-line notation.  The quadratic
relation is T_i^2 = 1 + (q - q^-1) T_i, matching the image of the BMW
quadratic relation at kappa = 0.  Products run on the letter-row fold of
``bmwcore``: the basis is the n! permutations, the letters are the T_i of
``bmwcore``, and each right-hand T_w is spelled by the breadth-first walk
of ``bmwcore._walk_basis`` from the identity: the first word of growing
right products by the T_i that reaches w, a reduced word.
"""

from __future__ import annotations

from .bmwcore import (AlgebraContext, AlgebraElement, RowAlgebra, T_KIND,
                      SparseElement, _walk_basis, fold_products, letter,
                      letter_index, letter_kind)
from .combinatorics import UpDownTableau, check_strands, quantum_contents
from .errors import DivisionByZero, DomainMismatch, NotGeneric
from .fusion import SpectralView, consecutive_evaluation
from .scalars import _rational, format_rational


def apply_s_right(w, i: int):
    """w s_i: swap the entries in positions i-1, i (generator index 1-based)."""
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


class HeckeElement(SparseElement):
    """Sparse combination of T_w with int or Fraction coefficients, the
    scalars the integer rows fold; any other raises DomainMismatch in a
    product."""

    __slots__ = ()

    _key_name = staticmethod(lambda w: "T%s" % list(w))

    def __mul__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.algebra.product(self, other)


class HeckeAlgebra(RowAlgebra):
    """H_n(q) with exact rational q != 0, 1 <= n <= STRAND_CAP.  Its rows
    for ``bmwcore.fold_products`` are integers over one denominator."""

    element_type = HeckeElement

    def __init__(self, n: int, q):
        check_strands(n)
        self.n = n
        self.q = _rational(q)
        if not self.q:
            raise DivisionByZero("the Hecke algebra needs q != 0")
        self.delta = self.q - 1 / self.q
        self._shared = {}     # the fusion paths of fusion.py

        def step(w, l):               # w s_i, and whether i is a descent
            i = letter_index(l)
            return apply_s_right(w, i), w[i - 1] > w[i]

        # breadth-first levels are lengths, so every spelling is reduced
        self.words, self.word_index, self._spellings, prods = _walk_basis(
            tuple(range(n)), [letter(T_KIND, i) for i in range(1, n)], step)
        # T_w T_i = T_{w s_i}, plus delta T_w if i is a descent of w
        d, a = self.delta.denominator, self.delta.numerator
        index = self.word_index
        self._rows = {l: [(d, ((index[p], d),) + ((k, a),) * descent)
                          for k, (p, descent) in enumerate(found)]
                      for l, found in prods.items()}

    def __eq__(self, other):
        if not isinstance(other, HeckeAlgebra):
            return NotImplemented
        return (self.n, self.q) == (other.n, other.q)

    def __hash__(self):
        return hash((self.n, self.q))

    def gen_K(self, i: int):
        """The image of kappa_i: zero in the quotient."""
        return self.zero()


def hecke_quotient(elem: AlgebraElement, hecke: HeckeAlgebra) -> HeckeElement:
    """Image in the quotient by the ideal (kappa_1): canonical words with a
    kappa letter map to 0, T-words map to the corresponding product."""
    ctx = elem.algebra
    if not isinstance(ctx, AlgebraContext) or hecke.n != ctx.n \
            or not ctx.rational or ctx.params.q != hecke.q:
        raise DomainMismatch("the element is not in BMW_%d at q = %s"
                             % (hecke.n, format_rational(hecke.q)))
    words = {w: c for w, c in elem.terms.items()
             if all(letter_kind(l) == T_KIND for l in w)}
    return HeckeElement(hecke,
                        fold_products(hecke, hecke.one().terms, [words])[0])


# ---------------------------------------------------------------------------
# one-parameter family of fusion idempotents
# ---------------------------------------------------------------------------

def hecke_family_idempotent(tab: UpDownTableau, c_param, hecke: HeckeAlgebra,
                            params) -> HeckeElement:
    """Primitive idempotent of H_n for a standard tableau via the
    one-parameter family of fusion functions; independent of c_param.

    A c_param with c_param c_a c_b = 1 for two contents of the tableau
    (a <= b) puts a pole of the fusion function on a content, the
    analogue of genericity constraint (c), and raises NotGeneric.

    This is the BMW consecutive evaluation run in the kappa = 0 quotient
    (``gen_K`` is zero there), with c_param in place of c = -1/(q nu).
    """
    if not tab.is_standard():
        raise ValueError("the Hecke family needs a standard tableau")
    if hecke.n != len(tab):
        raise DomainMismatch("tableau length != algebra size")
    if hecke.q != params.q:
        raise DomainMismatch("algebra at q = %s, parameters at q = %s"
                             % (hecke.q, params.q))
    c = _rational(c_param)
    contents = quantum_contents(tab, params)
    for a, ca in enumerate(contents):
        for cb in contents[a:]:
            if c * ca * cb == 1:
                # a pole of a Q-factor or of the prefactor at a content
                raise NotGeneric(
                    "c_param c_a c_b = 1",
                    "c_param = %s: c_param c_a c_b = 1 on the contents "
                    "of %s" % (format_rational(c), tab.encode()))
    return consecutive_evaluation(
        hecke, contents, SpectralView(q=hecke.q, nu=params.nu, c=c))

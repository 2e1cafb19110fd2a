"""JSON encodings of elements, idempotent records and diagrams.

The package writes these formats and reads none of them back:

* rationals: "p/q" (or "p") in base 10;
* BMW element: {"algebra": "bmw", "n": 3, "params": {"q": "6/5",
  "nu": "7/3"}, "terms": [{"word": ["T1", "K2"], "coeff": "-3/7"}]};
  word letters "Ti", "Ki"; over a Laurent context "params" is
  {"laurent": label} and each coeff a truncated Laurent series;
* truncated Laurent series: {"val": v, "N": n, "coeffs": ["p/q", ...]};
* idempotent record: {"tableau": "1;2;2,1", "contents": [...],
  "method": "fusion", "element": {...}, "verified": {...}};
* Brauer element: diagrams as sorted pair lists [["1", "2'"], ...];
* Hecke element: permutations in one-line notation (1-based).
"""

from __future__ import annotations

from .bmwcore import AlgebraElement, letter_name
from .brauer import BrauerElement
from .hecke import HeckeElement
from .scalars import TruncLaurent, format_rational


def element_to_json(elem: AlgebraElement) -> dict:
    ctx = elem.algebra
    if ctx.rational:
        params = {"q": format_rational(ctx.params.q),
                  "nu": format_rational(ctx.params.nu)}
        enc = format_rational
    else:
        params = {"laurent": ctx.params.label}
        enc = laurent_to_json
    words = sorted(elem.terms, key=AlgebraElement._key_order)
    return {
        "algebra": "bmw",
        "n": ctx.n,
        "params": params,
        "terms": [{"word": [letter_name(l) for l in w],
                   "coeff": enc(elem.terms[w])} for w in words],
    }


def laurent_to_json(x: TruncLaurent) -> dict:
    return {"val": x.val, "N": x.prec - x.val,
            "coeffs": [format_rational(c) for c in x.coeffs]}


def idempotent_to_json(idem) -> dict:
    return {
        "tableau": idem.tableau.encode(),
        "contents": [format_rational(c) for c in idem.contents],
        "method": idem.method,
        "verified": dict(idem.verified),
        "element": element_to_json(idem.element),
    }


def brauer_point_name(p: int, n: int) -> str:
    return str(p + 1) if p < n else "%d'" % (p - n + 1)


def brauer_to_json(elem: BrauerElement) -> dict:
    n = elem.algebra.n
    terms = []
    for d in sorted(elem.terms, key=lambda d: sorted(d)):
        pairs = [[brauer_point_name(a, n), brauer_point_name(b, n)]
                 for a, b in sorted(d)]
        terms.append({"diagram": pairs,
                      "coeff": format_rational(elem.terms[d])})
    return {"algebra": "brauer", "n": n,
            "omega": format_rational(elem.algebra.omega), "terms": terms}


def hecke_to_json(elem: HeckeElement) -> dict:
    return {"algebra": "hecke", "n": elem.algebra.n,
            "q": format_rational(elem.algebra.q),
            "terms": [{"perm": [x + 1 for x in w],
                       "coeff": format_rational(elem.terms[w])}
                      for w in sorted(elem.terms)]}

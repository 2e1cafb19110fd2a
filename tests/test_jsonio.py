from fractions import Fraction as Fr

from bmwfusion import (BrauerAlgebra, HeckeAlgebra, TruncLaurent,
                       fusion_idempotent, enumerate_tableaux)
from bmwfusion.jsonio import (brauer_to_json, element_to_json, hecke_to_json,
                              idempotent_to_json, laurent_to_json)


def test_element_roundtrip(ctx3):
    e = ctx3.gen_T(1) * ctx3.gen_K(2) - ctx3.one().scale(Fr(3, 7))
    assert element_to_json(e) == {
        "algebra": "bmw", "n": 3, "params": {"q": "6/5", "nu": "7/3"},
        "terms": [{"word": [], "coeff": "-3/7"},
                  {"word": ["T1", "K2"], "coeff": "1"}]}


def test_idempotent_record(ctx2):
    idem = fusion_idempotent(enumerate_tableaux(2)[0], ctx2)
    rec = idempotent_to_json(idem)
    assert rec["tableau"] == "1;2"
    assert rec["contents"] == ["1", "36/25"]
    assert rec["method"] == "fusion"


def test_brauer_roundtrip():
    B = BrauerAlgebra(3, Fr(5))
    e = B.s(1) * B.e(2) - B.one().scale(2)
    assert brauer_to_json(e) == {
        "algebra": "brauer", "n": 3, "omega": "5",
        "terms": [{"diagram": [["1", "3"], ["2", "1'"], ["2'", "3'"]],
                   "coeff": "1"},
                  {"diagram": [["1", "1'"], ["2", "2'"], ["3", "3'"]],
                   "coeff": "-2"}]}


def test_hecke_roundtrip():
    hk = HeckeAlgebra(3, Fr(6, 5))
    e = hk.gen_T(1) * hk.gen_T(2) + hk.one().scale(Fr(1, 3))
    assert hecke_to_json(e) == {
        "algebra": "hecke", "n": 3, "q": "6/5",
        "terms": [{"perm": [1, 2, 3], "coeff": "1/3"},
                  {"perm": [2, 3, 1], "coeff": "1"}]}


def test_laurent_roundtrip():
    x = TruncLaurent(-1, (Fr(3), Fr(0), Fr(1, 2)), 2)
    assert laurent_to_json(x) == {"val": -1, "N": 3,
                                  "coeffs": ["3", "0", "1/2"]}

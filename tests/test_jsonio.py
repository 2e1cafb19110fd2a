from fractions import Fraction as Fr

import pytest

from bmwfusion import (BrauerAlgebra, DomainMismatch, HeckeAlgebra,
                       TruncLaurent, fusion_idempotent, enumerate_tableaux)
from bmwfusion.jsonio import (brauer_from_json, brauer_to_json,
                              element_from_json, element_to_json,
                              hecke_from_json, hecke_to_json,
                              idempotent_to_json, laurent_from_json,
                              laurent_to_json)


def test_element_roundtrip(ctx3):
    e = ctx3.gen_T(1) * ctx3.gen_K(2) - ctx3.one().scale(Fr(3, 7))
    data = element_to_json(e)
    assert data["algebra"] == "bmw" and data["n"] == 3
    back = element_from_json(data, ctx3)
    assert (back - e).is_zero()


def test_element_json_accepts_inverse_letters(ctx3):
    data = {"algebra": "bmw", "n": 3,
            "params": {"q": "6/5", "nu": "7/3"},
            "terms": [{"word": ["U1"], "coeff": "1"}]}
    back = element_from_json(data, ctx3)
    assert (back - ctx3.gen_Tinv(1)).is_zero()


@pytest.mark.parametrize("tok", ["T9", "U0", "K3"])
def test_element_json_rejects_letters_outside_the_algebra(ctx3, tok):
    data = {"algebra": "bmw", "n": 3,
            "params": {"q": "6/5", "nu": "7/3"},
            "terms": [{"word": [tok], "coeff": "1"}]}
    with pytest.raises(DomainMismatch):
        element_from_json(data, ctx3)


def test_idempotent_record(ctx2):
    idem = fusion_idempotent(enumerate_tableaux(2)[0], ctx2)
    rec = idempotent_to_json(idem)
    assert rec["tableau"] == "1;2"
    assert rec["contents"] == ["1", "36/25"]
    assert rec["method"] == "fusion"


def test_brauer_roundtrip():
    B = BrauerAlgebra(3, Fr(5))
    e = B.s(1) * B.e(2) - B.one().scale(2)
    data = brauer_to_json(e)
    assert data["algebra"] == "brauer"
    pairs = data["terms"][0]["diagram"]
    assert all(len(p) == 2 for p in pairs)
    back = brauer_from_json(data)
    assert (back - e).is_zero()


def test_hecke_roundtrip():
    hk = HeckeAlgebra(3, Fr(6, 5))
    e = hk.gen_T(1) * hk.gen_T(2) + hk.one().scale(Fr(1, 3))
    data = hecke_to_json(e)
    back = hecke_from_json(data)
    assert (back - e).is_zero()


def test_laurent_roundtrip():
    x = TruncLaurent(-1, (Fr(3), Fr(0), Fr(1, 2)), 2)
    data = laurent_to_json(x)
    assert data["val"] == -1 and data["N"] == 3
    back = laurent_from_json(data)
    assert (back - x).is_zero()

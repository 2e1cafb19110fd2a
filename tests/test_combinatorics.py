from fractions import Fraction as Fr

import pytest

from bmwfusion import (CapExceeded, UpDownTableau, classical_contents,
                       combinatorics, enumerate_tableaux, extension_spectrum,
                       quantum_contents)
from bmwfusion.bmwcore import double_factorial
from bmwfusion.combinatorics import count_tableaux, transpose_partition


def test_counts():
    assert len(enumerate_tableaux(2)) == 3
    assert len(enumerate_tableaux(3)) == 7
    assert len(enumerate_tableaux(4)) == 25
    assert count_tableaux(5) == len(enumerate_tableaux(5))


def test_cap(monkeypatch):
    for f in (enumerate_tableaux, count_tableaux):
        with pytest.raises(CapExceeded):
            f(7)
    # both read the cap at call time
    monkeypatch.setattr(combinatorics, "STRAND_CAP", 7)
    assert count_tableaux(7) == len(enumerate_tableaux(7)) > 0


@pytest.mark.parametrize("n", [0, -3])
def test_count_tableaux_rejects_n_below_one(n):
    with pytest.raises(CapExceeded):
        count_tableaux(n)


def test_path_count_squares_match_dimension(monkeypatch):
    # sum over final shapes of (number of paths)^2 = (2n-1)!!
    monkeypatch.setattr(combinatorics, "STRAND_CAP", 6)
    for n in (2, 3, 4, 5, 6):
        paths = {}
        for t in enumerate_tableaux(n):
            paths[t.shape] = paths.get(t.shape, 0) + 1
        assert sum(m * m for m in paths.values()) == double_factorial(2 * n - 1)


def test_quantum_contents(params4):
    q, nu = params4.q, params4.nu
    seqs = {quantum_contents(t, params4) for t in enumerate_tableaux(2)}
    assert seqs == {(1, q ** 2), (1, q ** -2), (1, nu ** 2)}
    row3 = UpDownTableau.decode("1;2;3")
    assert quantum_contents(row3, params4) == (1, q ** 2, q ** 4)


def test_content_sequences_injective(params4):
    for n in (2, 3, 4, 5):
        tabs = enumerate_tableaux(n)
        seqs = {quantum_contents(t, params4) for t in tabs}
        assert len(seqs) == len(tabs)


def test_classical_contents():
    u = UpDownTableau.decode("1;2")
    assert classical_contents(u, 5) == (2, 3)
    assert classical_contents(u, 5, t_classical=True) == (2, 1)
    for t in enumerate_tableaux(4):
        assert classical_contents(t, Fr(7, 2), t_classical=True) == \
            classical_contents(t.transpose(), Fr(7, 2))


def test_transpose():
    assert transpose_partition((2,)) == (1, 1)
    assert transpose_partition(()) == ()
    hook = UpDownTableau.decode("1;2;2,1")
    assert hook.transpose().encode() == "1;1,1;2,1"
    empty = UpDownTableau.decode("1;")
    assert empty.transpose() == empty
    for t in enumerate_tableaux(4):
        assert t.transpose().transpose() == t


def test_transpose_swaps_content_classes(params4):
    q, nu = params4.q, params4.nu
    for t in enumerate_tableaux(3):
        cs = quantum_contents(t, params4)
        ct = quantum_contents(t.transpose(), params4)
        for a, b in zip(cs, ct):
            # q^(2m) <-> q^(-2m) and nu^2 q^(2m) <-> nu^2 q^(-2m)
            assert a * b == 1 or a * b == nu ** 4


def test_extension_spectrum(params4):
    q, nu = params4.q, params4.nu
    assert set(extension_spectrum((1,), params4)) == {q ** 2, q ** -2,
                                                      nu ** 2}
    assert extension_spectrum((), params4) == (Fr(1),)
    assert set(extension_spectrum((2,), params4)) == \
        {q ** 4, q ** -2, nu ** 2 * q ** -2}


def test_encoding_roundtrip():
    for n in (2, 3, 4):
        for t in enumerate_tableaux(n):
            assert UpDownTableau.decode(t.encode()) == t
    t = UpDownTableau.decode("1;2;2,1")
    assert [s.encode() for s in t.steps] == ["+1,1", "+1,2", "+2,1"]


def test_only_up_down_shape_sequences_construct():
    # the sizes differ by one, yet (1, 1) -> (3,) moves two boxes and
    # (0, 2) is no partition
    for shapes in (((1,), (1, 1), (3,)), ((1,), (0, 2))):
        with pytest.raises(ValueError):
            UpDownTableau(shapes)
    for n in range(1, 6):
        assert all(UpDownTableau(t.shapes) == t for t in enumerate_tableaux(n))


def test_enumeration_deterministic():
    a = [t.encode() for t in enumerate_tableaux(4)]
    b = [t.encode() for t in enumerate_tableaux(4)]
    assert a == b
    # depth first, added boxes (by row, column) before removed
    assert a[0] == "1;2;3;4"

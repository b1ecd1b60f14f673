import numpy as np
import pytest
from hypothesis import given, strategies as st

from autoplex.bitstrings import (
    BitString,
    find_squares,
    is_k_power_free,
    window_codes,
)

bits = st.text(alphabet="01", max_size=64)


def test_construction_and_text_roundtrip():
    x = BitString("0101")
    assert str(x) == "0101"
    assert len(x) == 4
    assert x[0] == 0 and x[1] == 1


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        BitString("012")


def test_concat_and_power():
    assert str(BitString("01") + BitString("10")) == "0110"
    assert str(BitString("01") * 3) == "010101"


def test_window_codes():
    assert window_codes("01101", 2).tolist() == [0b01, 0b11, 0b10, 0b01]
    assert window_codes("0110100", 3, step=3).tolist() == [0b011, 0b010]
    assert window_codes("01", 3).tolist() == []
    rows = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    assert window_codes(rows, 2).tolist() == [[1, 3], [2, 0]]
    with pytest.raises(ValueError):
        window_codes("0101", 2, step=3)
    with pytest.raises(ValueError):
        window_codes("0101", 0)


def test_find_squares_known():
    # 0101 contains the square (01)^2 at 0 and trivial half-length-1 squares none
    sq = find_squares(BitString("0101"), min_half=1)
    assert (0, 2) in sq
    assert all(str(BitString("0101"))[i : i + l] == str(BitString("0101"))[i + l : i + 2 * l] for i, l in sq)


def test_find_squares_min_half_filters():
    sq = find_squares(BitString("00110011"), min_half=4)
    assert sq == [(0, 4)]


@given(bits.filter(lambda s: len(s) >= 2))
def test_find_squares_are_squares(s):
    for i, l in find_squares(BitString(s), min_half=1):
        assert s[i : i + l] == s[i + l : i + 2 * l]


def test_k_power_free():
    assert is_k_power_free("0110", 3)
    assert not is_k_power_free("000", 3)
    assert not is_k_power_free("010101", 3)

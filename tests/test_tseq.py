import pytest

from autoplex import tseq


def test_scaled_exponents_and_lengths():
    assert [tseq.exponent(j) for j in (1, 2, 3, 4)] == [1, 4, 27, 256]
    assert tseq.zone_length(3) == 8 * 27
    assert tseq.cumulative_length(3) == 2 + 16 + 216
    assert tseq.cumulative_length(0) == 0


def test_exact_exponents():
    assert tseq.exponent(1, tseq.EXACT) == 2
    assert tseq.cumulative_length(1, tseq.EXACT) == 4
    assert tseq.exponent(2, tseq.EXACT) == 4**4
    assert tseq.cumulative_length(2, tseq.EXACT) == 4 + 4 * 256
    assert tseq.exponent(3, tseq.EXACT) == 1028**1028


def test_exact_unrepresentable():
    with pytest.raises(tseq.Unrepresentable):
        tseq.exponent(4, tseq.EXACT)


def test_zone_length_digits():
    assert tseq.zone_length_digits(3) == len(str(216))
    # past the representable zones only a digit estimate is available
    assert tseq.zone_length_digits(4, tseq.EXACT) > 1000


def test_zone_start_bits_alternate():
    for j in range(1, 8):
        d = str(tseq.debruijn_for_zone(j).bits)
        assert int(d[0]) == j % 2


def test_prefix_structure():
    # zone 1 = (10)^1, zone 2 = (0011)^4, zone 3 = (10111000)^27
    want = "10" + "0011" * 4 + "10111000" * 27
    assert str(tseq.prefix(len(want))) == want
    assert str(tseq.prefix(5)) == want[:5]


def test_bit_at_matches_prefix():
    s = str(tseq.prefix(5000))
    assert [tseq.bit_at(i) for i in range(5000)] == [int(c) for c in s]


def test_exact_prefix_zone1():
    # exact mode: zone 1 = (10)^2
    assert str(tseq.prefix(4, tseq.EXACT)) == "1010"


def test_mode_validation():
    with pytest.raises(ValueError):
        tseq.TParams("other")

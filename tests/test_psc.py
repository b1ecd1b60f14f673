import pytest

from autoplex import psc

D6 = "0000001000011000101000111001001011001101001111010101110110111111"
D6_ROT1 = "0000010000110001010001110010010110011010011110101011101101111110"


def test_factorize():
    f = psc.factorize(12)
    assert (f.s, f.t) == (2, 3)
    assert psc.factorize(8).s == 3 and psc.factorize(8).t == 1
    assert psc.factorize(7).s == 0 and psc.factorize(7).t == 7


def test_cumulative_length_closed_form():
    total = 0
    for n in range(1, 20):
        total += n * (1 << n)
        assert psc.cumulative_length(n) == total
    assert psc.cumulative_length(0) == 0


def test_zone_golden_small():
    assert str(psc.zone(1)) == "01"
    assert str(psc.zone(3)) == "00010111" * 3
    d4 = "0000100110101111"
    want4 = d4 + d4[1:] + d4[0] + d4[2:] + d4[:2] + d4[3:] + d4[:3]
    assert str(psc.zone(4)) == want4


def test_zone6_golden():
    assert str(psc.zone(6)) == D6 * 3 + D6_ROT1 * 3


def test_zone_length():
    for n in range(1, 12):
        assert len(psc.zone(n)) == n * (1 << n)


def test_bit_at_matches_prefix():
    m = psc.cumulative_length(8)
    s = str(psc.prefix(m))
    assert [psc.bit_at(i) for i in range(m)] == [int(c) for c in s]


def test_verify_zone():
    for n in range(1, 12):
        assert psc.verify_zone(n)


def test_verify_zone_detects_broken_choice():
    # an all-zeros "period" makes every block identical
    from autoplex.bitstrings import BitString
    from autoplex.debruijn import DeBruijnString

    broken = psc.PscSequence(debruijn_choice=lambda n: DeBruijnString(n, BitString("0" * (1 << n))))
    assert not broken.verify_zone(2)


def test_debruijn_choice_called_once_per_order():
    from autoplex import debruijn

    calls = []

    def choice(n):
        calls.append(n)
        return debruijn.generate_lex_least(n)

    seq = psc.PscSequence(debruijn_choice=choice)
    for n in (3, 4, 6):
        seq.zone(n)
        assert seq.verify_zone(n)
        seq.v_tail(n)
    for i in range(psc.cumulative_length(6)):
        seq.bit_at(i)
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]


def test_v_tail():
    assert str(psc.v_tail(3)) == "0111"
    assert str(psc.v_tail(4)) == "00110101111"


def test_loop_lemma_reports():
    r = psc.verify_loop_lemma(3)
    assert r["modulus"] == 8 and r["ok"]
    r = psc.verify_loop_lemma(4)
    assert r["modulus"] == 15 and r["ok"]
    with pytest.raises(ValueError):
        psc.verify_loop_lemma(6)


def test_zone_cap():
    small = psc.PscSequence(zone_cap=4)
    with pytest.raises(psc.ZoneTooLarge):
        small.zone(5)

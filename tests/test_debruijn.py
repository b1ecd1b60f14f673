import pytest

from autoplex import debruijn
from autoplex.bitstrings import BitString

GOLDEN = {
    1: "01",
    2: "0011",
    3: "00010111",
    4: "0000100110101111",
}


def test_lex_least_golden():
    for n, want in GOLDEN.items():
        assert str(debruijn.generate_lex_least(n).bits) == want


def fkm(n: int) -> str:
    """Recursive Fredricksen-Kessler-Maiorana construction of the
    lex-least de Bruijn string (Ruskey's db(t, p))."""
    a = [0] * (n + 1)
    out = []

    def db(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        if a[t - p] == 0:
            a[t] = 1
            db(t + 1, t)

    db(1, 1)
    return "".join(map(str, out))


def test_lex_least_matches_recursive_fkm():
    for n in range(1, 15):
        assert str(debruijn.generate_lex_least(n).bits) == fkm(n)


def test_lex_least_prefix_suffix():
    for n in range(1, 13):
        s = str(debruijn.generate_lex_least(n).bits)
        assert s.startswith("0" * n)
        assert s.endswith("1" * n)


def test_is_debruijn_accepts_and_rejects():
    assert debruijn.is_debruijn(BitString("00010111"), 3)
    assert not debruijn.is_debruijn(BitString("00010110"), 3)
    assert not debruijn.is_debruijn(BitString("0001"), 3)


def test_is_debruijn_matches_set_check():
    n = 3
    for v in range(1 << 8):
        s = format(v, "08b")
        cyclic = s + s[: n - 1]
        distinct = {cyclic[i : i + n] for i in range(8)}
        assert debruijn.is_debruijn(BitString(s), n) == (len(distinct) == 8)


def test_rotate_tracks_rotation():
    d = debruijn.generate_lex_least(3)
    r = debruijn.rotate(d, 3)
    assert str(r.bits) == "10111000"
    assert r.rotation == 3
    assert debruijn.is_debruijn(r.bits, 3)
    with pytest.raises(ValueError):
        debruijn.rotate(d, 8)


def test_generate_with_start_bit():
    assert str(debruijn.generate_with_start_bit(3, 0).bits)[0] == "0"
    d1 = debruijn.generate_with_start_bit(3, 1)
    assert str(d1.bits) == "10111000"
    assert debruijn.is_debruijn(d1.bits, 3)


def test_all_debruijn_counts():
    # 2^(2^(n-1) - n) strings per rotation class, 2^n rotations each
    assert len(debruijn.all_debruijn(1)) == 2
    assert len(debruijn.all_debruijn(2)) == 4
    assert len(debruijn.all_debruijn(3)) == 16
    assert len(debruijn.all_debruijn(4)) == 256


def test_order_cap():
    with pytest.raises(debruijn.OrderTooLarge):
        debruijn.generate_lex_least(25)

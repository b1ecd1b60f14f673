import itertools
import random
from fractions import Fraction

import pytest

from autoplex import acsearch
from autoplex.bitstrings import BitString


def test_unary_strings():
    for n in range(1, 9):
        assert acsearch.exact_A("0" * n).value == 2
        assert acsearch.exact_A("1" * n).value == 2
    assert acsearch.exact_A("").value == 1


def test_known_small_values():
    assert acsearch.exact_A("0").value == 2
    assert acsearch.exact_A("01").value == 2
    assert acsearch.exact_A("011").value == 3
    assert acsearch.exact_A("0110").value == 4


def test_witness_is_certified():
    x = "01101001"
    r = acsearch.exact_A(x)
    assert r.witness.states == r.value
    assert r.witness.uniquely_accepts(x)


def test_upper_bound():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 9)
        x = "".join(rng.choice("01") for _ in range(n))
        assert acsearch.exact_A(x).value <= n + 2


def test_exact_matches_brute_on_samples():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(4, 8)
        x = "".join(rng.choice("01") for _ in range(n))
        exact = acsearch.exact_A(x).value
        brute = acsearch.brute_A(x)
        if brute is not None:
            assert brute.value == exact
            assert brute.witness.uniquely_accepts(x)
        else:
            assert exact > acsearch.DEFAULT_BRUTE_STATE_CAP


def _first_witnesses(max_states: int, max_len: int) -> dict:
    """x -> (q, table, accept state) of the first table, fewest states
    first and then in itertools.product order, with a state that x alone
    reaches among the strings of its length."""
    found = {}
    for q in range(1, max_states + 1):
        for flat in itertools.product(range(q), repeat=2 * q):
            counts, words = [1] + [0] * (q - 1), [""] + [None] * (q - 1)
            for length in range(max_len + 1):
                for t in range(q):
                    if counts[t] == 1:
                        found.setdefault(words[t], (q, flat, t))
                if length == max_len:
                    break
                nxt, nwords = [0] * q, [None] * q
                for s in range(q):
                    if counts[s]:
                        for b in (0, 1):
                            t = flat[2 * s + b]
                            nxt[t] = min(nxt[t] + counts[s], 2)
                            nwords[t] = words[s] + "01"[b]
                counts, words = nxt, nwords
    return found


def test_brute_matches_plain_enumeration():
    found = _first_witnesses(acsearch.DEFAULT_BRUTE_STATE_CAP, 10)
    rng = random.Random(5)
    strings = ["".join(c) for n in range(9) for c in itertools.product("01", repeat=n)]
    strings += ["".join(rng.choice("01") for _ in range(rng.randint(9, 10))) for _ in range(40)]
    strings += [w for w in found if len(w) >= 9][:20]
    for x in strings:
        r = acsearch.brute_A(x)
        if x not in found:
            assert r is None, x
            continue
        q, flat, accept = found[x]
        assert r.value == q, x
        assert r.witness.delta == tuple(zip(flat[::2], flat[1::2])), x
        assert r.witness.accept == frozenset([accept]), x


def test_search_cap():
    with pytest.raises(acsearch.SearchCapExceeded):
        acsearch.exact_A("0" * 25)
    with pytest.raises(acsearch.SearchCapExceeded):
        acsearch.brute_A("0" * 25)


def test_powerfree_lower_bound():
    # 011010011 is cube-free, so A >= (9+1)/3
    assert acsearch.powerfree_lower_bound("011010011", 3) == Fraction(10, 3)
    assert acsearch.powerfree_lower_bound("000", 3) is None


def test_lower_bound_consistent_with_exact():
    x = BitString("0110100110")
    lb = acsearch.powerfree_lower_bound(x, 3)
    if lb is not None:
        assert acsearch.exact_A(x).value >= lb

"""Reference computations written apart from the autoplex package.

The benchmark checks every program output against these.  They share no
code with src/autoplex and follow the textbook definitions instead of the
package's algorithms:

- de Bruijn strings by the recursive Fredricksen-Kessler-Maiorana (FKM)
  construction, where the package uses an iterative Duval successor;
- the zone rule of both sequences, straight from their definitions;
- path counting on a DFA as a numpy DP over the transition table;
- sliding-window word counts and the cyclic de Bruijn check as numpy
  rolling codes, where the package slices strings.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Path counts are float64 so that np.bincount can sum them; every value up
# to 2^52 is exact, and larger counts saturate there.
COUNT_CAP = float(1 << 52)


# -- de Bruijn strings ---------------------------------------------------------


def debruijn_fkm(n: int) -> str:
    """Lexicographically least binary de Bruijn string of order n (FKM).

    Concatenates the Lyndon words whose length divides n, generated by
    the classic recursion db(t, p) over a prenecklace array a[1..n].
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    a = [0] * (n + 1)
    out: list[int] = []

    def db(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        db(t + 1, p)
        for v in range(a[t - p] + 1, 2):
            a[t] = v
            db(t + 1, t)

    db(1, 1)
    return "".join("01"[b] for b in out)


def rotate(s: str, j: int) -> str:
    return s[j:] + s[:j]


def _codes(bits: np.ndarray, k: int) -> np.ndarray:
    """Integer code of every length-k window of a 0/1 array (MSB first)."""
    windows = len(bits) - k + 1
    codes = np.zeros(windows, dtype=np.int64)
    for i in range(k):
        codes = (codes << 1) | bits[i : i + windows]
    return codes


def _to_array(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("0")


def is_debruijn_cyclic(s: str, n: int) -> bool:
    """Every length-n word occurs exactly once in s read cyclically."""
    if n < 1 or len(s) != 1 << n or s.strip("01"):
        return False
    codes = _codes(_to_array(s + s[: n - 1]), n)
    return bool(np.all(np.bincount(codes, minlength=1 << n) == 1))


def window_counts(s: str, k: int) -> dict:
    """Sliding counts of the length-k words of s that occur at least once."""
    counts = np.bincount(_codes(_to_array(s), k), minlength=1 << k)
    return {format(v, f"0{k}b"): int(c) for v, c in enumerate(counts) if c}


def max_share_deviation(counts: dict, k: int) -> Fraction:
    """Worst |count / windows - 2^-k| over all 2^k words."""
    windows = sum(counts.values())
    share = Fraction(1, 1 << k)
    return max(abs(Fraction(counts.get(format(v, f"0{k}b"), 0), windows) - share) for v in range(1 << k))


# -- the Champernowne-style sequence C -----------------------------------------


def psc_zone_length(n: int) -> int:
    return n << n


def psc_cumulative(n: int) -> int:
    """Length of C through zone n, summed term by term."""
    return sum(psc_zone_length(k) for k in range(1, n + 1))


def psc_zone(n: int, d: str | None = None) -> str:
    """Zone n of C: with n = 2^s * t, t odd, the 2^s blocks j = 0..2^s-1,
    each t copies of the left-rotation by j of the order-n de Bruijn string."""
    d = d or debruijn_fkm(n)
    s, t = 0, n
    while t % 2 == 0:
        s, t = s + 1, t // 2
    return "".join(rotate(d, j) * t for j in range(1 << s))


# -- the power sequence T (scaled exponents j^j) --------------------------------


def tseq_debruijn(j: int, d: str | None = None) -> str:
    """Zone j's de Bruijn string: the lex-least one d for even j; for odd j
    its left-rotation to the first 1, which sits at index j."""
    d = d or debruijn_fkm(j)
    return d if j % 2 == 0 else rotate(d, j)


def tseq_cumulative(j: int) -> int:
    return sum((1 << k) * k**k for k in range(1, j + 1))


def tseq_prefix(m: int) -> str:
    parts, total, j = [], 0, 1
    while total < m:
        d = tseq_debruijn(j)
        take = min((1 << j) * j**j, m - total)
        parts.append((d * (take // len(d) + 1))[:take])
        total += take
        j += 1
    return "".join(parts)


# -- automata -----------------------------------------------------------------


def count_paths(delta, start: int, accept, length: int) -> int:
    """Strings of the given length that a total binary DFA accepts.

    delta is a sequence of (target on 0, target on 1) rows.  Counts above
    2^52 saturate there, which still tells 0, 1 and "many" apart exactly.
    """
    table = np.asarray(delta, dtype=np.int64)
    states = len(table)
    counts = np.zeros(states)
    counts[start] = 1.0
    for _ in range(length):
        counts = np.bincount(table[:, 0], weights=counts, minlength=states) + np.bincount(
            table[:, 1], weights=counts, minlength=states
        )
        np.minimum(counts, COUNT_CAP, out=counts)
    return int(sum(counts[q] for q in accept))


def end_state(delta, start: int, s: str) -> int:
    q = start
    for c in s:
        q = delta[q][int(c)]
    return q

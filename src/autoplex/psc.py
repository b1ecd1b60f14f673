"""Champernowne-style zones built from de Bruijn rotations.

Zone n concatenates 2^s blocks, each block being t copies of a cyclic
rotation of a fixed de Bruijn string of order n (n = 2^s * t, t odd), so
that every length-n word occurs exactly once block-aligned in the zone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import debruijn
from .bitstrings import BitString, find_squares, window_codes

DEFAULT_ZONE_CAP = 20


class ZoneTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class ZoneFactorization:
    n: int
    s: int
    t: int


def factorize(n: int) -> ZoneFactorization:
    """Unique n = 2^s * t with t odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = 0
    t = n
    while t % 2 == 0:
        t //= 2
        s += 1
    return ZoneFactorization(n, s, t)


def cumulative_length(n: int) -> int:
    """Length of the prefix through zone n: sum of k*2^k for k = 1..n.

    Closed form (n-1)*2^(n+1) + 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0
    return (n - 1) * (1 << (n + 1)) + 2


class PscSequence:
    """Lazy Champernowne sequence with cached zones and de Bruijn strings.

    The per-order de Bruijn string defaults to the lex-least choice, which
    has prefix 0^n and suffix 1^n; an alternative chooser is injectable.
    The chooser is called at most once per order.
    """

    def __init__(self, zone_cap: int = DEFAULT_ZONE_CAP, debruijn_choice=None):
        self.zone_cap = zone_cap
        self._choice = debruijn_choice or debruijn.generate_lex_least
        self._zones: dict[int, BitString] = {}
        self._debruijn: dict[int, debruijn.DeBruijnString] = {}

    def debruijn_string(self, n: int) -> debruijn.DeBruijnString:
        d = self._debruijn.get(n)
        if d is None:
            d = self._debruijn[n] = self._choice(n)
        return d

    def v_tail(self, n: int) -> BitString:
        """The v_n with d_n = 0^n 1 v_n (requires the 0^n-prefix choice)."""
        d = str(self.debruijn_string(n).bits)
        if d[: n + 1] != "0" * n + "1":
            raise ValueError("de Bruijn choice does not start 0^n 1")
        return BitString(d[n + 1 :])

    def zone(self, n: int) -> BitString:
        """The zone C_n of length n * 2^n."""
        if n > self.zone_cap:
            raise ZoneTooLarge(f"zone {n} exceeds cap {self.zone_cap}")
        cached = self._zones.get(n)
        if cached is not None:
            return cached
        fact = factorize(n)
        d = self.debruijn_string(n)
        parts = []
        for j in range(1 << fact.s):
            parts.append(str(debruijn.rotate(d, j).bits) * fact.t)
        z = BitString("".join(parts))
        assert len(z) == n * (1 << n)
        self._zones[n] = z
        return z

    def bit_at(self, i: int) -> int:
        """Bit i of the infinite sequence, by zone arithmetic alone."""
        if i < 0:
            raise ValueError("index must be >= 0")
        n = 1
        while cumulative_length(n) <= i:
            n += 1
        off = i - cumulative_length(n - 1)
        fact = factorize(n)
        block_len = (1 << n) * fact.t
        j = off // block_len          # which rotated block
        r = (off % block_len) % (1 << n)  # offset within the rotation
        d = str(self.debruijn_string(n).bits)
        return int(d[(j + r) % (1 << n)])

    def prefix(self, m: int) -> BitString:
        """First m bits of the sequence."""
        if m < 0:
            raise ValueError("m must be >= 0")
        parts = []
        n = 1
        total = 0
        while total < m:
            z = str(self.zone(n))
            take = min(len(z), m - total)
            parts.append(z[:take])
            total += take
            n += 1
        return BitString("".join(parts))

    def verify_zone(self, n: int) -> bool:
        """Champernowne property of zone n: each length-n word occurs
        exactly once block-aligned."""
        codes = window_codes(self.zone(n), n, step=n)
        return bool(np.all(np.bincount(codes, minlength=1 << n) == 1))

    def verify_loop_lemma(self, j: int) -> dict:
        """Scan zone j for squares of half-length >= j and report every
        half-length violating the divisibility forced on loops there:
        multiples of 2^j when j is odd, multiples of 2^j - 1 when j is a
        power of two."""
        fact = factorize(j)
        if fact.t == j:  # odd
            modulus = 1 << j
        elif fact.t == 1 and j >= 2:  # power of two
            modulus = (1 << j) - 1
        else:
            raise ValueError("no divisibility claim for j neither odd nor a power of 2")
        squares = find_squares(self.zone(j), min_half=j)
        lengths = sorted({l for _, l in squares})
        violations = [l for l in lengths if l % modulus != 0]
        return {
            "j": j,
            "modulus": modulus,
            "half_lengths": lengths,
            "violations": violations,
            "ok": not violations,
        }


_default = PscSequence()

zone = _default.zone
bit_at = _default.bit_at
prefix = _default.prefix
v_tail = _default.v_tail
verify_zone = _default.verify_zone
verify_loop_lemma = _default.verify_loop_lemma

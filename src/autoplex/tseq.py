"""The layered de Bruijn power sequence T = d_1^f(1) d_2^f(2) ...

Zone j repeats a de Bruijn string of order j whose first bit is 1 for odd
j and 0 for even j, so consecutive zones start with different bits.  Two
exponent regimes are supported:

* exact -- f(1) = 2 and f(j) = L^L with L the total length of the first
  j-1 zones.  The values explode: f(4) already has an astronomical digit
  count, so exact zone arithmetic is representable only through j = 3.
* scaled -- f(j) = j^j, which satisfies the same normality hypothesis at
  desk scale.  This is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import debruijn
from .bitstrings import BitString

EXACT_MAX_ZONE = 3


class Unrepresentable(OverflowError):
    """Raised for exact-mode quantities whose digit count is itself huge."""


def _start_bit(j: int) -> int:
    return 1 if j % 2 == 1 else 0


@dataclass(frozen=True)
class TParams:
    mode: str = "scaled"  # "scaled" | "exact"
    debruijn_cap: int = debruijn.DEFAULT_ORDER_CAP

    def __post_init__(self):
        if self.mode not in ("scaled", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")


SCALED = TParams("scaled")
EXACT = TParams("exact")


@lru_cache(maxsize=None)
def _exact_lengths(j: int) -> tuple[int, int]:
    """(f(j), cumulative length through zone j) in exact mode."""
    if j > EXACT_MAX_ZONE:
        raise Unrepresentable(
            f"exact-mode f({j}) is not representable (its digit count is astronomical)"
        )
    if j == 1:
        f = 2
    else:
        prev = _exact_lengths(j - 1)[1]
        f = prev**prev
    cum = (0 if j == 1 else _exact_lengths(j - 1)[1]) + (1 << j) * f
    return f, cum


def exponent(j: int, params: TParams = SCALED) -> int:
    if j < 1:
        raise ValueError("j must be >= 1")
    if params.mode == "scaled":
        return j**j
    return _exact_lengths(j)[0]


def zone_length(j: int, params: TParams = SCALED) -> int:
    return (1 << j) * exponent(j, params)


def cumulative_length(j: int, params: TParams = SCALED) -> int:
    if j < 0:
        raise ValueError("j must be >= 0")
    if j == 0:
        return 0
    if params.mode == "scaled":
        return sum((1 << k) * k**k for k in range(1, j + 1))
    return _exact_lengths(j)[1]


def zone_length_digits(j: int, params: TParams = SCALED) -> int:
    """Decimal digit count of |T_j|; for exact mode past zone 3 an upper
    estimate from digit counts alone (exact evaluation is infeasible)."""
    try:
        return len(str(zone_length(j, params)))
    except Unrepresentable:
        # |T_j| = 2^j * L^L with L = cumulative_length(j-1); digits(L^L)
        # is within L of L*(digits(L)-1) from below and L*digits(L) above.
        prev = cumulative_length(j - 1, params)
        return len(str(1 << j)) + prev * len(str(prev))


@lru_cache(maxsize=32)
def debruijn_for_zone(j: int, params: TParams = SCALED) -> debruijn.DeBruijnString:
    """The de Bruijn string of zone j (cached: the strings are immutable)."""
    return debruijn.generate_with_start_bit(j, _start_bit(j), cap=params.debruijn_cap)


def bit_at(i: int, params: TParams = SCALED) -> int:
    """Bit i of T, located by zone arithmetic."""
    if i < 0:
        raise ValueError("index must be >= 0")
    j = 1
    while cumulative_length(j, params) <= i:
        j += 1
    off = i - cumulative_length(j - 1, params)
    d = str(debruijn_for_zone(j, params).bits)
    return int(d[off % (1 << j)])


def prefix(m: int, params: TParams = SCALED) -> BitString:
    """First m bits of T."""
    if m < 0:
        raise ValueError("m must be >= 0")
    parts: list[str] = []
    total = 0
    j = 1
    while total < m:
        d = str(debruijn_for_zone(j, params).bits)
        zlen = zone_length(j, params)
        take = min(zlen, m - total)
        reps, rem = divmod(take, len(d))
        parts.append(d * reps + d[:rem])
        total += take
        j += 1
    return BitString("".join(parts))

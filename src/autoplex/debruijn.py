"""Binary de Bruijn strings: generation, verification, rotation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstrings import BitString, window_codes

DEFAULT_ORDER_CAP = 24


class OrderTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class DeBruijnString:
    """A de Bruijn string of the given order, remembered with its rotation
    relative to the lexicographically least representative."""

    order: int
    bits: BitString
    rotation: int = 0

    def __post_init__(self):
        if len(self.bits) != 1 << self.order:
            raise ValueError("length must be 2^order")

    def __str__(self) -> str:
        return str(self.bits)


def generate_lex_least(n: int, cap: int = DEFAULT_ORDER_CAP) -> DeBruijnString:
    """Lexicographically least de Bruijn string of order n.

    Concatenates, in lexicographic order, the Lyndon words over {0,1} whose
    length divides n (iterative Duval successor, O(n) working space per
    word).  The result starts with 0^n and ends with 1^n.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > cap:
        raise OrderTooLarge(f"order {n} exceeds cap {cap}")
    out: list[str] = []
    w = "0"
    while w:
        if n % len(w) == 0:
            out.append(w)
        # Duval successor: extend w periodically to length n, strip the
        # maximal symbol 1 from the tail, bump the last remaining symbol.
        w = (w * (n // len(w) + 1))[:n].rstrip("1")
        if w:
            w = w[:-1] + "1"
    return DeBruijnString(n, BitString("".join(out)), 0)


def _debruijn_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """For each row of a (m, 2^n) 0/1 array, whether every length-n word
    occurs exactly once in it read cyclically."""
    m, size = rows.shape
    codes = window_codes(np.concatenate([rows, rows[:, : n - 1]], axis=1), n)
    # offset each row's codes into its own range, so one bincount counts all rows
    codes += np.arange(m, dtype=np.int64)[:, None] * size
    counts = np.bincount(codes.ravel(), minlength=m * size).reshape(m, size)
    return np.all(counts == 1, axis=1)


def is_debruijn(u: BitString, n: int) -> bool:
    """True iff |u| = 2^n and every length-n word occurs exactly once
    in u read cyclically."""
    if n < 1 or len(u) != 1 << n:
        return False
    return bool(_debruijn_rows(BitString(u).to_array()[None, :], n)[0])


def rotate(d: DeBruijnString, j: int) -> DeBruijnString:
    """Left-rotation by j positions."""
    size = 1 << d.order
    if not 0 <= j < size:
        raise ValueError(f"rotation {j} out of range [0, {size})")
    s = str(d.bits)
    return DeBruijnString(d.order, BitString(s[j:] + s[:j]), (d.rotation + j) % size)


def generate_with_start_bit(n: int, b: int, cap: int = DEFAULT_ORDER_CAP) -> DeBruijnString:
    """A de Bruijn string of order n whose first bit is b.

    For b = 0 this is the lex-least string; for b = 1 it is its
    left-rotation by n (the lex-least string's first 1 sits at index n).
    """
    if b not in (0, 1):
        raise ValueError("start bit must be 0 or 1")
    d = generate_lex_least(n, cap=cap)
    if b == 0:
        return d
    return rotate(d, n)


def all_debruijn(n: int) -> list[BitString]:
    """Every de Bruijn string of order n, by exhaustive check.  Tiny n only."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > 4:
        raise OrderTooLarge("exhaustive enumeration is limited to n <= 4")
    size = 1 << n
    # every candidate string at once, one per row, in increasing order
    values = np.arange(1 << size, dtype=np.int64)[:, None]
    rows = ((values >> np.arange(size - 1, -1, -1)) & 1).astype(np.uint8)
    return [BitString(format(int(v), f"0{size}b")) for v in np.flatnonzero(_debruijn_rows(rows, n))]

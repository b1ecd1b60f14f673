"""Binary string kernel: storage, window codes, repetition detection.

The BitString type is the carrier for every sequence fragment in this
package.  Internally it wraps an ASCII '0'/'1' string, which keeps slicing
and substring comparison in C; the external contract is index-level access.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import numpy as np

BitsLike = Union["BitString", str, Iterable[int]]


class BitString:
    """Immutable finite word over {0,1}."""

    __slots__ = ("_s",)

    def __init__(self, bits: BitsLike = ""):
        if isinstance(bits, BitString):
            s = bits._s
        elif isinstance(bits, str):
            s = bits
        else:
            s = "".join("1" if b else "0" for b in bits)
        if s.strip("01"):
            raise ValueError("bits must contain only '0' and '1'")
        self._s = s

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BitString(self._s[i])
        return int(self._s[i])

    def __iter__(self) -> Iterator[int]:
        return (int(c) for c in self._s)

    def __eq__(self, other) -> bool:
        if isinstance(other, BitString):
            return self._s == other._s
        if isinstance(other, str):
            return self._s == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._s)

    def __add__(self, other: BitsLike) -> "BitString":
        return BitString(self._s + BitString(other)._s)

    def __mul__(self, k: int) -> "BitString":
        return BitString(self._s * k)

    def __str__(self) -> str:
        return self._s

    def __repr__(self) -> str:
        if len(self._s) <= 40:
            return f"BitString({self._s!r})"
        return f"BitString({self._s[:37]!r}..., len={len(self._s)})"

    # -- conversions ---------------------------------------------------

    def to_array(self) -> np.ndarray:
        return np.frombuffer(self._s.encode("ascii"), dtype=np.uint8) - ord("0")


def _coerce(x: BitsLike) -> BitString:
    return x if isinstance(x, BitString) else BitString(x)


# -- counting ------------------------------------------------------------


def window_codes(x: Union[BitsLike, np.ndarray], k: int, step: int = 1) -> np.ndarray:
    """Integer code (MSB first) of each length-k window of x, as int64.

    step=1 gives every sliding window; step=k gives the block-aligned
    windows x[0:k], x[k:2k], ... (a trailing partial block is dropped).
    x is a bit string, or a 0/1 array whose last axis holds the bits, in
    which case the codes of each row come back along the last axis.
    """
    if not 1 <= k <= 62:
        raise ValueError("k must satisfy 1 <= k <= 62")
    if step not in (1, k):
        raise ValueError("step must be 1 or k")
    a = x if isinstance(x, np.ndarray) else _coerce(x).to_array()
    if step == 1:
        count = max(a.shape[-1] - k + 1, 0)
        columns = [a[..., i : i + count] for i in range(k)]
    else:
        count = a.shape[-1] // k
        blocks = a[..., : count * k].reshape(*a.shape[:-1], count, k)
        columns = [blocks[..., i] for i in range(k)]
    codes = np.zeros(a.shape[:-1] + (count,), dtype=np.int64)
    for col in columns:
        codes <<= 1
        codes |= col
    return codes


# -- repetitions ----------------------------------------------------------


def find_squares(x: BitsLike, min_half: int = 1) -> list[tuple[int, int]]:
    """All (i, l) with l >= min_half and x[i..i+l-1] == x[i+l..i+2l-1].

    Scans one half-length at a time over a numpy self-match mask; the
    per-length pass is linear, so the whole scan is O(|x|^2) bit
    comparisons in vectorized form.  Sorted by (i, l).
    """
    x = _coerce(x)
    if min_half < 1:
        raise ValueError("min_half must be >= 1")
    n = len(x)
    out: list[tuple[int, int]] = []
    if n < 2 * min_half:
        return out
    a = x.to_array()
    for l in range(min_half, n // 2 + 1):
        eq = (a[:-l] == a[l:]).astype(np.int64)
        # position i starts a square of half l iff eq[i:i+l] is all ones
        window = np.convolve(eq, np.ones(l, dtype=np.int64), mode="valid")
        for i in np.nonzero(window == l)[0]:
            out.append((int(i), l))
    out.sort()
    return out


def is_k_power_free(x: BitsLike, k: int) -> bool:
    """True iff no substring of x is u^k for a nonempty u."""
    if k < 2:
        raise ValueError("k must be >= 2")
    x = _coerce(x)
    n = len(x)
    if n < k:
        return True
    a = x.to_array()
    for p in range(1, n // k + 1):
        # u^k with |u| = p exists iff some window of (k-1)*p consecutive
        # positions i satisfies x[i] == x[i+p]
        eq = (a[:-p] == a[p:]).astype(np.int64)
        need = (k - 1) * p
        if len(eq) < need:
            continue
        window = np.convolve(eq, np.ones(need, dtype=np.int64), mode="valid")
        if np.any(window == need):
            return False
    return True

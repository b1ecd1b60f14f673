"""Exact automatic complexity by canonical search, with a brute-force oracle.

A(x) is the least number of states of a total binary DFA accepting x and
nothing else of length |x|.  Both routes fix the accept set to the state
reached on x, which never breaks unique acceptance (shrinking the accept
set removes accepted strings but keeps x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .automata import Dfa
from .bitstrings import BitString, BitsLike, is_k_power_free

DEFAULT_SEARCH_CAP = 18
DEFAULT_BRUTE_LEN_CAP = 10
DEFAULT_BRUTE_STATE_CAP = 4


@dataclass(frozen=True)
class ComplexityResult:
    value: int
    witness: Dfa


class SearchCapExceeded(ValueError):
    pass


# -- canonical search ------------------------------------------------------


def _partial_count(delta, q: int, accept: int, bits, cap: int = 2) -> int:
    """Length-|bits| paths from state 0 to accept using assigned edges only.

    Monotone in the edge set, so > 1 here prunes every completion.
    """
    counts = [0] * q
    counts[0] = 1
    for _ in bits:
        nxt = [0] * q
        for s in range(q):
            c = counts[s]
            if c:
                for b in (0, 1):
                    t = delta[s][b]
                    if t >= 0:
                        nxt[t] = min(nxt[t] + c, cap)
        counts = nxt
    return counts[accept]


def _complete(delta, q: int, accept: int, bits) -> list | None:
    """Try to wire the unassigned transitions so exactly one length-|bits|
    string is accepted.  Returns the completed table or None."""
    unassigned = [(s, b) for s in range(q) for b in (0, 1) if delta[s][b] < 0]

    # If some non-accepting state is fully free, make it absorbing and send
    # every other loose edge there: no path through a loose edge can then
    # reach the accept state, so the count equals the walk-edge count (1).
    for dstate in range(q):
        if dstate != accept and delta[dstate][0] < 0 and delta[dstate][1] < 0:
            done = [row[:] for row in delta]
            for s, b in unassigned:
                done[s][b] = dstate
            return done

    # Otherwise every state already carries walk edges; at most q loose
    # edges remain.  Depth-first over their targets with count pruning.
    def rec(i: int):
        if i == len(unassigned):
            return [row[:] for row in delta]
        s, b = unassigned[i]
        for t in range(q):
            delta[s][b] = t
            if _partial_count(delta, q, accept, bits) <= 1:
                found = rec(i + 1)
                if found is not None:
                    delta[s][b] = -1
                    return found
            delta[s][b] = -1
        return None

    return rec(0)


def _search_q(bits: list[int], q: int) -> Dfa | None:
    """First q-state witness in canonical enumeration order, if any.

    The walk of x through the machine is enumerated directly: states are
    numbered by first visit, a (state, bit) pair once assigned stays
    fixed, and the accept set is pinned to the walk's final state.
    """
    L = len(bits)
    delta = [[-1, -1] for _ in range(q)]
    walk = [0]

    def rec(i: int, used: int):
        if i == L:
            accept = walk[-1]
            if _partial_count(delta, q, accept, bits) != 1:
                return None
            done = _complete(delta, q, accept, bits)
            if done is None:
                return None
            return Dfa(
                states=q,
                start=0,
                accept=frozenset([accept]),
                delta=tuple(tuple(row) for row in done),
            )
        s, b = walk[-1], bits[i]
        t = delta[s][b]
        if t >= 0:
            walk.append(t)
            found = rec(i + 1, used)
            walk.pop()
            return found
        limit = min(used + 1, q)
        for t in range(limit):
            delta[s][b] = t
            walk.append(t)
            found = rec(i + 1, used + 1 if t == used else used)
            walk.pop()
            delta[s][b] = -1
            if found is not None:
                return found
        return None

    return rec(0, 1)


def exact_A(x: BitsLike, max_states: int | None = None, cap: int = DEFAULT_SEARCH_CAP) -> ComplexityResult:
    """Exact automatic complexity with a certified witness."""
    x = BitString(x)
    if len(x) > cap:
        raise SearchCapExceeded(f"|x| = {len(x)} exceeds search cap {cap}")
    bits = list(x)
    hi = max_states if max_states is not None else len(x) + 2
    for q in range(1, hi + 1):
        dfa = _search_q(bits, q)
        if dfa is not None:
            return ComplexityResult(q, dfa)
    raise SearchCapExceeded(f"no witness with at most {hi} states")


# -- brute-force oracle ------------------------------------------------------


@lru_cache(maxsize=None)
def _tables(q: int) -> np.ndarray:
    """Every q-state transition table as a row (t_0 on 0, t_0 on 1, t_1 on
    0, ...), in itertools.product order: the last column varies fastest."""
    tables = np.indices((q,) * (2 * q), dtype=np.uint8).reshape(2 * q, -1).T.copy()
    tables.flags.writeable = False
    return tables


# _saturated_counts(q, L) for L = 0, 1, ..., filled on demand per q.
_COUNTS: dict[int, list[np.ndarray]] = {}


def _saturated_counts(q: int, length: int) -> np.ndarray:
    """Length-`length` path counts from state 0 to each state, saturated
    at 2, for every table of _tables(q) (rows) and state (columns).

    They depend on q and the length only, not on the string, so every
    string of that length shares them; each length is derived from the
    one before.  A step sums at most 2q counts of at most 2, so uint8
    never overflows before saturating.
    """
    tables = _tables(q)
    per_len = _COUNTS.setdefault(q, [])
    while len(per_len) <= length:
        counts = np.zeros((len(tables), q), dtype=np.uint8)
        if not per_len:
            counts[:, 0] = 1
        else:
            prev = per_len[-1]
            for t in range(q):
                for col in range(2 * q):
                    counts[:, t] += prev[:, col // 2] * (tables[:, col] == t)
            np.minimum(counts, 2, out=counts)
        counts.flags.writeable = False
        per_len.append(counts)
    return per_len[length]


def _brute_q(bits: list[int], q: int) -> Dfa | None:
    """First q-state table, in itertools.product order, whose state
    reached on bits is reached by no other string of that length."""
    tables = _tables(q)
    rows = np.arange(len(tables))
    end = np.zeros(len(tables), dtype=np.uint8)
    for b in bits:
        end = tables[rows, 2 * end + b]
    unique = np.flatnonzero(_saturated_counts(q, len(bits))[rows, end] == 1)
    if len(unique) == 0:
        return None
    flat = tables[unique[0]].tolist()
    delta = tuple(zip(flat[::2], flat[1::2]))
    return Dfa(states=q, start=0, accept=frozenset([int(end[unique[0]])]), delta=delta)


def brute_A(
    x: BitsLike,
    max_states: int = DEFAULT_BRUTE_STATE_CAP,
    len_cap: int = DEFAULT_BRUTE_LEN_CAP,
) -> ComplexityResult | None:
    """Minimum-state witness by full enumeration, or None if every machine
    with at most max_states states fails."""
    x = BitString(x)
    if len(x) > len_cap:
        raise SearchCapExceeded(f"|x| = {len(x)} exceeds brute length cap {len_cap}")
    bits = list(x)
    for q in range(1, max_states + 1):
        dfa = _brute_q(bits, q)
        if dfa is not None:
            return ComplexityResult(q, dfa)
    return None


# -- lower bound -------------------------------------------------------------


def powerfree_lower_bound(x: BitsLike, k: int) -> Fraction | None:
    """(|x|+1)/k when x contains no k-power; None when the bound does not apply."""
    x = BitString(x)
    if not is_k_power_free(x, k):
        return None
    return Fraction(len(x) + 1, k)

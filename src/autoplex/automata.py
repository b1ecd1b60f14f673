"""Total binary DFAs: execution, exact acceptance counting, unique acceptance."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bitstrings import BitString, BitsLike


@dataclass(frozen=True)
class Dfa:
    """Total DFA over {0,1}.  delta[q] = (target on 0, target on 1)."""

    states: int
    start: int
    accept: frozenset
    delta: tuple

    def __post_init__(self):
        if not 0 <= self.start < self.states:
            raise ValueError("start state out of range")
        if len(self.delta) != self.states:
            raise ValueError("delta must have one row per state")
        for row in self.delta:
            if len(row) != 2 or not all(0 <= t < self.states for t in row):
                raise ValueError("transition target out of range")
        if not all(0 <= q < self.states for q in self.accept):
            raise ValueError("accept state out of range")

    # -- execution -------------------------------------------------------

    def run(self, x: BitsLike) -> int:
        q = self.start
        delta = self.delta
        for b in BitString(x):
            q = delta[q][b]
        return q

    def accepts(self, x: BitsLike) -> bool:
        return self.run(x) in self.accept

    def count_accepted(self, n: int, cap: int | None = None) -> int:
        """|L(M) intersect {0,1}^n|, exact.

        The count runs backwards from the accept set: after k steps, v[s]
        is the number of length-k strings leading from s into an accept
        state, and each step gathers v along both transition columns.
        With cap set, counts saturate there (enough to decide uniqueness
        cheaply).  Counts are int64 while a step provably cannot overflow,
        Python ints after that.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if cap is not None and cap < 1:
            raise ValueError("cap must be >= 1")
        t0, t1 = np.array(self.delta, dtype=np.intp).T
        v = np.zeros(self.states, dtype=np.int64)
        v[list(self.accept)] = 1
        left = n
        while left:
            if v.dtype == object:
                steps = left
            else:
                # a step at most doubles the largest count, so int64 has
                # room for 62 - bit_length(largest) more steps
                top = cap if cap is not None else int(v.max())
                steps = min(left, 62 - top.bit_length())
                if steps < 1:
                    v = v.astype(object)
                    continue
            for _ in range(steps):
                v = v[t0] + v[t1]
                if cap is not None:
                    np.minimum(v, cap, out=v)
            left -= steps
        return int(v[self.start])

    def uniquely_accepts(self, x: BitsLike) -> bool:
        x = BitString(x)
        return self.accepts(x) and self.count_accepted(len(x), cap=2) == 1

    # -- interchange -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "states": self.states,
                "start": self.start,
                "accept": sorted(self.accept),
                "delta": [list(row) for row in self.delta],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Dfa":
        """Parse to_json's format.  Every state must be a JSON integer (not
        a boolean or a float); anything else raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("a DFA must be a JSON object")
        missing = [k for k in ("states", "start", "accept", "delta") if k not in obj]
        if missing:
            raise ValueError(f"DFA JSON lacks {', '.join(missing)}")
        accept, delta = obj["accept"], obj["delta"]
        if not isinstance(accept, list):
            raise ValueError("accept must be a list of states")
        if not isinstance(delta, list) or not all(isinstance(row, list) and len(row) == 2 for row in delta):
            raise ValueError("delta must be a list of [target on 0, target on 1] rows")
        values = [obj["states"], obj["start"], *accept, *(t for row in delta for t in row)]
        if not all(type(v) is int for v in values):
            raise ValueError("states, start, accept and delta must hold integers")
        return cls(
            states=obj["states"],
            start=obj["start"],
            accept=frozenset(accept),
            delta=tuple(tuple(row) for row in delta),
        )

"""Linear Diophantine machinery for loop-length acceptance equations.

Two-variable equations get the full integer solution family via the
extended gcd; multi-variable loop equations with positive coefficients
get exhaustive nonnegative enumeration over the (finite) bounded region.
"""

from __future__ import annotations

from dataclasses import dataclass

# enumerate_nonneg gives up past this many search nodes; the largest
# certification equation in the package (build_Mhat(compact=True)) takes
# 14,711
MAX_NODES = 10**6


@dataclass(frozen=True)
class DioCertificate:
    """An equation constant + sum(coeff_i * v_i) = target, with per-variable
    lower bounds and its exhaustively enumerated solution set."""

    coefficients: tuple
    constant: int
    target: int
    bounds: tuple
    solutions: tuple

    def __post_init__(self):
        for sol in self.solutions:
            total = self.constant + sum(c * v for c, v in zip(self.coefficients, sol))
            if total != self.target:
                raise ValueError(f"listed tuple {sol} does not satisfy the equation")
            if any(v < lo for v, lo in zip(sol, self.bounds)):
                raise ValueError(f"listed tuple {sol} violates a lower bound")

    @property
    def unique(self) -> bool:
        return len(self.solutions) == 1


def solve_two(a: int, b: int, c: int) -> dict | None:
    """Integer solutions of a*x + b*y = c as {base, step}, or None.

    Every solution is base + d*step for integer d, with step = (b/g, -a/g)
    and g = gcd(a, b); no solutions exist iff g does not divide c.
    """
    if a == 0 and b == 0:
        raise ValueError("(a, b) must not be (0, 0)")
    g, x0, y0 = _ext_gcd(a, b)
    if c % g != 0:
        return None
    k = c // g
    return {"base": (x0 * k, y0 * k), "step": (b // g, -a // g)}


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def enumerate_nonneg(
    coefficients,
    constant: int,
    target: int,
    bounds=None,
) -> DioCertificate:
    """All bounded-below integer solutions, in lexicographic order.

    Positive coefficients make the region finite: variable i ranges over
    [bound_i, (target - constant - committed) / coeff_i], with the partial
    sum pruning deeper branches.  Raises ValueError once the search
    visits more than MAX_NODES nodes.
    """
    coefficients = tuple(int(c) for c in coefficients)
    if any(c <= 0 for c in coefficients):
        raise ValueError("coefficients must be positive")
    if bounds is None:
        bounds = (0,) * len(coefficients)
    bounds = tuple(int(b) for b in bounds)
    if len(bounds) != len(coefficients):
        raise ValueError("one lower bound per coefficient")

    slack = target - constant
    solutions: list[tuple] = []
    current: list[int] = []
    nodes = 0

    def rec(i: int, remaining: int):
        nonlocal nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise ValueError(f"enumeration exceeds {MAX_NODES} search nodes")
        if i == len(coefficients):
            if remaining == 0:
                solutions.append(tuple(current))
            return
        c = coefficients[i]
        lo = bounds[i]
        if remaining < c * lo:
            return
        if i == len(coefficients) - 1:
            v, r = divmod(remaining, c)
            if r == 0 and v >= lo:
                solutions.append(tuple(current) + (v,))
            return
        for v in range(lo, remaining // c + 1):
            current.append(v)
            rec(i + 1, remaining - c * v)
            current.pop()

    if slack >= 0 or not coefficients:
        rec(0, slack)
    return DioCertificate(
        coefficients=coefficients,
        constant=constant,
        target=target,
        bounds=bounds,
        solutions=tuple(sorted(solutions)),
    )

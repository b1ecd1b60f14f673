"""Empirical normality statistics and exact rate-bound series.

Frequency reports measure sliding-window word counts against the uniform
share 2^-k.  Rate profiles attach an exact rational upper bound on
A(prefix)/(len+1) to each prefix length, using exact search for tiny
prefixes and the witness builders beyond.  Bound series evaluate the
closed-form ratio expressions exactly; their limits are never asserted,
only finite-n trends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import acsearch, psc, tseq, witness
from .bitstrings import BitString, BitsLike

EXACT_PROFILE_CAP = 14


@dataclass(frozen=True)
class FrequencyReport:
    k: int
    window_count: int
    counts: dict
    max_deviation: Fraction


@dataclass(frozen=True)
class RatePoint:
    m: int
    bound: Fraction
    source: str


def frequency_report(x: BitsLike, k: int) -> FrequencyReport:
    """Sliding counts of all length-k words and the worst deviation of
    their frequency from 2^-k."""
    s = str(BitString(x))
    if not 1 <= k <= len(s):
        raise ValueError("k must satisfy 1 <= k <= |x|")
    windows = len(s) - k + 1
    counts = Counter(s[i : i + k] for i in range(windows))
    share = Fraction(1, 1 << k)
    worst = Fraction(0)
    for v in range(1 << k):
        word = format(v, f"0{k}b")
        dev = abs(Fraction(counts.get(word, 0), windows) - share)
        worst = max(worst, dev)
    return FrequencyReport(k=k, window_count=windows, counts=dict(counts), max_deviation=worst)


def rate_profile(source: str, m_values, params: tseq.TParams = tseq.SCALED) -> list:
    """Exact rational upper bounds on A(prefix(m))/(m+1) per m.

    Tiny prefixes use the exact search; longer ones use the best
    applicable witness builder for the zone containing position m, or
    the plain chain machine where no case machine is certified.
    """
    if source not in ("psc", "tseq"):
        raise ValueError("source must be 'psc' or 'tseq'")
    points = []
    for m in m_values:
        if m < 1:
            raise ValueError("m must be >= 1")
        if m <= EXACT_PROFILE_CAP:
            prefix = psc.prefix(m) if source == "psc" else tseq.prefix(m, params)
            value = acsearch.exact_A(prefix).value
            points.append(RatePoint(m, Fraction(value, m + 1), "exact"))
            continue
        if source == "tseq":
            n = 1
            while tseq.cumulative_length(n + 1, params) <= m:
                n += 1
            cum = tseq.cumulative_length(n, params)
            w = m - cum
            states = tseq.cumulative_length(n - 1, params) + (1 << n) + w + 1
            points.append(RatePoint(m, Fraction(states, m + 1), f"M{1 if w == 0 else 2}(n={n})"))
        else:
            n = 1
            while psc.cumulative_length(n + 2) <= m:
                n += 1
            p_len = m - psc.cumulative_length(n + 1)
            if witness.case_certified(n, p_len):
                spec = witness.build_case(witness.case_for(n), n, p_len)
                points.append(RatePoint(m, Fraction(spec.state_count, m + 1), spec.name))
            else:
                # m + 1 chain states spelling the prefix, plus a dead state
                points.append(RatePoint(m, Fraction(m + 2, m + 1), f"chain(m={m})"))
    return points


def _sup1(n: int) -> Fraction:
    f = tseq.exponent(n, tseq.SCALED)
    w = (1 << n) * (f - 1) + (1 << (n + 1))
    num = tseq.cumulative_length(n - 1, tseq.SCALED) + (1 << n) + w + 1
    den = tseq.cumulative_length(n, tseq.SCALED) + w
    return Fraction(num, den)


def _case3(n: int) -> Fraction:
    cb = psc.cumulative_length
    half_next = Fraction(n + 2, 2) * (1 << (n + 2))
    num = cb(n) + n + (1 << (n + 1)) + 1 + half_next
    den = cb(n + 1) - Fraction(n, 3) + 1 + half_next
    return Fraction(num, den)


def _case1_limit(n: int) -> Fraction:
    cb = psc.cumulative_length
    half_next = Fraction(n + 2, 2) * (1 << (n + 2))
    num = cb(n) + 1 + n + (1 << (n + 1)) + half_next
    den = cb(n + 1) - n + (1 << n) * (n - 1) + half_next
    return Fraction(num, den)


def _case2_limit(n: int) -> Fraction:
    cb = psc.cumulative_length
    num = cb(n) + 2 + 2 * n + (1 << (n + 1)) + (1 << (n + 2))
    den = cb(n + 1) + 2 + n + (1 << n) * (n - 1) + (1 << (n + 2))
    return Fraction(num, den)


def _case4_limit(n: int) -> Fraction:
    cb = psc.cumulative_length
    t = Fraction(n + 1, 2)
    num = cb(n) + Fraction(4 * n, 3) + (1 << (n + 1)) * t + (1 << (n + 2))
    den = cb(n + 1) + Fraction(n, 3) + (1 << n) * (n - 1) + (1 << (n + 2))
    return Fraction(num, den)


def _ic_quarter(n: int) -> Fraction:
    cb = psc.cumulative_length
    num = cb(n - 1) + 2 * n + (1 << n) + (1 << (n + 1))
    return Fraction(num, cb(n + 1))


_SERIES = {
    "sup1": _sup1,
    "case3": _case3,
    "case1_limit": _case1_limit,
    "case2_limit": _case2_limit,
    "case4_limit": _case4_limit,
    "ic_quarter": _ic_quarter,
}


def bound_series(which: str, n_values) -> list:
    """Exact rational values of the named closed-form bound at each n."""
    try:
        fn = _SERIES[which]
    except KeyError:
        raise ValueError(f"unknown series {which!r}; choose from {sorted(_SERIES)}")
    return [fn(n) for n in n_values]


def rate_points_csv(points) -> str:
    """CSV rendering: m,bound_num,bound_den,bound_decimal,source."""
    lines = ["m,bound_num,bound_den,bound_decimal,source"]
    for pt in points:
        b = Fraction(pt.bound)
        lines.append(f"{pt.m},{b.numerator},{b.denominator},{float(b):.10f},{pt.source}")
    return "\n".join(lines) + "\n"

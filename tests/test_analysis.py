from fractions import Fraction

import pytest

from autoplex import analysis, psc, tseq
from autoplex.automata import Dfa


def test_frequency_report_golden():
    r = analysis.frequency_report("0101", 1)
    assert r.window_count == 4
    assert r.counts == {"0": 2, "1": 2}
    assert r.max_deviation == 0
    r = analysis.frequency_report("0000", 2)
    assert r.counts["00"] == 3
    assert r.max_deviation == Fraction(3, 3) - Fraction(1, 4)


def test_frequency_report_missing_word_drives_deviation():
    r = analysis.frequency_report("0011", 2)
    assert "10" not in r.counts
    # an unseen word still counts against the deviation
    assert r.max_deviation >= Fraction(1, 4)


def test_frequency_report_validation():
    with pytest.raises(ValueError):
        analysis.frequency_report("01", 3)
    with pytest.raises(ValueError):
        analysis.frequency_report("01", 0)


def test_rate_profile_exact_region():
    pts = analysis.rate_profile("psc", [6, 10])
    for p in pts:
        assert p.source == "exact"
        assert 0 < p.bound <= 1


def test_rate_profile_witness_region_psc():
    (p,) = analysis.rate_profile("psc", [psc.cumulative_length(7) + 3])
    assert p.source.startswith("case")
    assert p.bound < Fraction(3, 4)


def test_rate_profile_psc_falls_back_to_chain():
    # no case machine is certified at zone 1, so m = 20 is backed by the
    # chain spelling the prefix plus a dead state
    (p,) = analysis.rate_profile("psc", [20])
    assert p.source == "chain(m=20)"
    assert p.bound == Fraction(22, 21)
    x = str(psc.prefix(20))
    delta = [(i + 1, 21) if b == "0" else (21, i + 1) for i, b in enumerate(x)]
    chain = Dfa(states=22, start=0, accept=frozenset([20]), delta=tuple(delta + [(21, 21), (21, 21)]))
    assert chain.uniquely_accepts(x)
    # zone 2 keeps its case machine for p_len <= 2 only
    sources = [pt.source for pt in analysis.rate_profile("psc", [36, 37, 97, 98])]
    assert sources == ["case1(n=2,p=2)", "chain(m=37)", "chain(m=97)", "case2(n=3,p=0)"]


def test_rate_profile_witness_region_tseq():
    m = tseq.cumulative_length(4) + 5
    (p,) = analysis.rate_profile("tseq", [m])
    assert "n=4" in p.source
    want = Fraction(tseq.cumulative_length(3) + 16 + 5 + 1, m + 1)
    assert p.bound == want


def test_rate_profile_rejects_unknown_source():
    with pytest.raises(ValueError):
        analysis.rate_profile("pi", [10])


def test_bound_series_values():
    vals = analysis.bound_series("case3", range(6, 80, 2))
    assert all(v > Fraction(2, 3) for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    at50 = analysis.bound_series("case3", [50])[0]
    assert abs(at50 - Fraction(2, 3)) < Fraction(1, 100)


def test_bound_series_limits_are_close():
    for which, limit in [
        ("case1_limit", Fraction(4, 7)),
        ("case2_limit", Fraction(2, 5)),
        ("case4_limit", Fraction(3, 5)),
    ]:
        val = analysis.bound_series(which, [60])[0]
        assert abs(val - limit) < Fraction(1, 100)


def test_bound_series_unknown():
    with pytest.raises(ValueError):
        analysis.bound_series("nope", [4])


def test_rate_points_csv():
    pts = analysis.rate_profile("psc", [6])
    text = analysis.rate_points_csv(pts)
    lines = text.strip().splitlines()
    assert lines[0] == "m,bound_num,bound_den,bound_decimal,source"
    assert lines[1].startswith("6,")

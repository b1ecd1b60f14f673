from fractions import Fraction

import pytest

from autoplex import analysis, psc, tseq, witness


def test_segment_and_spec_validation():
    with pytest.raises(ValueError):
        witness.Segment("spiral", "x", 1, 1)
    with pytest.raises(ValueError):
        witness.Segment("loop", "x", 2, 3, bits="010")


def test_m1_state_count_formula():
    for n in (2, 3, 4):
        spec = witness.build_M1(n)
        want = tseq.cumulative_length(n - 1) + (1 << n) + 1
        assert spec.state_count == want
        assert spec.target_len == tseq.cumulative_length(n)


def test_m1_materializes_uniquely():
    for n in (2, 3):
        spec = witness.build_M1(n)
        dfa = witness.materialize(spec)
        assert dfa.states == spec.state_count
        assert dfa.uniquely_accepts(spec.accepted_string())


def test_m1_acceptance_equation_unique():
    for n in (2, 3, 4):
        cert = witness.acceptance_length_equation(witness.build_M1(n))
        assert cert.unique


def test_m2_extends_m1():
    n, w = 3, 5
    spec = witness.build_M2(n, w)
    assert spec.state_count == witness.build_M1(n).state_count + w
    assert spec.target_len == tseq.cumulative_length(n) + w
    dfa = witness.materialize(spec)
    x = spec.accepted_string()
    assert str(x) == str(tseq.prefix(len(x)))
    assert dfa.uniquely_accepts(x)
    assert witness.acceptance_length_equation(spec).unique


def test_m2_rejects_bad_w():
    with pytest.raises(ValueError):
        witness.build_M2(3, 0)
    with pytest.raises(ValueError):
        witness.build_M2(2, 10**9)


def test_case_for():
    assert witness.case_for(4) == 1  # power of two
    assert witness.case_for(3) == 2  # n+1 a power of two
    assert witness.case_for(6) == 3  # even, not a power of two
    assert witness.case_for(5) == 4  # odd with n+1 not a power of two


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_case_constructions_certified(n):
    case_id = witness.case_for(n)
    for p_len in (0, 1, n, n + 2, 3 * n):
        spec = witness.build_case(case_id, n, p_len)
        assert spec.state_count <= witness.case_state_bound(case_id, n, p_len)
        x = spec.accepted_string()
        assert len(x) == psc.cumulative_length(n + 1) + p_len
        assert str(x) == str(psc.prefix(len(x)))
        cert = witness.acceptance_length_equation(spec)
        assert cert.unique
        dfa = witness.materialize(spec)
        assert dfa.uniquely_accepts(x)


def test_case_rejects_wrong_case_or_p():
    with pytest.raises(ValueError):
        witness.build_case(1, 3)
    with pytest.raises(ValueError):
        witness.build_case(2, 3, p_len=-1)
    with pytest.raises(ValueError):
        witness.build_case(2, 3, p_len=(5 << 5))


def test_case_refuses_uncertified_zones():
    # these machines accept 2-3 strings of the target length
    for p_len in (0, 5, 23):
        with pytest.raises(ValueError):
            witness.build_case(1, 1, p_len)
    for p_len in (3, 4, 63):
        with pytest.raises(ValueError):
            witness.build_case(1, 2, p_len)
    for p_len in (0, 1, 2):
        spec = witness.build_case(1, 2, p_len)
        assert witness.materialize(spec).uniquely_accepts(spec.accepted_string())


def test_symbolic_bounds_hold_large():
    # state counts stay within the closed-form bounds even where no bits fit
    for n in (10, 40, 100):
        case_id = witness.case_for(n)
        spec = witness.build_case(case_id, n, p_len=7)
        assert spec.state_count <= witness.case_state_bound(case_id, n, 7)
        assert witness.acceptance_length_equation(spec).unique


def test_materialize_rejects_chain_after_chain():
    spec = witness.WitnessSpec(
        name="two chains",
        segments=(
            witness.Segment("chain", "a", 2, 2, bits="01"),
            witness.Segment("chain", "b", 2, 2, bits="10"),
        ),
        accept_segment=1,
        accept_offset=0,
        target_len=4,
    )
    with pytest.raises(ValueError, match="chains may not follow chains"):
        witness.materialize(spec)


def test_materialize_budget():
    spec = witness.build_case(witness.case_for(6), 6)
    with pytest.raises(ValueError):
        witness.materialize(spec, max_states=10)


def test_mhat_full_variant():
    spec = witness.build_Mhat()
    cert = witness.acceptance_length_equation(spec)
    assert cert.unique
    assert cert.solutions == ((2, 3, 9, 13),)
    assert spec.target_len == psc.cumulative_length(65)


def test_mhat_compact_variant_counts_states_only():
    compact = witness.build_Mhat(compact=True)
    quoted = (
        psc.cumulative_length(61)
        + 31 * (1 << 62)
        + 7 * (1 << 63)
        + 8 * (1 << 64)
        + 5 * (1 << 65)
        + 120
    )
    assert compact.state_count == quoted
    # the shorter middle loop admits extra walk lengths
    assert len(witness.acceptance_length_equation(compact).solutions) == 3


# (n, p_len, state_count, loop_lengths, repeats per segment, accept_segment,
# accept_offset) for p_len 0, 1 and the largest certified p_len
CASE_STRUCTURE = [
    (2, 0, 18, (3, 8), (1, 2, 1, 2), 3, 5),
    (2, 1, 18, (3, 8), (1, 2, 1, 2), 3, 6),
    (2, 2, 18, (3, 8), (1, 2, 1, 2), 3, 7),
    (3, 0, 37, (8, 15), (1, 3, 1, 4), 3, 0),
    (3, 1, 38, (8, 15), (1, 3, 1, 4, 1), 4, 0),
    (3, 159, 196, (8, 15), (1, 3, 1, 4, 1), 4, 0),
    (4, 0, 90, (15, 32), (1, 4, 1, 4), 3, 27),
    (4, 1, 90, (15, 32), (1, 4, 1, 4), 3, 28),
    (4, 383, 468, (15, 32), (1, 4, 1, 5, 1), 4, 0),
    (5, 0, 327, (32, 191), (1, 5, 1, 1), 3, 187),
    (5, 1, 327, (32, 191), (1, 5, 1, 1), 3, 188),
    (5, 895, 1218, (32, 191), (1, 5, 1, 2, 1), 4, 0),
    (6, 0, 586, (191, 128), (1, 2, 1, 6), 3, 121),
    (6, 1, 586, (191, 128), (1, 2, 1, 6), 3, 122),
    (6, 2047, 2626, (191, 128), (1, 2, 1, 7, 1), 4, 0),
    (7, 0, 1033, (128, 255), (1, 7, 1, 8), 3, 0),
    (7, 1, 1034, (128, 255), (1, 7, 1, 8, 1), 4, 0),
    (7, 4607, 5640, (128, 255), (1, 7, 1, 8, 1), 4, 0),
    (8, 0, 2322, (255, 512), (1, 8, 1, 8), 3, 503),
    (8, 1, 2322, (255, 512), (1, 8, 1, 8), 3, 504),
    (8, 10239, 12552, (255, 512), (1, 8, 1, 9, 1), 4, 0),
    (9, 0, 9227, (512, 5119), (1, 9, 1, 1), 3, 5111),
    (9, 1, 9227, (512, 5119), (1, 9, 1, 1), 3, 5112),
    (9, 22527, 31746, (512, 5119), (1, 9, 1, 2, 1), 4, 0),
]


@pytest.mark.parametrize("n, p_len, states, loops, repeats, seg, offset", CASE_STRUCTURE)
def test_case_structure_pinned(n, p_len, states, loops, repeats, seg, offset):
    spec = witness.build_case(witness.case_for(n), n, p_len)
    assert spec.state_count == states
    assert spec.loop_lengths == loops
    assert tuple(s.repeats for s in spec.segments) == repeats
    assert (spec.accept_segment, spec.accept_offset) == (seg, offset)
    assert spec.target_len == psc.cumulative_length(n + 1) + p_len


def test_rate_profile_pinned_at_zone_9():
    (point,) = analysis.rate_profile("psc", [40961])
    assert (point.bound, point.source) == (Fraction(5291, 6827), "case4(n=9,p=22527)")

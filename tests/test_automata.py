import pytest
from hypothesis import given, strategies as st

from autoplex.automata import Dfa


def two_state_zeros():
    # accepts 0^n only: state 1 is absorbing dead
    return Dfa(states=2, start=0, accept=frozenset([0]), delta=((0, 1), (1, 1)))


def test_run_and_accepts():
    m = two_state_zeros()
    assert m.accepts("0000")
    assert not m.accepts("0100")
    assert m.run("01") == 1


def test_count_accepted_exact():
    m = two_state_zeros()
    for n in range(6):
        assert m.count_accepted(n) == 1
    # a one-state machine accepts everything
    full = Dfa(states=1, start=0, accept=frozenset([0]), delta=((0, 0),))
    assert full.count_accepted(5) == 32


def test_count_accepted_exact_past_int64():
    full = Dfa(states=1, start=0, accept=frozenset([0]), delta=((0, 0),))
    assert full.count_accepted(70) == 2**70
    assert full.count_accepted(70, cap=2) == 2
    # half of all strings end in a 1
    ends_in_one = Dfa(states=2, start=0, accept=frozenset([1]), delta=((0, 1), (0, 1)))
    assert ends_in_one.count_accepted(200) == 2**199


def test_count_conservation():
    # totality conserves total path mass at 2^n
    m = Dfa(states=3, start=0, accept=frozenset([0, 1, 2]), delta=((1, 2), (0, 2), (2, 0)))
    for n in range(8):
        assert m.count_accepted(n) == 1 << n


def test_uniquely_accepts():
    m = two_state_zeros()
    assert m.uniquely_accepts("000")
    assert not m.uniquely_accepts("001")
    full = Dfa(states=1, start=0, accept=frozenset([0]), delta=((0, 0),))
    assert not full.uniquely_accepts("00")


def test_validation():
    with pytest.raises(ValueError):
        Dfa(states=2, start=2, accept=frozenset(), delta=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Dfa(states=2, start=0, accept=frozenset([5]), delta=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Dfa(states=2, start=0, accept=frozenset(), delta=((0, 3), (0, 0)))


def test_json_roundtrip():
    m = two_state_zeros()
    again = Dfa.from_json(m.to_json())
    assert again == m


@pytest.mark.parametrize(
    "text",
    [
        '{"states": true, "start": 0, "accept": [0], "delta": [[0, 0]]}',
        '{"states": 1, "start": 0, "accept": [0], "delta": [[0.0, 0]]}',
        '{"states": 1, "start": 0, "accept": [false], "delta": [[0, 0]]}',
        '[{"states": 1, "start": 0, "accept": [0], "delta": [[0, 0]]}]',
        '{"states": 1, "start": 0, "accept": [0]}',
        '{"states": 1, "start": 0, "accept": 0, "delta": [[0, 0]]}',
        '{"states": 1, "start": 0, "accept": [0], "delta": [[0, 0, 0]]}',
        '{"states": 0, "start": 0, "accept": [], "delta": []}',
        "not json",
    ],
)
def test_from_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Dfa.from_json(text)


@given(st.integers(1, 4), st.data())
def test_capped_count_agrees_on_uniqueness(q, data):
    delta = tuple(
        (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))) for _ in range(q)
    )
    accept = frozenset(data.draw(st.sets(st.integers(0, q - 1), max_size=q)))
    m = Dfa(states=q, start=0, accept=accept, delta=delta)
    n = data.draw(st.integers(0, 8))
    exact = m.count_accepted(n)
    capped = m.count_accepted(n, cap=2)
    assert capped == min(exact, 2)


def _paths(m, n):
    """Reference count: forward path counts in Python ints."""
    counts = [0] * m.states
    counts[m.start] = 1
    for _ in range(n):
        nxt = [0] * m.states
        for q, c in enumerate(counts):
            for t in m.delta[q]:
                nxt[t] += c
        counts = nxt
    return sum(counts[q] for q in m.accept)


@given(st.integers(1, 5), st.data())
def test_count_matches_loop_reference(q, data):
    delta = tuple(
        (data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))) for _ in range(q)
    )
    accept = frozenset(data.draw(st.sets(st.integers(0, q - 1), max_size=q)))
    m = Dfa(states=q, start=data.draw(st.integers(0, q - 1)), accept=accept, delta=delta)
    # lengths on both sides of where counts outgrow int64
    n = data.draw(st.integers(0, 130))
    exact = _paths(m, n)
    assert m.count_accepted(n) == exact
    assert m.count_accepted(n, cap=5) == min(exact, 5)

"""Chain-and-loop witness automata realizing complexity upper bounds.

A WitnessSpec describes a DFA as an alternation of chains and loops plus
one dead state.  Specs are symbolic-first: state counts and acceptance
equations are exact big-integer arithmetic at any scale, while concrete
bits are attached only when small enough to materialize into a Dfa.

State accounting: a loop owns its cycle states; the initial chain owns
one state per bit (its last edge enters the first loop's root); a chain
between two loops owns one state fewer than its bits (both endpoints are
loop roots); a final chain owns one state per bit, ending at the
accepting state.  The dead state adds one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dio, psc, tseq
from .automata import Dfa
from .bitstrings import BitString

DEFAULT_BITS_CAP = 1 << 21
DEFAULT_STATE_BUDGET = 1 << 21


@dataclass(frozen=True)
class Segment:
    """One structural piece of a witness automaton.

    length counts the states the segment owns; bits_len counts the bits
    read (per traversal for loops).  repeats records the full traversals
    the accepting walk makes of a loop.  bits holds the concrete label
    when the spec is materializable.
    """

    kind: str  # "chain" | "loop"
    label: str
    length: int
    bits_len: int
    repeats: int = 1
    bits: str | None = None

    def __post_init__(self):
        if self.kind not in ("chain", "loop"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind == "loop" and (self.length < 1 or self.length != self.bits_len):
            raise ValueError("a loop owns exactly one state per bit")
        if self.repeats < 0 or self.bits_len < 0:
            raise ValueError("lengths and repeats must be nonnegative")
        if self.bits is not None and len(self.bits) != self.bits_len:
            raise ValueError("bits do not match bits_len")


@dataclass(frozen=True)
class WitnessSpec:
    name: str
    segments: tuple
    accept_segment: int
    accept_offset: int  # 0 = loop root or chain end
    target_len: int
    includes_dead_state: bool = True

    @property
    def state_count(self) -> int:
        return sum(seg.length for seg in self.segments) + 1

    @property
    def loop_lengths(self) -> tuple:
        return tuple(s.bits_len for s in self.segments if s.kind == "loop")

    def accepted_string(self) -> BitString:
        """The target string spelled by the accepting walk (bits required)."""
        parts = []
        for i, seg in enumerate(self.segments[: self.accept_segment + 1]):
            if seg.bits is None:
                raise ValueError("spec is symbolic-only; no bits attached")
            if seg.kind == "chain":
                parts.append(seg.bits)
            else:
                parts.append(seg.bits * seg.repeats)
                if i == self.accept_segment and self.accept_offset:
                    parts.append(seg.bits[: self.accept_offset])
        out = BitString("".join(parts))
        if len(out) != self.target_len:
            raise ValueError("walk length does not match target_len")
        return out


# -- equation ----------------------------------------------------------------


def acceptance_length_equation(spec: WitnessSpec, target_len: int | None = None) -> dio.DioCertificate:
    """Lengths of accepted strings as a linear Diophantine equation.

    One variable per loop counts its entries; chains contribute to the
    constant.  An accepting state strictly inside a loop forces at least
    one entry and shifts the constant by offset - loop_length.
    """
    if target_len is None:
        target_len = spec.target_len
    constant = 0
    coefficients = []
    bounds = []
    for i, seg in enumerate(spec.segments[: spec.accept_segment + 1]):
        if seg.kind == "chain":
            constant += seg.bits_len
        else:
            coefficients.append(seg.bits_len)
            bounds.append(0)
            if i == spec.accept_segment and spec.accept_offset:
                bounds[-1] = 1
                constant += spec.accept_offset - seg.bits_len
    if not coefficients:
        raise ValueError("spec has no loop before the accepting state")
    return dio.enumerate_nonneg(coefficients, constant, target_len, bounds)


# -- materialization -----------------------------------------------------------


def materialize(spec: WitnessSpec, max_states: int = DEFAULT_STATE_BUDGET) -> Dfa:
    """Explicit total Dfa for a spec with attached bits.

    All off-construction transitions go to the dead state; conflicting
    on-construction transitions (e.g. a loop and its exit chain starting
    with the same bit at the root) are rejected.
    """
    total = spec.state_count
    if total > max_states:
        raise ValueError(f"state count {total} exceeds budget {max_states}")
    if any(seg.bits is None for seg in spec.segments):
        raise ValueError("spec is symbolic-only; no bits attached")
    if any(a.kind == b.kind == "chain" for a, b in zip(spec.segments, spec.segments[1:])):
        raise ValueError("chains may not follow chains in a witness spec")

    starts = []
    nid = 0
    for seg in spec.segments:
        starts.append(nid)
        nid += seg.length
    dead = nid

    delta = [[None, None] for _ in range(total)]

    def set_edge(s: int, bit: str, t: int):
        b = int(bit)
        if delta[s][b] is not None and delta[s][b] != t:
            raise ValueError(
                f"determinism violation at state {s} on bit {bit}: "
                "two construction edges disagree"
            )
        delta[s][b] = t

    prev_root = None
    for i, seg in enumerate(spec.segments):
        base = starts[i]
        if seg.kind == "loop":
            for k in range(seg.bits_len):
                set_edge(base + k, seg.bits[k], base + (k + 1) % seg.bits_len)
            prev_root = base
            continue
        m = seg.bits_len
        if i == 0:
            # initial chain: owns m states, last edge enters the next root
            path = list(range(base, base + m)) + [starts[i + 1]]
        elif seg.length == m - 1:
            # chain between two loops: endpoints are the neighboring roots
            path = [prev_root] + list(range(base, base + m - 1)) + [starts[i + 1]]
        else:
            # final chain: leaves the previous root, owns all m states
            path = [prev_root] + list(range(base, base + m))
        for k in range(m):
            set_edge(path[k], seg.bits[k], path[k + 1])

    for row in delta:
        if row[0] is None:
            row[0] = dead
        if row[1] is None:
            row[1] = dead
    delta[dead] = [dead, dead]

    seg = spec.segments[spec.accept_segment]
    base = starts[spec.accept_segment]
    if seg.kind == "loop":
        accept = base + spec.accept_offset
    else:
        accept = base + seg.length - 1

    dfa = Dfa(states=total, start=0, accept=frozenset([accept]), delta=tuple(tuple(r) for r in delta))
    if dfa.run(spec.accepted_string()) != accept:
        raise ValueError("accepting walk does not reach the accepting state")
    return dfa


# -- sequence-T witnesses ------------------------------------------------------


def build_M1(n: int, params: tseq.TParams = tseq.SCALED, bits_cap: int = DEFAULT_BITS_CAP) -> WitnessSpec:
    """Chain for the prefix through zone n-1, loop for the zone-n de Bruijn
    string, accepting at the loop root."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prev = tseq.cumulative_length(n - 1, params)
    f = tseq.exponent(n, params)
    size = 1 << n
    with_bits = prev + size <= bits_cap
    chain_bits = str(tseq.prefix(prev, params)) if with_bits and prev else None
    loop_bits = str(tseq.debruijn_for_zone(n, params).bits) if with_bits else None
    segments = []
    if prev:
        segments.append(Segment("chain", f"zones 1..{n - 1}", prev, prev, bits=chain_bits))
    segments.append(Segment("loop", f"d_{n}", size, size, repeats=f, bits=loop_bits))
    return WitnessSpec(
        name=f"M1(n={n},{params.mode})",
        segments=tuple(segments),
        accept_segment=len(segments) - 1,
        accept_offset=0,
        target_len=tseq.cumulative_length(n, params),
    )


def build_M2(
    n: int,
    w_len: int,
    params: tseq.TParams = tseq.SCALED,
    bits_cap: int = DEFAULT_BITS_CAP,
) -> WitnessSpec:
    """M1 plus an exit chain reading the w_len bits following zone n."""
    f = tseq.exponent(n, params)
    w_max = (1 << n) * (f - 1) + (1 << (n + 1))
    if not 1 <= w_len <= w_max:
        raise ValueError(f"w_len must be in [1, {w_max}]")
    base = build_M1(n, params, bits_cap=bits_cap)
    cum = tseq.cumulative_length(n, params)
    w_bits = None
    if base.segments[-1].bits is not None and cum + w_len <= bits_cap:
        w_bits = str(tseq.prefix(cum + w_len, params))[cum:]
    else:
        base = build_M1(n, params, bits_cap=0)
    exit_seg = Segment("chain", f"w (len {w_len})", w_len, w_len, bits=w_bits)
    return WitnessSpec(
        name=f"M2(n={n},w={w_len},{params.mode})",
        segments=base.segments + (exit_seg,),
        accept_segment=len(base.segments),
        accept_offset=0,
        target_len=cum + w_len,
    )


# -- Champernowne witnesses ----------------------------------------------------


def case_for(n: int) -> int:
    """Which two-loop construction applies at zone n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n & (n - 1) == 0:
        return 1
    if n % 2 == 0:
        return 3
    if (n + 1) & n == 0:
        return 2
    return 4


def case_state_bound(case_id: int, n: int, p_len: int = 0) -> int:
    """Closed-form upper bound on the case machine's state count."""
    cb = psc.cumulative_length(n - 1)
    if case_id == 1:
        return cb + 1 + 2 * n + (1 << n) + (1 << (n + 1)) + p_len
    if case_id == 2:
        return cb + n + (1 << n) + (1 << (n + 1)) + p_len
    if case_id == 3:
        fact = psc.factorize(n)
        return cb + n + (1 << n) * fact.t + (1 << fact.s) + (1 << (n + 1)) + p_len
    if case_id == 4:
        t2 = psc.factorize(n + 1).t
        return cb + n + (1 << n) + (1 << (n + 1)) * t2 + p_len
    raise ValueError("case_id must be 1..4")


def case_certified(n: int, p_len: int) -> bool:
    """Whether build_case(case_for(n), n, p_len) uniquely accepts its target.

    At zone 1 the accepting walk does not spell the prefix of C, and at
    zone 2 past p_len = 2 the acceptance equation gains a second
    solution.  From zone 3 on the machines are witnesses (checked at
    every p_len through zone 6).
    """
    return n >= 3 or (n == 2 and p_len <= 2)


def _case_shape(case_id: int, n: int) -> tuple:
    """How the case machine reads zones n and q = n+1, with n = 2^s t and
    q = 2^s' t' (t, t' odd).

    Returns (a, z, traversals) of loop 1 = 1 v_n d_n^a 0^z, the k of the
    middle chain 0^k, (a', z', full traversals) of loop 2 =
    1 v_q d_q^a' 0^z', and how far short of loop 2's root the zone-q walk
    stops.
    """
    q = n + 1
    fact, fact_q = psc.factorize(n), psc.factorize(q)
    return {
        1: ((0, n - 1, n), q, (0, q, n), q),
        2: ((0, n, n), 1, (0, n, n), 0),
        3: ((fact.t - 1, n - 1, 1 << fact.s), (1 << fact.s) + 1, (0, q, n), q),
        # the zone-q walk runs past the zone boundary into the zeros
        # opening the next zone
        4: ((0, n, n), 1, (fact_q.t - 1, n, (1 << fact_q.s) - 1), q - (1 << fact_q.s)),
    }[case_id]


def build_case(
    case_id: int,
    n: int,
    p_len: int = 0,
    seq: psc.PscSequence | None = None,
    bits_cap: int = DEFAULT_BITS_CAP,
) -> WitnessSpec:
    """Two-loop machine accepting the prefix through zone n+1 plus p_len
    further bits, with loops exploiting the zone-n and zone-(n+1) powers."""
    if case_id != case_for(n):
        raise ValueError(f"zone {n} requires the case-{case_for(n)} construction")
    q = n + 1
    if not 0 <= p_len < (n + 2) * (1 << (n + 2)):
        raise ValueError("p_len out of range for the following zone")
    if not case_certified(n, p_len):
        raise ValueError(f"no case-{case_id} witness at zone {n} with p_len {p_len}")
    seq = seq or psc._default
    cb = psc.cumulative_length
    with_bits = q + 1 <= seq.zone_cap and cb(q + 1) <= bits_cap

    def segment(kind, label, length, bits_len, bits, repeats=1):
        # bits is a thunk, resolved only when the spec is materializable
        return Segment(kind, label, length, bits_len, repeats, bits() if with_bits else None)

    def loop(m, a, z, repeats):
        # 1 v_m d_m^a 0^z, where d_m = 0^m 1 v_m, so 1 v_m has 2^m - m bits
        size = ((a + 1) << m) - m + z
        bits = lambda: "1" + str(seq.v_tail(m)) + str(seq.debruijn_string(m).bits) * a + "0" * z
        return segment("loop", f"1 v_{m} d_{m}^{a} 0^{z}", size, size, bits, repeats)

    (a1, z1, traversals), k, (a2, z2, full), short = _case_shape(case_id, n)
    x0 = cb(n - 1) + n
    segments = [
        segment("chain", f"zones 1..{n - 1} plus 0^{n}", x0, x0, lambda: str(seq.prefix(cb(n - 1))) + "0" * n),
        loop(n, a1, z1, traversals),
        segment("chain", f"0^{k}", k - 1, k, lambda: "0" * k),
    ]
    # after `full` traversals of loop 2 the zone-q walk stops `short` bits
    # before its root; p runs on from there, onto an exit chain past the root
    if p_len < short:
        segments.append(loop(q, a2, z2, full))
        offset = segments[-1].length - short + p_len
    else:
        segments.append(loop(q, a2, z2, full + 1))
        offset = 0
        if p_len > short:
            tail = p_len - short
            segments.append(segment("chain", f"tail of p (len {tail})", tail, tail,
                                    lambda: str(seq.zone(q + 1))[short:p_len]))
    return WitnessSpec(
        name=f"case{case_id}(n={n},p={p_len})",
        segments=tuple(segments),
        accept_segment=len(segments) - 1,
        accept_offset=offset,
        target_len=cb(q) + p_len,
    )


def build_Mhat(compact: bool = False) -> WitnessSpec:
    """Four-loop machine for the prefix through zone 65 (symbolic only).

    The zone-63 loop holds 21 copies of its period by default, which is
    what unique acceptance requires (the equation then has exactly one
    solution).  compact=True shrinks that loop to 7 copies: the machine
    still accepts the target and its state count matches the smaller
    four-loop total, but its acceptance equation gains extra solutions,
    so it does not uniquely accept.
    """
    cb = psc.cumulative_length
    copies = 7 if compact else 21
    segments = (
        Segment("chain", "zones 1..61 plus 0^62", cb(61) + 62, cb(61) + 62),
        Segment("loop", "1 v_62 d_62^30 0^61", 31 * (1 << 62) - 1, 31 * (1 << 62) - 1, repeats=2),
        Segment("chain", "0^3", 2, 3),
        Segment("loop", f"(1 v_63 0^63)^{copies}", copies << 63, copies << 63, repeats=63 // copies),
        Segment("chain", "0 1 v_64 0^63", (1 << 64) - 1, 1 << 64),
        Segment("loop", "(1 v_64 0^63)^7", 7 * ((1 << 64) - 1), 7 * ((1 << 64) - 1), repeats=9),
        Segment("chain", "0^65", 64, 65),
        Segment("loop", "(1 v_65 0^65)^5", 5 << 65, 5 << 65, repeats=12),
    )
    return WitnessSpec(
        name="Mhat" + ("-compact" if compact else ""),
        segments=segments,
        accept_segment=7,
        accept_offset=(5 << 65) - 65,
        target_len=cb(65),
    )

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

    def entry(i: int) -> int:
        seg = spec.segments[i]
        if seg.kind == "loop":
            return starts[i]
        raise ValueError("chains may not follow chains in a witness spec")

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
            path = list(range(base, base + m)) + [entry(i + 1)]
            src = path[0]
        elif seg.length == m - 1:
            # chain between two loops: endpoints are the neighboring roots
            path = [prev_root] + list(range(base, base + m - 1)) + [entry(i + 1)]
            src = prev_root
        else:
            # final chain: leaves the previous root, owns all m states
            path = [prev_root] + list(range(base, base + m))
            src = prev_root
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
    target = cb(q) + p_len

    with_bits = q + 1 <= seq.zone_cap and cb(q + 1) <= bits_cap
    if with_bits:
        vn = str(seq.v_tail(n))
        vq = str(seq.v_tail(q))
        dn = str(seq.debruijn_string(n).bits)
        dq = str(seq.debruijn_string(q).bits)
        p_bits = str(seq.zone(q + 1))[:p_len]
        x0_bits = str(seq.prefix(cb(n - 1))) + "0" * n
    else:
        vn = vq = dn = dq = p_bits = x0_bits = None

    def chain(label, bits_len, length, bits):
        if bits is not None and len(bits) != bits_len:
            raise ValueError("resolved bits disagree with the factorization")
        return Segment("chain", label, length, bits_len, bits=bits if with_bits else None)

    def loop(label, bits, bits_len, repeats):
        return Segment("loop", label, bits_len, bits_len, repeats=repeats, bits=bits if with_bits else None)

    x0 = chain(f"zones 1..{n - 1} plus 0^{n}", cb(n - 1) + n, cb(n - 1) + n, x0_bits)
    fact = psc.factorize(n)
    fact_q = psc.factorize(q)
    if case_id == 1:
        l1 = loop(f"1 v_{n} 0^{n - 1}", None if not with_bits else "1" + vn + "0" * (n - 1), (1 << n) - 1, n)
        x1 = chain(f"0^{q}", q, q - 1, None if not with_bits else "0" * q)
        l2_bits = None if not with_bits else "1" + vq + "0" * q
        l2_len = 1 << q
        overrun = 0
    elif case_id == 2:
        l1 = loop(f"1 v_{n} 0^{n}", None if not with_bits else "1" + vn + "0" * n, 1 << n, n)
        x1 = chain("0", 1, 0, None if not with_bits else "0")
        l2_bits = None if not with_bits else "1" + vq + "0" * n
        l2_len = (1 << q) - 1
        overrun = 0
    elif case_id == 3:
        l1 = loop(
            f"1 v_{n} d_{n}^{fact.t - 1} 0^{n - 1}",
            None if not with_bits else "1" + vn + dn * (fact.t - 1) + "0" * (n - 1),
            (1 << n) * fact.t - 1,
            1 << fact.s,
        )
        x1 = chain(f"0^{(1 << fact.s) + 1}", (1 << fact.s) + 1, 1 << fact.s, None if not with_bits else "0" * ((1 << fact.s) + 1))
        l2_bits = None if not with_bits else "1" + vq + "0" * q
        l2_len = 1 << q
        overrun = 0
    elif case_id == 4:
        l1 = loop(f"1 v_{n} 0^{n}", None if not with_bits else "1" + vn + "0" * n, 1 << n, n)
        x1 = chain("0", 1, 0, None if not with_bits else "0")
        l2_bits = None if not with_bits else "1" + vq + dq * (fact_q.t - 1) + "0" * n
        l2_len = (1 << q) * fact_q.t - 1
        # the last traversal runs past the zone boundary into the zeros
        # opening the next zone
        overrun = q - (1 << fact_q.s)
    else:
        raise ValueError("case_id must be 1..4")

    segments = [x0, l1, x1]
    l2_label = f"zone-{q} loop (len {l2_len})"
    if case_id == 2:
        # the zone-(n+1) walk ends exactly at the root after q traversals,
        # so any p is read on the exit chain
        segments.append(Segment("loop", l2_label, l2_len, l2_len, repeats=q, bits=l2_bits))
        if p_len == 0:
            accept_segment, accept_offset = len(segments) - 1, 0
        else:
            segments.append(Segment("chain", f"p (len {p_len})", p_len, p_len, bits=p_bits))
            accept_segment, accept_offset = len(segments) - 1, 0
        return WitnessSpec(
            name=f"case{case_id}(n={n},p={p_len})",
            segments=tuple(segments),
            accept_segment=accept_segment,
            accept_offset=accept_offset,
            target_len=target,
        )

    if case_id in (1, 3):
        # the zone-(n+1) walk: n full traversals, then the partial pass
        # covering the zone's closing 1 v block and up to q more zeros
        base_off = l2_len - q
        full = n
    else:
        base_off = l2_len - overrun
        full = (1 << fact_q.s) - 1

    off = base_off + p_len
    if off < l2_len:
        segments.append(Segment("loop", l2_label, l2_len, l2_len, repeats=full, bits=l2_bits))
        accept_segment, accept_offset = len(segments) - 1, off
    elif off == l2_len:
        segments.append(Segment("loop", l2_label, l2_len, l2_len, repeats=full + 1, bits=l2_bits))
        accept_segment, accept_offset = len(segments) - 1, 0
    else:
        exit_len = off - l2_len
        segments.append(Segment("loop", l2_label, l2_len, l2_len, repeats=full + 1, bits=l2_bits))
        exit_bits = None
        if with_bits:
            skip = p_len - exit_len
            exit_bits = p_bits[skip:]
        segments.append(Segment("chain", f"tail of p (len {exit_len})", exit_len, exit_len, bits=exit_bits))
        accept_segment, accept_offset = len(segments) - 1, 0

    return WitnessSpec(
        name=f"case{case_id}(n={n},p={p_len})",
        segments=tuple(segments),
        accept_segment=accept_segment,
        accept_offset=accept_offset,
        target_len=target,
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

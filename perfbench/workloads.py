"""The benchmark's two workloads.

Each workload yields rounds of operations.  An operation's run() makes
the program calls, each through the tracer under its layer's name, and is
what the benchmark times.  Its check() compares the outputs with the
reference computations (untimed) and returns False when the program's own
certificate reports that the operation did not achieve its goal.  A
disagreement with a reference raises Mismatch.

Every round of a workload holds the same operations, so the share of
failed operations is fixed.  The timed operations of a round are of one
kind and graded in size, in steps smaller than the shared machine's
swing between its fast and slow spells (about 1.75x): the latencies of a
run then have no gap for the median to jump across, and the median moves
with the machine as smoothly as the mean does.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, NamedTuple

import reference as ref
from autoplex import acsearch, analysis, debruijn, psc, tseq, witness


class Mismatch(AssertionError):
    """A program output disagrees with the reference computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Op(NamedTuple):
    kind: str
    run: Callable  # tracer -> result; the timed part
    check: Callable  # result -> False if the operation failed
    # False for a correctness probe: attempted and checked, but left out
    # of every time and throughput figure.
    timed: bool = True


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _check_witness(x: str, res) -> None:
    """A witness for A(x) = value: value states, accepts x, and no other
    string of length |x| (independent path count)."""
    d = res.witness
    expect(d.states == res.value, f"witness for {x} has {d.states} states, value {res.value}")
    expect(ref.end_state(d.delta, d.start, x) in d.accept, f"witness rejects {x}")
    n = ref.count_paths(d.delta, d.start, d.accept, len(x))
    expect(n == 1, f"witness for {x} accepts {n} strings of length {len(x)}")


# Reference results are computed once per run and shared by the checks.
_ref_debruijn = lru_cache(maxsize=None)(ref.debruijn_fkm)
_tseq_prefix = lru_cache(maxsize=None)(ref.tseq_prefix)


@lru_cache(maxsize=None)
def _ref_zone(n: int) -> str:
    return ref.psc_zone(n, _ref_debruijn(n))


@lru_cache(maxsize=None)
def _ref_prefix(n: int) -> str:
    """C through zone n."""
    return "".join(_ref_zone(k) for k in range(1, n + 1))


def _psc_prefix(m: int) -> str:
    n = 1
    while ref.psc_cumulative(n) < m:
        n += 1
    return _ref_prefix(n)[:m]


# -- certify ------------------------------------------------------------------

BRUTE_STATES = 4
# String lengths of the random groups of one round.
STRING_GROUPS = ((7, 8), (7, 9), (8, 9), (7, 8, 9), (8, 9, 9), (7, 8, 9, 9))
M_FAMILY = tuple((f, n) for n in range(1, 5) for f in ("M1", "M2"))
# The machine groups of one round: (family, n) of each machine, where
# family is "case" (build_case at zone n), "M1" or "M2".
MACHINE_GROUPS = (
    (("case", 2), ("case", 3), ("case", 4), ("case", 5), ("M1", 4)),
    (("case", 6), ("M2", 4)),
    (("case", 6), ("case", 5), ("M1", 4)),
    M_FAMILY,
    (("case", 6), ("case", 6), ("M2", 4)),
    (("case", 7),),
)
# build_case inputs whose machines are not witnesses (see Certify).
KNOWN_FAULTS = ((1, 1, 0), (1, 2, 3))


def _cross_check(tr, strings):
    out = []
    for x in strings:
        b = tr.layer("acsearch.brute_A", acsearch.brute_A, x, max_states=BRUTE_STATES)
        if b is not None:
            tr.count("acsearch.brute_A.decided", 1)
        out.append((b, tr.layer("acsearch.exact_A", acsearch.exact_A, x)))
    return out


def _check_cross(strings, results) -> None:
    for x, (b, e) in zip(strings, results):
        _check_witness(x, e)
        if b is None:
            expect(e.value > BRUTE_STATES, f"brute gave up on {x} but A = {e.value}")
        else:
            expect(b.value == e.value, f"brute {b.value} != exact {e.value} on {x}")
            _check_witness(x, b)


def _certify(tr, build, args, bound=None):
    spec = tr.layer("witness.build", build, *args)
    s = tr.layer("witness.accepted_string", spec.accepted_string)
    dfa = tr.layer("witness.materialize", witness.materialize, spec)
    tr.count("witness.materialize.states", dfa.states)
    unique = tr.layer("automata.uniquely_accepts", dfa.uniquely_accepts, s)
    tr.count("automata.dp_cells", dfa.states * len(s))
    cert = tr.layer("dio.equation", witness.acceptance_length_equation, spec)
    tr.count("dio.solutions", len(cert.solutions))
    return spec, s, dfa, unique, cert, bound


def _check_machine(machine, prefix) -> bool:
    """Both certificates agree with the reference path count; a machine
    they certify spells the sequence prefix within its state bound.
    False when the certificates reject the machine."""
    spec, s, dfa, unique, cert, bound = machine
    n = ref.count_paths(dfa.delta, dfa.start, dfa.accept, len(s))
    expect(n == len(cert.solutions), f"{spec.name}: {n} accepted strings, {len(cert.solutions)} equation solutions")
    expect(unique == (n == 1), f"{spec.name}: uniquely_accepts says {unique}, {n} accepted strings")
    if not unique:
        return False
    expect(str(s) == prefix(spec.target_len), f"{spec.name}: target is not the sequence prefix")
    expect(dfa.states == spec.state_count, f"{spec.name}: materialized state count")
    if bound is not None:
        expect(spec.state_count <= bound, f"{spec.name}: {spec.state_count} states above the case bound {bound}")
    return True


class Certify:
    """Find witness automata for short strings and certify the witness
    machines of the sequences.

    An operation cross-checks brute_A (up to 4 states) against exact_A on
    a group of 7-9-bit strings, then builds, materializes and certifies a
    group of machines.  A round pairs the six STRING_GROUPS with the six
    MACHINE_GROUPS, each list shuffled, and adds a unary, a period-2 and
    a period-3 string to three of the operations.

    brute_A decides the low-complexity strings (A = 2, 3, 4) and gives up
    on nearly every random one after enumerating every 4-state table,
    ~175 ms at 7 bits to ~215 ms at 9; the string groups take ~0.4 s to
    ~0.85 s.  Among the machines, zone 5 takes ~80 ms, zone 6 ~230 ms,
    zone 7 ~1 s, M1(4) ~350 ms and M2(4, w) ~370 ms, the rest a few ms;
    the machine groups take ~0.45 s to ~1 s.  So an operation takes
    ~0.7 s to ~2.3 s.

    build_case certifies nothing at zone 1 and nothing at zone 2 for
    p_len >= 3: the acceptance equation has 2-3 solutions.  So every
    round also has two untimed probes on the fixed inputs
    build_case(1, 1, 0) and build_case(1, 2, 3), which fail, and the
    timed zone-2 machines draw p_len from 0-2.
    """

    name = "certify"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _machine(self, key):
        """(build, args, state bound, prefix of the target sequence)."""
        family, n = key
        if family == "M1":
            return witness.build_M1, (n,), None, _tseq_prefix
        if family == "M2":
            return witness.build_M2, (n, self.rng.randint(1, 2 << n)), None, _tseq_prefix
        args = (witness.case_for(n), n, self.rng.randrange(3 if n == 2 else 8 * n))
        return witness.build_case, args, witness.case_state_bound(*args), _psc_prefix

    def _op(self, kind: str, strings, machines, timed: bool = True) -> Op:
        def run(tr):
            cross = _cross_check(tr, strings)
            return cross, [_certify(tr, build, args, bound) for build, args, bound, _ in machines]

        def check(results):
            cross, certified = results
            _check_cross(strings, cross)
            return all([_check_machine(m, prefix) for m, (*_, prefix) in zip(certified, machines)])

        return Op(kind, run, check, timed)

    def warmup(self, tr) -> None:
        for x in ("0" * 6, "010101"):
            acsearch.brute_A(x, max_states=BRUTE_STATES)
            acsearch.exact_A(x)
        _certify(tr, witness.build_case, (witness.case_for(3), 3, 0))
        _certify(tr, witness.build_M1, (2,))

    def round(self) -> list[Op]:
        rng = self.rng
        strings = [[_bits(rng, n) for n in lengths] for lengths in STRING_GROUPS]
        pattern = rng.choice(["001", "010", "011", "100", "101", "110"])
        low = [
            rng.choice("01") * rng.randint(7, 9),
            (rng.choice(["01", "10"]) * 5)[: rng.randint(7, 9)],
            (pattern * 3)[: rng.randint(7, 9)],
        ]
        for x, i in zip(low, rng.sample(range(len(strings)), len(low))):
            strings[i].append(x)
        machines = [[self._machine(k) for k in group] for group in MACHINE_GROUPS]
        rng.shuffle(strings)
        rng.shuffle(machines)
        ops = [self._op("witnesses", s, m) for s, m in zip(strings, machines)]
        for args in KNOWN_FAULTS:
            probe = [(witness.build_case, args, witness.case_state_bound(*args), _psc_prefix)]
            ops.append(self._op("known_fault", [], probe, timed=False))
        return ops


# -- sequence -----------------------------------------------------------------

# The orders of each operation's zone rounds.  The cost doubles with each
# order, from ~25 ms at order 10 to ~1.3 s at order 16, so the operations
# take from ~0.5 s to ~1.3 s, and the median one is orders 15 and 13.
SEQUENCE_OPS = ((10, 11, 12, 14), (15,), (15, 12), (15, 13), (15, 14), (15, 14, 13), (16,))
PSC_QUERIES = 16
TSEQ_QUERIES = 4


class Sequence:
    name = "sequence"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.warm_rng = random.Random(f"{seed}-warmup")

    def _zone_round(self, n: int, rng: random.Random):
        """(run, check) of one zone round at order n."""
        k = rng.randint(3, 6)
        zone_len = ref.psc_zone_length(n)
        offs = [rng.randrange(zone_len) for _ in range(PSC_QUERIES)]
        toffs = [rng.randrange((1 << n) * n**n) for _ in range(TSEQ_QUERIES)]
        base = ref.psc_cumulative(n - 1)
        tbase = ref.tseq_cumulative(n - 1)
        m = base + rng.randint(1, zone_len)

        def run(tr):
            seq = psc.PscSequence()
            d = tr.layer("debruijn.generate", debruijn.generate_lex_least, n)
            is_db = tr.layer("debruijn.is_debruijn", debruijn.is_debruijn, d.bits, n)
            z = tr.layer("psc.zone", seq.zone, n)
            zone_ok = tr.layer("psc.verify_zone", seq.verify_zone, n)
            fr = tr.layer("analysis.frequency_report", analysis.frequency_report, z, k)
            tr.count("analysis.frequency_report.windows", fr.window_count)
            bits = [tr.layer("psc.bit_at", seq.bit_at, base + o) for o in offs]
            tbits = [tr.layer("tseq.bit_at", tseq.bit_at, tbase + o) for o in toffs]
            pre = tr.layer("psc.prefix", seq.prefix, m)
            return d, is_db, z, zone_ok, fr, bits, tbits, pre

        def check(res):
            d, is_db, z, zone_ok, fr, bits, tbits, pre = res
            rz = _ref_zone(n)
            d_ref = _ref_debruijn(n)
            expect(str(d.bits) == d_ref, f"order-{n} de Bruijn string is not the lex-least one")
            expect(is_db and ref.is_debruijn_cyclic(str(d.bits), n), f"order-{n} de Bruijn check")
            expect(str(z) == rz, f"zone {n}")
            expect(zone_ok, f"verify_zone({n}) is False")
            counts = ref.window_counts(rz, k)
            expect(fr.counts == counts, f"zone {n}: length-{k} word counts")
            expect(fr.window_count == len(rz) - k + 1, f"zone {n}: window count")
            expect(fr.max_deviation == ref.max_share_deviation(counts, k), f"zone {n}: max deviation")
            expect(bits == [int(rz[o]) for o in offs], f"psc.bit_at in zone {n}")
            td = ref.tseq_debruijn(n, d_ref)
            expect(tbits == [int(td[o % (1 << n)]) for o in toffs], f"tseq.bit_at in zone {n}")
            expect(str(pre) == _ref_prefix(n)[:m], f"psc.prefix({m})")
            return True

        return run, check

    def _op(self, orders, rng: random.Random) -> Op:
        parts = [self._zone_round(n, rng) for n in orders]

        def run(tr):
            return [part_run(tr) for part_run, _ in parts]

        def check(results):
            return all([part_check(res) for (_, part_check), res in zip(parts, results)])

        return Op("zone_rounds", run, check)

    def warmup(self, tr) -> None:
        self._op((6,), self.warm_rng).run(tr)

    def round(self) -> list[Op]:
        ops = [self._op(orders, self.rng) for orders in SEQUENCE_OPS]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Certify, Sequence)}

"""Tests of the benchmark's reference computations, against first principles.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import itertools
import json
import random
import sys
import unittest
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402


def brute_is_debruijn(s: str, n: int) -> bool:
    words = [(s + s)[i : i + n] for i in range(len(s))]
    return len(s) == 1 << n and len(set(words)) == len(s)


class DeBruijnTest(unittest.TestCase):
    def test_fkm_is_the_lex_least_de_bruijn_string(self):
        for n in range(1, 5):
            every = ["".join(bits) for bits in itertools.product("01", repeat=1 << n)]
            self.assertEqual(ref.debruijn_fkm(n), min(s for s in every if brute_is_debruijn(s, n)))

    def test_known_order_six(self):
        self.assertEqual(
            ref.debruijn_fkm(6),
            "0000001000011000101000111001001011001101001111010101110110111111",
        )

    def test_fkm_orders_up_to_16(self):
        for n in range(1, 17):
            d = ref.debruijn_fkm(n)
            self.assertTrue(ref.is_debruijn_cyclic(d, n))
            self.assertTrue(d.startswith("0" * n) and d.endswith("1" * n))

    def test_cyclic_check_against_brute_force(self):
        rng = random.Random(5)
        for n in range(1, 6):
            d = ref.debruijn_fkm(n)
            for j in range(len(d)):
                self.assertTrue(ref.is_debruijn_cyclic(ref.rotate(d, j), n))
            for _ in range(50):
                s = "".join(rng.choice("01") for _ in range(1 << n))
                self.assertEqual(ref.is_debruijn_cyclic(s, n), brute_is_debruijn(s, n))
        self.assertFalse(ref.is_debruijn_cyclic("0110", 3))
        self.assertFalse(ref.is_debruijn_cyclic("0012", 2))


class ZoneRuleTest(unittest.TestCase):
    def test_small_zones_by_hand(self):
        self.assertEqual(ref.psc_zone(1), "01")
        self.assertEqual(ref.psc_zone(2), "0011" + "0110")
        self.assertEqual(ref.psc_zone(3), "00010111" * 3)

    def test_each_word_once_block_aligned(self):
        for n in range(1, 11):
            z = ref.psc_zone(n)
            self.assertEqual(len(z), n << n)
            blocks = Counter(z[i : i + n] for i in range(0, len(z), n))
            self.assertEqual(len(blocks), 1 << n)
            self.assertEqual(set(blocks.values()), {1})

    def test_cumulative_closed_form(self):
        for n in range(0, 20):
            self.assertEqual(ref.psc_cumulative(n), 0 if n == 0 else (n - 1) * 2 ** (n + 1) + 2)

    def test_tseq_zones(self):
        # zone j repeats its de Bruijn string j^j times; zones alternate start bits
        p = ref.tseq_prefix(ref.tseq_cumulative(3))
        self.assertEqual(p[:2], "10")
        self.assertEqual(p[2:18], "0011" * 4)
        self.assertEqual(p[18:], "10111000" * 27)
        for j in range(1, 12):
            d = ref.tseq_debruijn(j)
            self.assertTrue(ref.is_debruijn_cyclic(d, j))
            self.assertEqual(d[0], "1" if j % 2 else "0")
            self.assertEqual(ref.tseq_debruijn(j, ref.debruijn_fkm(j)), d)


class PathCountTest(unittest.TestCase):
    def test_against_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            q = rng.randint(1, 5)
            delta = [(rng.randrange(q), rng.randrange(q)) for _ in range(q)]
            accept = {rng.randrange(q)}
            for length in range(0, 9):
                brute = sum(
                    ref.end_state(delta, 0, "".join(w)) in accept for w in itertools.product("01", repeat=length)
                )
                self.assertEqual(ref.count_paths(delta, 0, accept, length), brute)

    def test_saturates_without_overflow(self):
        loop = [(0, 0)]
        self.assertEqual(ref.count_paths(loop, 0, {0}, 40), 2**40)
        self.assertEqual(ref.count_paths(loop, 0, {0}, 200), int(ref.COUNT_CAP))


class WindowCountTest(unittest.TestCase):
    def test_against_slicing(self):
        rng = random.Random(3)
        for _ in range(40):
            s = "".join(rng.choice("01") for _ in range(rng.randint(1, 300)))
            for k in range(1, min(len(s), 7) + 1):
                self.assertEqual(ref.window_counts(s, k), dict(Counter(s[i : i + k] for i in range(len(s) - k + 1))))

    def test_max_share_deviation(self):
        counts = {"00": 3, "01": 1}
        self.assertEqual(ref.max_share_deviation(counts, 2), Fraction(1, 2))


class BenchmarkSpecTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        printed = [(name, unit) for name, unit, _, _ in run.PER_LAYER]
        printed += [("trace.spans", "count"), ("trace.op_self_ms", "ms")]
        self.assertEqual(listed, printed)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), ["certify", "sequence"])


if __name__ == "__main__":
    unittest.main()

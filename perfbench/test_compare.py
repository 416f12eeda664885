"""Tests for compare.py. Run: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


class VerdictTest(unittest.TestCase):
    def test_a_consistent_large_gain_is_improved(self):
        head = [v * 0.8 for v in BASE]
        result, share = compare.verdict(BASE, head, "lower", 0.1)
        self.assertEqual(result, "improved")
        self.assertEqual(share, 1.0)

    def test_direction_follows_better(self):
        head = [v * 1.2 for v in BASE]
        self.assertEqual(compare.verdict(BASE, head, "higher", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(BASE, head, "lower", 0.1)[0], "worse")

    def test_a_change_within_the_bound_is_no_worse(self):
        head = [v * 1.05 for v in BASE]
        self.assertEqual(compare.verdict(BASE, head, "lower", 0.1)[0], "no worse")

    def test_a_change_beyond_the_bound_is_worse(self):
        head = [v * 1.15 for v in BASE]
        self.assertEqual(compare.verdict(BASE, head, "lower", 0.1)[0], "worse")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        head = [v * 1.05 for v in noisy]
        self.assertEqual(compare.verdict(noisy, head, "lower", 0.1)[0], "unresolved")

    def test_a_noisy_base_beaten_by_every_head_run_is_no_worse(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        head = [55.0 + i * 0.1 for i in range(10)]
        result, _ = compare.verdict(noisy, head, "lower", 0.1)
        self.assertIn(result, ("no worse", "improved"))

    def test_wins_below_nine_in_ten_are_not_an_improvement(self):
        head = [v * 0.97 for v in BASE]
        head[0], head[1] = BASE[0] * 1.01, BASE[1] * 1.01
        result, share = compare.verdict(BASE, head, "lower", 0.1)
        self.assertEqual(share, 0.8)
        self.assertEqual(result, "no worse")

    def test_runs_pair_by_seed(self):
        base, head = [1.0, 2.0, 3.0], [2.9, 1.9, 0.9]
        _, share = compare.verdict(base, head, "lower", 0.5, [1, 2, 3], [3, 2, 1])
        self.assertEqual(share, 1.0)
        _, share = compare.verdict(base, head, "lower", 0.5)
        self.assertAlmostEqual(share, 2 / 3)
        # Sides that share no seed pair by position.
        _, share = compare.verdict(base, head, "lower", 0.5, [1, 2, 3], [4, 5, 6])
        self.assertAlmostEqual(share, 2 / 3)

    def test_per_layer_metrics_have_no_verdict(self):
        self.assertEqual(compare.verdict(BASE, BASE, "lower", None)[0], "-")

    def test_too_few_runs_are_unresolved(self):
        self.assertEqual(compare.verdict([1.0], [1.0], "lower", 0.1), ("unresolved", None))


class LoadAndCompareTest(unittest.TestCase):
    def test_invalid_runs_are_left_out(self):
        benchmark = {
            "workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": [],
        }

        def record(seed, value, valid=True):
            return {
                "record": {
                    "workload": "w",
                    "seed": seed,
                    "valid": valid,
                    "metrics": {"m": {"value": value, "unit": "ms"}},
                }
            }

        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "base.jsonl"
            head = Path(tmp) / "head.jsonl"
            base.write_text("\n".join(json.dumps(record(s, 10.0 + s / 10)) for s in range(10)))
            lines = [record(s, 20.0 + s / 10) for s in range(10)] + [record(99, 1.0, valid=False)]
            head.write_text("noise line\n" + "\n".join(json.dumps(r) for r in lines))
            rows = compare.compare(compare.load_runs(base), compare.load_runs(head), benchmark)
        self.assertEqual(len(rows), 1)
        workload, name, unit, _, (_, head_median, _), share, result = rows[0]
        self.assertEqual((workload, name, unit), ("w", "m", "ms"))
        self.assertAlmostEqual(head_median, 20.45)
        self.assertEqual(share, 0.0)
        self.assertEqual(result, "worse")

    def test_metrics_are_judged_only_in_scope_and_untraced_first(self):
        benchmark = {
            "workloads": [{"name": "gateway-hot", "why": "x"}, {"name": "gateway-fresh", "why": "x"}],
            "end_to_end": [{"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.1}],
            "per_layer": [],
        }

        def record(workload, seed, value, trace=0):
            metrics = {"throughput_rps": {"value": value, "unit": "1/s"}}
            return {"workload": workload, "seed": seed, "trace": trace, "metrics": metrics}

        base = [record(w, s, 100.0 + s) for w in ("gateway-hot", "gateway-fresh") for s in range(10)]
        head = [record(w, s, 50.0 + s) for w in ("gateway-hot", "gateway-fresh") for s in range(10)]
        # A traced run of a seed already run untraced does not count twice.
        head += [record("gateway-hot", s, 1.0, trace=1) for s in range(10)]
        rows = {row[0]: row for row in compare.compare(base, head, benchmark)}
        self.assertEqual(rows["gateway-hot"][6], "worse")
        self.assertAlmostEqual(rows["gateway-hot"][4][1], 54.5)
        self.assertEqual(rows["gateway-fresh"][6], "-")


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own statistics and metric assembly.

    python3 -m unittest discover -s stapbench
"""

import json
import statistics
import unittest
from pathlib import Path

import run
from stats import block_tail, median, ratio, relative_gap, spread, tail

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            median([])


class TailTest(unittest.TestCase):
    def test_leaves_ten_beyond(self):
        values = list(range(1, 61))  # 60 samples
        value, p, n = tail(values)
        self.assertEqual((p, n), (83, 60))
        self.assertEqual(value, 50)  # ceil(0.83 * 60) = 50th smallest
        self.assertEqual(sum(v > value for v in values), 10)

    def test_highest_such_percentile(self):
        values = list(range(1000))
        value, p, _ = tail(values)
        self.assertEqual(p, 99)
        self.assertEqual(sum(v > value for v in values), 10)
        # One more point would leave fewer than ten beyond.
        value, p, _ = tail(values[:999])
        self.assertEqual(p, 98)
        self.assertGreaterEqual(sum(v > value for v in values[:999]), 10)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0,
                  11.0]
        self.assertEqual(tail(values), tail(sorted(values)))

    def test_smallest_sample(self):
        value, p, n = tail(list(range(11)))
        self.assertEqual((value, p, n), (0, 9, 11))

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            tail(list(range(10)))


class BlockTailTest(unittest.TestCase):
    def test_one_block_below_two_hundred(self):
        values = list(range(150))
        self.assertEqual(block_tail(values), (tail(values)[0], [93], 1, 150))

    def test_median_of_block_tails(self):
        # Three blocks of 100; one block holds a burst of stalls.
        values = list(range(100)) * 3
        values[100:120] = [10_000] * 20
        value, percentiles, blocks, n = block_tail(values)
        self.assertEqual((percentiles, blocks, n), ([90], 3, 300))
        self.assertEqual(value, 89)  # p90 of 0..99; the burst block is out
        self.assertEqual(tail(values)[0], 10_000)  # pooled, it would not be

    def test_blocks_are_near_equal(self):
        _, percentiles, blocks, n = block_tail(list(range(250)))
        self.assertEqual((blocks, n), (2, 250))
        self.assertEqual(percentiles, [92])  # two blocks of 125


class RatioTest(unittest.TestCase):
    def test_ratio_and_zero_base(self):
        self.assertEqual(ratio(1, 4), 0.25)
        with self.assertRaises(ValueError):
            ratio(1, 0)

    def test_relative_gap_is_against_the_base(self):
        self.assertAlmostEqual(relative_gap(95.0, 100.0), 0.05)
        self.assertAlmostEqual(relative_gap(105.0, 100.0), 0.05)

    def test_spread_matches_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / 14.5)


def stream_pass(traced):
    p = {
        "runs": 2, "cpis": 50, "cpu_s": 20.0,
        "throughput": [4.0, 6.0],
        "latency_s": [0.2 + 0.001 * i for i in range(40)],
        "tasks": {t: {f"{ph}_s": [0.01, 0.03] for ph in
                      ("recv", "comp", "send", "wait")} for t in run.TASKS},
        "bytes_per_cpi": [1000.0, 1000.0], "regenerations": 2,
        "retransmissions": 0, "integrity_checks": 350,
        "integrity_checks_failed": 0, "health_suspects": 0, "shed": 0,
        "missing": 0, "mismatches": 0,
    }
    if traced:
        p.update({
            "throughput": [4.0, 4.0], "period_s": [0.2, 0.22],
            "accounted_fraction": [1.0, 1.0],
            "chain_compute_s": [0.1], "chain_pack_s": [0.01],
            "chain_unpack_s": [0.02], "chain_transport_s": [0.001],
            "chain_queue_s": [0.003], "xfer_spans": 450, "dropped": 0,
            "chain_accounted_sum_s": 9.7, "measured_latency_sum_s": 10.0,
            "chains_joined": 40,
        })
    return p


def stages():
    s = {name: [0.001, 0.002, 0.003] for name in run.STAGES}
    s["all_stages"] = [0.05]
    return s


def stream_doc():
    return {
        "attempted": 100, "failed": 0, "peak_rss_mb": 100.0,
        "provenance": {"cpis_per_run": 25},
        "setup_s": [1e-4, 2e-4, 3e-4],
        "untraced": stream_pass(False), "traced": stream_pass(True),
        "reference": {"generate_s": [0.1, 0.2], "process_s": [0.1, 0.3],
                      "flops": [4e8, 4e8], "stages": stages(),
                      "trace_dropped": 0},
    }


def seq_doc():
    return {
        "attempted": 30, "failed": 3, "peak_rss_mb": 90.0,
        "setup_s": [0.05, 0.06, 0.07], "trace_dropped": 0,
        "untraced": {"process_s": [0.1] * 20, "cpu_s": [0.1] * 20,
                     "generate_s": [0.15] * 20},
        "traced": {"process_s": [0.125] * 10, "cpu_s": [0.1] * 10,
                   "generate_s": [0.15] * 10, "flops": [1e9] * 10},
        "stages": dict(stages(), all_stages=[0.125] * 10),
    }


class MetricAssemblyTest(unittest.TestCase):
    def names_and_units(self, kind):
        return {m["name"]: m["unit"] for m in SPEC[kind]}

    def test_end_to_end_matches_spec(self):
        for workload, doc in (("stream_paper", stream_doc()),
                              ("seq_paper", seq_doc())):
            metrics, _, valid = run.end_to_end(doc, workload)
            self.assertTrue(valid)
            self.assertEqual(
                {k: u for k, (_, u) in metrics.items()},
                self.names_and_units("end_to_end"))

    def test_per_layer_matches_spec(self):
        for workload, doc in (("stream_paper", stream_doc()),
                              ("seq_paper", seq_doc())):
            metrics, _, _ = run.per_layer(doc, workload)
            self.assertEqual(
                {k: u for k, (_, u) in metrics.items()},
                self.names_and_units("per_layer"))

    def test_stream_ratio_bases(self):
        e2e, _, _ = run.end_to_end(stream_doc(), "stream_paper")
        # Runs over summed mean gaps: 2 / (1/4 + 1/6).
        self.assertAlmostEqual(e2e["throughput_cpi_s"][0], 4.8)
        self.assertAlmostEqual(e2e["cpu_s_per_cpi"][0], 20.0 / 50)
        self.assertAlmostEqual(e2e["exact_cpi_ratio"][0], 1.0)
        layer, _, valid = run.per_layer(stream_doc(), "stream_paper")
        # Consumed over generated, where regenerations are extra cubes.
        self.assertAlmostEqual(layer["synth.useful_ratio"][0], 50 / 52)
        self.assertAlmostEqual(layer["integrity.checks_per_cpi"][0], 7.0)
        self.assertAlmostEqual(layer["comm.frames_per_cpi"][0], 9.0)
        # Overhead is throughput lost against the untraced base (4.8 -> 4).
        self.assertAlmostEqual(layer["obs.trace_overhead"][0], 1 / 6)
        self.assertAlmostEqual(layer["kernels.gflops"][0], 4e8 / 0.2 / 1e9)
        self.assertTrue(valid)  # 9.7 s of 10 s is a 3% gap

    def test_seq_ratio_bases(self):
        e2e, _, _ = run.end_to_end(seq_doc(), "seq_paper")
        self.assertAlmostEqual(e2e["throughput_cpi_s"][0], 10.0)
        self.assertAlmostEqual(e2e["exact_cpi_ratio"][0], 27 / 30)
        layer, _, valid = run.per_layer(seq_doc(), "seq_paper")
        self.assertAlmostEqual(layer["obs.trace_overhead"][0], 0.2)
        self.assertAlmostEqual(layer["kernels.gflops"][0], 1e9 / 0.1 / 1e9)
        self.assertEqual(layer["core.period_ms"][0], 0.0)
        self.assertTrue(valid)

    def test_invalid_trace(self):
        doc = stream_doc()
        doc["traced"]["chain_accounted_sum_s"] = 9.0  # 10% short
        self.assertFalse(run.per_layer(doc, "stream_paper")[2])
        doc = stream_doc()
        doc["traced"]["dropped"] = 1
        self.assertFalse(run.per_layer(doc, "stream_paper")[2])
        doc = stream_doc()  # no chain joined to a measured CPI
        doc["traced"]["chain_accounted_sum_s"] = 0.0
        doc["traced"]["measured_latency_sum_s"] = 0.0
        self.assertFalse(run.per_layer(doc, "stream_paper")[2])


if __name__ == "__main__":
    unittest.main()

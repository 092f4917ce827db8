"""Tests of the benchmark's own statistics, workloads and result shape.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402

MS = 1_000_000  # nanoseconds


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(reversed(values), 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.99), 7)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_quantile(1000), 0.99)
        self.assertEqual(stats.tail_quantile(999), 0.95)
        self.assertEqual(stats.tail_quantile(200), 0.95)
        self.assertEqual(stats.tail_quantile(199), 0.9)
        self.assertEqual(stats.tail_quantile(40), 0.75)
        self.assertEqual(stats.tail_quantile(5), 0.5)
        # Never above the percentile asked for, however many samples.
        self.assertEqual(stats.tail_quantile(10**6), 0.99)
        self.assertEqual(stats.tail_quantile(10**6, wanted=0.999), 0.999)

    def test_tail_reports_the_quantile_it_used(self):
        q, value = stats.tail(list(range(1, 501)))
        self.assertEqual((q, value), (0.95, 475))

    def test_spread_is_quartile_distance_over_median(self):
        self.assertAlmostEqual(stats.spread([10, 10, 10, 10]), 0.0)
        values = [8, 9, 10, 11, 12]
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 10)


class OpenLoopTiming(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_send(self):
        # Due at 0, sent 5 ms late behind a stall, answered 2 ms later.
        latency, late = stats.open_loop([(0, 5 * MS, 7 * MS)])
        self.assertEqual(latency, [7.0])
        self.assertEqual(late, [5.0])

    def test_on_time_request_is_not_late(self):
        latency, late = stats.open_loop([(10 * MS, 10 * MS, 11 * MS)])
        self.assertEqual((latency, late), ([1.0], [0.0]))

    def test_split_by_schedule(self):
        records = [(t * MS, t * MS, t * MS + 1) for t in range(100)]
        parts = stats.split_by_schedule(records, 4)
        self.assertEqual([len(p) for p in parts], [25, 25, 25, 25])
        self.assertEqual(parts[1][0][0], 25 * MS)


class ClosedLoopWindows(unittest.TestCase):
    def test_windows_between_snapshots(self):
        # Two one-second windows: 10 then 20 completions, 1 and 4 CPU-s.
        completions = ([(int(0.05e9) + i, True) for i in range(10)] +
                       [(int(1.5e9) + i, True) for i in range(20)] +
                       [(int(1.6e9), False)])
        snapshots = [(0, 0), (int(1e9), 100), (int(2e9), 500)]
        windows = stats.closed_windows(completions, snapshots, 100)
        self.assertEqual(len(windows), 2)
        self.assertAlmostEqual(windows[0][0], 10.0)
        self.assertAlmostEqual(windows[0][1], 1e6 / 10)
        self.assertAlmostEqual(windows[1][0], 20.0)
        self.assertAlmostEqual(windows[1][1], 4e6 / 20)

    def test_window_without_completions_is_skipped(self):
        windows = stats.closed_windows([(5, True)], [(0, 0), (10, 1),
                                                      (20, 2)], 100)
        self.assertEqual(len(windows), 1)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = {
            0: (-1, 0, 100),   # root
            1: (0, 10, 40),    # child, with a grandchild
            2: (1, 20, 30),    # grandchild
            3: (0, 30, 60),    # child overlapping child 1
            4: (0, 90, 120),   # child running past the root's end
        }
        self_ns = stats.self_times(spans)
        # Root: children cover [10, 60] and [90, 100].
        self.assertEqual(self_ns[0], 100 - 50 - 10)
        self.assertEqual(self_ns[1], 30 - 10)
        self.assertEqual(self_ns[2], 10)
        self.assertEqual(self_ns[3], 30)
        self.assertEqual(self_ns[4], 30)

    def test_covered_merges_overlaps(self):
        self.assertEqual(stats.covered([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(stats.covered([]), 0)


class Workloads(unittest.TestCase):
    def entries(self, name, seed):
        stream = Stream(WORKLOADS[name], seed)
        return (stream.warmup() + stream.closed(2000, 0.01) +
                stream.open(1.0, 0.01) + stream.probes())

    def test_same_seed_same_stream(self):
        for name in WORKLOADS:
            self.assertEqual(self.entries(name, 3), self.entries(name, 3))

    def test_seed_changes_order_not_proportions(self):
        for name, workload in WORKLOADS.items():
            mixes = []
            for seed in (1, 2):
                stream = Stream(workload, seed)
                block = len(workload.block(stream.rng))
                size = 3 * (block + workload.cold_per_block)
                entries = stream.closed(size, 0)
                mixes.append(Counter(
                    (cls, body.get("dataset"), body.get("k"), body.get("n"),
                     body.get("algorithm"), body.get("tight"),
                     body.get("diverse"),
                     body.get("sample", {}).get("rows"))
                    for _, cls, _, _, body in entries
                    if cls == "hot"))
                self.assertEqual(sum(1 for e in entries if e[1] == "cold"),
                                 3 * workload.cold_per_block)
            self.assertEqual(mixes[0], mixes[1], name)

    def test_cold_configurations_are_unique(self):
        for name in WORKLOADS:
            stream = Stream(WORKLOADS[name], 5)
            entries = (stream.closed(5000, 0) + stream.probes() +
                       stream.replay(3000))
            smoothing = [body["measures"]["walk"]["smoothing"]
                         for _, cls, _, _, body in entries if cls == "cold"]
            self.assertTrue(smoothing, name)
            self.assertEqual(len(smoothing), len(set(smoothing)), name)

    def test_discovery_mix_stays_bounded(self):
        # bf and tight k>=6 are unbounded work; the mix must not send them.
        stream = Stream(WORKLOADS["discover_music"], 1)
        for _, _, _, _, body in stream.closed(2000, 0):
            self.assertNotEqual(body.get("algorithm"), "bf")
            if "tight" in body:
                self.assertLessEqual(body["k"], 5)
            self.assertNotIn("sample", body)

    def test_open_loop_arrivals_match_the_frozen_rate(self):
        for name, workload in WORKLOADS.items():
            entries = Stream(workload, 9).open(5.0, 0)
            self.assertAlmostEqual(len(entries) / 5.0 / workload.rate, 1.0,
                                   delta=0.1)
            times = [at for _, _, at, _, _ in entries]
            self.assertEqual(times, sorted(times))


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_workloads_restate_their_frozen_settings(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for entry in self.bench["workloads"]:
            workload = WORKLOADS[entry["name"]]
            self.assertIn(f"{workload.rate:g}/s", entry["why"])
            self.assertIn(f"p99 limit {workload.p99_limit_ms:g} ms",
                          entry["why"])
            self.assertLessEqual(len(entry["why"]), 200)

    def test_end_to_end_metrics_match_the_file(self):
        metrics, _ = run.e2e_metrics([0.2, 0.3, 0.25], synthetic_records(),
                                     100.0)
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)
        self.assertTrue(all(v > 0 for v, _ in metrics.values()))
        self.assertEqual(metrics["setup_s"][0], 0.25)
        # 50 requests per 0.1 s window, 5 ticks (50 ms CPU) per window.
        self.assertAlmostEqual(metrics["throughput_rps"][0], 500.0)
        self.assertAlmostEqual(metrics["cpu_us_per_req"][0], 1000.0)

    def test_open_loop_latency_and_cold_waits(self):
        metrics, detail = run.open_loop_metrics(WORKLOADS["cold_mix"],
                                                synthetic_records())
        # Hot latencies are 1, 2 or 3 ms; cold ones 20 ms on two datasets.
        self.assertEqual(metrics["open.p50_ms"][0], 2.0)
        self.assertEqual(metrics["open.p99_ms"][0], 3.0)
        self.assertEqual(metrics["cold.p50_ms"][0], 20.0)
        self.assertEqual(detail["p99_quantile_used"], 0.99)

    def test_per_layer_metrics_match_the_file(self):
        layers, breakdown = run.layer_metrics(*synthetic_trace())
        layers.update(run.admission_metrics(metrics_text(0, 0)))
        self.assertEqual(layers["admission.cold_queued"], (2, "count"))
        layers.update(run.cache_metrics(metrics_text(10, 2),
                                        metrics_text(50, 12)))
        layers.update(run.open_loop_metrics(WORKLOADS["cold_mix"],
                                            synthetic_records())[0])
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in layers.items()}, declared)
        # Self time in the layer-by-layer trees: sample, then encode on
        # hot requests; the build leads on the cold one.
        self.assertEqual(list(breakdown["self_ms_hot"])[:2],
                         ["sample", "encode"])
        self.assertEqual(list(breakdown["self_ms_cold"])[0], "prepare")
        self.assertNotIn("handler", breakdown["self_ms_hot"])

    def test_handler_residual_subtracts_each_layer_once(self):
        layers, _ = run.layer_metrics(*synthetic_trace())
        # Hot requests: handler 330 ns - decode 2 - Engine::Preview 199
        # - encode 90.
        self.assertEqual(layers["handler.residual_us"], (0.039, "us"))
        self.assertEqual(layers["engine.us"][0], 0.199)
        # handler - (decode 2 + prepare 1 + discover 8 + sample 180 +
        # encode 90).
        self.assertEqual(layers["handler.layer_gap_us"], (0.049, "us"))

    def test_cache_hit_ratio_counts_the_traffic_between_scrapes(self):
        # Both datasets together: 40 hits and 10 misses between the scrapes;
        # the warm-up's lookups before the first scrape do not count.
        self.assertEqual(run.cache_metrics(metrics_text(10, 2),
                                           metrics_text(50, 12)),
                         {"engine.cache_hit_ratio": (0.8, "ratio")})
        self.assertEqual(run.cache_metrics(metrics_text(3, 3),
                                           metrics_text(3, 3)),
                         {"engine.cache_hit_ratio": (0.0, "ratio")})


def synthetic_records():
    """Load generator records of a tiny run: 21 closed windows, one open loop."""
    closed = [(int(w * 1e8) + i, True) for w in range(21) for i in range(50)]
    cpu = [(int(w * 1e8), w * 5) for w in range(22)]
    opened = []
    for i in range(8000):
        cls = "cold" if i % 100 == 0 else "hot"
        dataset = ("basketball", "architecture")[i % 2]
        at = i * MS // 4
        opened.append((at, at, at + (20 if cls == "cold" else 1 + i % 3) * MS,
                       True, cls, dataset))
    return {"closed": closed, "cpu": cpu, "open": opened, "probe": [],
            "fail": [], "calib": 100.0, "verify": (10, 0)}


def metrics_text(hits, misses):
    """/metrics text with the admission counters and the prepared-cache
    counters of two datasets, which split `hits` and `misses` unevenly."""
    lines = ["# TYPE egp_admission_cold_admitted_total counter",
             "egp_admission_cold_admitted_total 48",
             "egp_admission_cold_queued_total 2",
             "egp_admission_cold_shed_total 0"]
    for name, total in (("hits", hits), ("misses", misses)):
        lines += [f"# TYPE egp_prepared_cache_{name}_total counter",
                  f'egp_prepared_cache_{name}_total{{dataset="basketball"}} '
                  f"{total - total // 3}",
                  f'egp_prepared_cache_{name}_total{{dataset="architecture"}} '
                  f"{total // 3}"]
    return "\n".join(lines) + "\n"


def synthetic_trace():
    """Spans of two hot replayed requests and one cold one."""
    spans, counts = {}, {}

    def span(parent, rid, name, label, start, end):
        spans[len(spans)] = (parent, rid, name, label, start, end)
        return len(spans) - 1

    span(-1, -1, "store.open", "music", 0, 5)
    span(-1, -1, "catalog.load", "-", 5, 10)
    for rid, cls in ((0, "hot"), (1, "cold"), (2, "hot")):
        base = 1000 * (rid + 1)
        build = 500 if cls == "cold" else 1
        root = span(-1, rid, "request", cls, base, base + 300 + build)
        span(root, rid, "decode", "-", base, base + 2)
        engine = span(root, rid, "engine", "-", base + 2,
                      base + 200 + build)
        span(engine, rid, "prepare", cls, base + 2, base + 2 + build)
        span(engine, rid, "discover", "dp", base + 2 + build,
             base + 10 + build)
        span(engine, rid, "sample", "-", base + 10 + build,
             base + 190 + build)
        span(root, rid, "encode", "-", base + 200 + build,
             base + 290 + build)
        span(root, rid, "http.frame", "-", base + 290 + build,
             base + 295 + build)
        # Engine::Preview alone: its encode is not inside the span.
        span(-1, rid, "engine.call", cls, base + 400, base + 598 + build)
        transport = span(-1, rid, "transport", cls, base + 1000,
                         base + 1400 + build)
        span(transport, rid, "handler", "-", base + 1050, base + 1380)
        for name, value in (("prepare.cpu_ns", 4.0 * build),
                            ("discover.enumerated", 0),
                            ("discover.scored", 0), ("sample.cells", 40),
                            ("encode.bytes", 900)):
            counts.setdefault(name, []).append((rid, value))
    return spans, counts


if __name__ == "__main__":
    unittest.main()

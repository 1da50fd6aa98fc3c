"""Self-tests for run.py's derived metrics, on canned counter dumps.

    python3 -m unittest discover -s livebench -p 'test_*.py'
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BFTBCD_EXIT = """\
bftbcd: shard 0 replica 1 (optimized mode, sig auth, hmac) listening on 127.0.0.1:5501
bftbcd: replica 1 shutting down; counters:
  batch_flushes                100
  batch_verify_msgs            150
  drop_bad_auth                3
  drop_stale_ts                1
  granted_prepare              40
  net/msgs_dropped             2
  net/msgs_sent                300
"""


def gen_report(writes, reads, window_s, **extra):
    lat = {"count": writes, "p50_ms": 0.5, "p90_ms": 0.7, "beyond_p90": 0,
           "p99_ms": 0.9, "beyond_p99": 0}
    report = {
        "window_s": window_s, "window_writes": writes, "window_reads": reads,
        "ops_per_second": "",
        "attempted": 1000, "failed": 0, "cpu_ns": 2_000_000_000,
        "write_ms": lat, "read_ms": dict(lat, p50_ms=0.2),
        "op_ms": dict(lat, p50_ms=0.3, p99_ms=0.8),
        "client_counters": {"write_phases": 160, "read_phases": 40},
        "client_counters_total": {"writes": 500, "write_phases": 1100,
                                  "reads": 200, "read_phases": 220,
                                  "opt_slow_writes": 100},
        "transport": {"bytes_sent": 50_000, "encode_calls": 600,
                      "msgs_sent": 880},
        "keystore": {"verify": 300, "sig_cache_hit": 100,
                     "sig_cache_miss": 300, "sign": 200, "mac_sign": 50,
                     "mac_verify": 150},
        "checker": {"ok": True, "ops_checked": 1000, "violation": ""},
    }
    report.update(extra)
    return report


def host_report(thread_cpu_ns):
    stat = lambda count, ns, cpu_ns: {"count": count, "ns": ns,
                                      "cpu_ns": cpu_ns}
    return {
        "replica": 0, "windowed": True, "wall_ns": 10**9,
        "thread_cpu_ns": thread_cpu_ns,
        "process": stat(100, 50_000_000, 40_000_000),
        "deliver": stat(300, 3_000_000, 2_000_000),
        "sockets": {"sendto": stat(200, 4_000_000, 3_000_000),
                    "sendto_ok": 200,
                    "recvfrom": stat(400, 6_000_000, 5_000_000),
                    "recvfrom_ok": 240,
                    "wait": stat(90, 700_000_000, 0)},
        "replica_counters": {},
        "transport": {"bytes_sent": 25_000, "msgs_delivered": 240,
                      "encode_calls": 100},
        "keystore": {"verify": 800, "sig_cache_hit": 200,
                     "sig_cache_miss": 800, "sign": 400, "mac_sign": 0,
                     "mac_verify": 100},
    }


class ParseDumpTest(unittest.TestCase):
    def test_reads_counter_lines_after_the_banner(self):
        counters = run.parse_bftbcd_dump(BFTBCD_EXIT.splitlines())
        self.assertEqual(counters["batch_verify_msgs"], 150)
        self.assertEqual(counters["net/msgs_dropped"], 2)
        self.assertNotIn("bftbcd:", counters)
        self.assertEqual(len(counters), 7)

    def test_missing_dump_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.parse_bftbcd_dump(["bftbcd: ... listening on 127.0.0.1:1"])


class EndToEndTest(unittest.TestCase):
    def test_metrics_from_one_run(self):
        r = {"gen": gen_report(800, 200, 2.0), "setup_times": [0.3, 0.1, 0.2],
             "replica_cpu_s": [1.0, 1.0, 1.0, 1.0], "gen_cpu_s": 1.0}
        m = run.end_to_end(r)
        self.assertEqual(set(m), set(run.END_TO_END_UNITS))
        self.assertAlmostEqual(m["throughput_ops_s"], 500.0)
        self.assertAlmostEqual(m["op_p50_ms"], 0.3)
        self.assertAlmostEqual(m["write_p50_ms"], 0.5)
        # 5 CPU-seconds over 1000 ops.
        self.assertAlmostEqual(m["cpu_us_per_op"], 5000.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)  # median of the set-ups

    def test_throughput_is_the_median_second(self):
        # One slow second (a steal episode) does not pull the figure down.
        r = {"gen": gen_report(1200, 0, 3.0, ops_per_second="500 100 600"),
             "setup_times": [0.1], "replica_cpu_s": [1.0] * 4,
             "gen_cpu_s": 1.0}
        self.assertEqual(run.end_to_end(r)["throughput_ops_s"], 500)


class CpuClockTest(unittest.TestCase):
    def test_process_cpu_clock_id(self):
        # For this process the clock must agree with its own CPU clock.
        before = time.process_time()
        mine = run.cpu_clock_s(os.getpid())
        after = time.process_time()
        self.assertLessEqual(before, mine + 1e-6)
        self.assertLessEqual(mine, after + 1e-6)


class PerLayerTest(unittest.TestCase):
    def setUp(self):
        dump = run.parse_bftbcd_dump(BFTBCD_EXIT.splitlines())
        self.untraced = {
            "gen": gen_report(800, 200, 2.0),  # 500 ops/s, 1000 ops
            "replicas": [dump] * 4, "replica_cpu_s": [0.1, 0.1, 0.1, 0.1],
            "steal_frac": 0.02, "idle_frac": 0.3}
        costs = {"sign_us": 10.0, "verify_us": 20.0,
                 "verify_cached_hit_us": 1.0, "mac_us": 2.0,
                 "sha256_4k_us": 30.0}
        self.traced = {
            "gen": gen_report(
                40, 60, 0.25,  # 100 ops at 400 ops/s
                handler={"count": 500, "ns": 9_000_000, "cpu_ns": 8_000_000},
                sockets={"sendto": {"count": 400, "ns": 1_000_000},
                         "recvfrom": {"count": 900, "ns": 2_000_000},
                         "wait": {"count": 100, "ns": 5_000_000}},
                unit_costs=costs),
            "replicas": [host_report(60_000_000)] * 4,
            "steal_frac": 0.04, "idle_frac": 0.2}
        self.m = run.per_layer(self.untraced, self.traced)

    def test_every_named_metric_is_reported(self):
        self.assertEqual(set(self.m), set(run.PER_LAYER_UNITS))

    def test_untraced_run_readings(self):
        m = self.m
        self.assertAlmostEqual(m["replica.cpu_us_per_op"], 100.0)  # 0.1 s/1000
        self.assertAlmostEqual(m["client.cpu_us_per_op"], 2000.0)
        # Exit dumps: 2 drops and 4 rejects per replica over the 1000 ops
        # the generator completed in all phases.
        self.assertAlmostEqual(m["net.replica.dropped_per_op"], 0.002)
        self.assertAlmostEqual(m["bftbc.replica.rejects_per_op"], 0.004)
        self.assertAlmostEqual(m["bftbc.replica.msgs_per_batch"], 1.5)
        self.assertAlmostEqual(m["bftbc.client.phases_per_write"], 2.2)
        self.assertAlmostEqual(m["bftbc.client.phases_per_read"], 1.1)
        self.assertAlmostEqual(m["bftbc.client.slow_write_frac"], 0.2)
        self.assertAlmostEqual(m["e2e.op_p99_ms"], 0.8)
        self.assertAlmostEqual(m["e2e.write_p99_ms"], 0.9)

    def test_traced_run_replica_layers(self):
        m = self.m  # per replica, over the traced window's 100 ops
        self.assertAlmostEqual(m["net.replica.datagrams_out_per_op"], 2.0)
        self.assertAlmostEqual(m["net.replica.datagrams_in_per_op"], 2.4)
        self.assertAlmostEqual(m["net.replica.syscall_us_per_op"], 100.0)
        self.assertAlmostEqual(m["net.replica.wait_us_per_op"], 7000.0)
        # 60 ms thread CPU - (40 + 2) ms in callbacks - (3 + 5) ms in calls.
        self.assertAlmostEqual(m["net.replica.loop_us_per_op"], 100.0)
        self.assertAlmostEqual(m["bftbc.replica.process_us_per_op"], 400.0)
        self.assertAlmostEqual(m["bftbc.replica.deliver_us_per_op"], 20.0)
        self.assertAlmostEqual(m["net.envelopes_per_datagram"], 1.25)
        self.assertAlmostEqual(m["crypto.replica.verifies_per_op"], 8.0)
        self.assertAlmostEqual(m["crypto.replica.cache_hit_frac"], 0.2)
        self.assertAlmostEqual(m["crypto.replica.signs_per_op"], 4.0)
        self.assertAlmostEqual(m["crypto.replica.macs_per_op"], 1.0)
        # 8 x 20 + 2 hits x 1 + 4 x 10 + 1 x 2 microseconds.
        self.assertAlmostEqual(m["crypto.replica.est_us_per_op"], 204.0)

    def test_traced_run_client_and_shared_layers(self):
        m = self.m
        self.assertAlmostEqual(m["net.client.syscall_us_per_op"], 30.0)
        self.assertAlmostEqual(m["net.client.wait_us_per_op"], 50.0)
        self.assertAlmostEqual(m["bftbc.client.handler_us_per_op"], 80.0)
        # (4 x 25000 + 50000) bytes and (4 x 100 + 600) encodes, 100 ops.
        self.assertAlmostEqual(m["net.bytes_per_op"], 1500.0)
        self.assertAlmostEqual(m["rpc.encodes_per_op"], 10.0)
        self.assertAlmostEqual(m["rpc.client.sends_per_phase"], 4.4)
        self.assertAlmostEqual(m["crypto.client.verifies_per_op"], 3.0)
        self.assertAlmostEqual(m["crypto.client.cache_hit_frac"], 0.25)
        self.assertAlmostEqual(m["crypto.client.signs_per_op"], 2.0)
        self.assertAlmostEqual(m["crypto.client.macs_per_op"], 2.0)
        self.assertAlmostEqual(m["crypto.sign_us"], 10.0)
        self.assertAlmostEqual(m["crypto.sha256_4k_us"], 30.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.2)  # 400 vs 500
        self.assertAlmostEqual(m["host.steal_frac"], 0.03)
        self.assertAlmostEqual(m["host.idle_frac"], 0.25)


class CheckRunTest(unittest.TestCase):
    def test_clean_verdict_is_correct(self):
        self.assertTrue(run.check_run({"gen": gen_report(1, 0, 1.0)}))

    def test_dirty_verdict_fails_the_run(self):
        gen = gen_report(1, 0, 1.0, checker={
            "ok": False, "ops_checked": 1, "violation": "read went backwards"})
        self.assertFalse(run.check_run({"gen": gen}))

    def test_failed_unit_cost_check_fails_the_run(self):
        gen = gen_report(1, 0, 1.0, unit_costs={"checks_passed": False})
        self.assertFalse(run.check_run({"gen": gen}))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        import json
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        listed = [w["name"] for w in bench["workloads"]]
        self.assertEqual(listed, [w for w in run.WORKLOADS if w in listed])
        self.assertIn("read_mostly_zipf_4k", listed)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Live-cluster benchmark for BFT-BC: four real replica daemons on loopback
UDP, driven by one closed-loop load generator process.

    python3 livebench/run.py --workload read_mostly_zipf_4k --seed 1 \
        --seconds 40 --trace 0

Run from the repository root. The first run builds the daemon, the
generator and the traced replica host from source into
$CARGO_TARGET_DIR/livebench (default .bench_build/livebench). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of one untraced run. --trace 1
runs the workload twice, untraced and then traced (half of --seconds each),
and reports the per-layer metrics; see README.md in this directory.
--selftest builds and runs the benchmark's own tests instead.
"""

import argparse
import hashlib
import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPLICAS = 4  # f = 1

# Every workload runs the optimized protocol on one 3f+1 group. The hmac
# cluster is the committed live recipe (bench/cluster_localhost.json);
# the rsa cluster is the paper's deployment (RSA certificates, MAC
# point-to-point authentication, section 3.3.2). write_small_hmac is for
# runs by hand and is not in BENCHMARK.json: its throughput falls by more
# than half under 20% host steal, too far for a bound (see README.md).
WORKLOADS = {
    "write_small_hmac": dict(
        scheme="hmac", auth="sig", clients=2, value_bytes=256,
        read_fraction=0.0, objects=0, objects_per_client=8, warmup_ops=1000,
        setups=15),
    "read_mostly_zipf_4k": dict(
        scheme="hmac", auth="sig", clients=3, value_bytes=4096,
        read_fraction=0.9, objects=64, warmup_ops=1000, setups=15),
    "write_rsa1024_mac": dict(
        scheme="rsa", auth="mac", rsa_bits=1024, clients=2, value_bytes=256,
        read_fraction=0.0, objects=0, warmup_ops=50, setups=5),
}
KEY_SEED = 42  # cluster keys; --seed drives the workload's inputs

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "write_p50_ms": "ms",
    "cpu_us_per_op": "us",
    "setup_s": "s",
}


# Every wait in a run ends by this time (set after the build), so a stuck
# process makes the run fail well inside the harness's time limit.
RUN_LIMIT_S = 170
_deadline = float("inf")


def clamp(deadline):
    return min(deadline, _deadline)


def log(msg):
    print(f"livebench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "livebench")


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "bftbcd.cpp"))):
        raise BenchError("repository sources (src/, tools/) not found "
                         f"next to {HERE}; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr)
    return out


# ------------------------------------------------------- host readings

def proc_cpu_s(pid):
    """user+sys CPU seconds of a process, all threads (/proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_clock_s(pid):
    """CPU seconds a live process has used so far, all threads, to the
    nanosecond: Linux names a process's CPU-time clock (the one
    clock_getcpuclockid(3) returns) by the id (~pid << 3) | 2."""
    return time.clock_gettime(((~pid) << 3) | 2)


def host_cpu_times():
    """Aggregate /proc/stat cpu line: (steal, idle+iowait, total) ticks."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:9]]
    return vals[7], vals[3] + vals[4], sum(vals)


def host_fracs(a, b):
    total = max(1, b[2] - a[2])
    return (b[0] - a[0]) / total, (b[1] - a[1]) / total


def run_conditions(out_dir):
    cpu_model, sha_ni = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and " sha_ni" in line:
                    sha_ni = True
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "sha_ni": sha_ni,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Digest of the built sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools"), HERE]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


# ------------------------------------------------------------- cluster

def free_udp_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def write_cluster_config(path, spec):
    ports = free_udp_ports(REPLICAS)
    cfg = {
        "f": 1, "mode": "optimized", "auth": spec["auth"],
        "scheme": spec["scheme"], "rsa_bits": spec.get("rsa_bits", 512),
        "key_seed": KEY_SEED, "max_clients": spec["clients"],
        "replicas": [{"host": "127.0.0.1", "port": p} for p in ports],
    }
    with open(path, "w") as f:
        json.dump(cfg, f)


class Proc:
    """A child process whose stdout is read line by line, each line stamped
    with the time it was read; stderr goes to a log file. Reading happens
    in this thread only (see wait_for), so stamps are not delayed by
    thread scheduling."""

    def __init__(self, argv, err_path, stdin=False):
        self.argv = argv
        self.err_path = err_path
        with open(err_path, "w") as err:
            self.p = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL)
        self.fd = self.p.stdout.fileno()
        os.set_blocking(self.fd, False)
        self.lines = []  # (time, text)
        # The process's CPU time when its first line (its readiness
        # line) was read.
        self.first_line_cpu_s = None
        self.unread = 0  # index of the first line wait_for has not seen
        self.eof = False
        self._partial = b""

    def name(self):
        return os.path.basename(self.argv[0])

    def read_available(self):
        now = time.monotonic()
        while True:
            try:
                data = os.read(self.fd, 65536)
            except BlockingIOError:
                return
            if not data:
                self.eof = True
                return
            *done, self._partial = (self._partial + data).split(b"\n")
            if done and self.first_line_cpu_s is None:
                self.first_line_cpu_s = cpu_clock_s(self.p.pid)
            self.lines += [(now, l.decode(errors="replace")) for l in done]

    def take(self, prefix):
        """The first unseen line starting with `prefix`, or None."""
        for i in range(self.unread, len(self.lines)):
            if self.lines[i][1].startswith(prefix):
                self.unread = i + 1
                return self.lines[i]
        return None

    def stderr_tail(self):
        try:
            with open(self.err_path) as f:
                return " | ".join(f.read().splitlines()[-5:])
        except OSError:
            return ""

    def write(self, text):
        self.p.stdin.write(text.encode())
        self.p.stdin.flush()

    def stop(self, timeout=20, term=True):
        """SIGTERM (unless `term` is false), wait, and read the rest of its
        output; returns the exit code."""
        if term and self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        try:
            left = clamp(time.monotonic() + timeout) - time.monotonic()
            self.p.wait(timeout=max(0.1, left))
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        os.set_blocking(self.fd, True)
        while not self.eof:
            self.read_available()
        return self.p.returncode

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()
        self.p.stdout.close()
        if self.p.stdin:
            self.p.stdin.close()


def wait_for(wanted, deadline):
    """Waits until each (proc, prefix) in `wanted` has printed a line
    starting with prefix; returns their (time, line) pairs in order."""
    found = [None] * len(wanted)
    deadline = clamp(deadline)
    with selectors.DefaultSelector() as sel:
        for proc, _ in wanted:
            if not proc.eof:
                sel.register(proc.fd, selectors.EVENT_READ, proc)
        while True:
            for i, (proc, prefix) in enumerate(wanted):
                if found[i] is None:
                    found[i] = proc.take(prefix)
                if found[i] is None and proc.eof:
                    proc.p.wait()
                    raise BenchError(
                        f"{proc.name()} exited ({proc.p.returncode}) before "
                        f"printing {prefix!r}: {proc.stderr_tail()}")
            if all(found):
                return found
            left = deadline - time.monotonic()
            if left <= 0:
                missing = [p.name() for (p, _), f in zip(wanted, found)
                           if f is None]
                raise BenchError(f"timed out waiting for {missing}")
            for key, _ in sel.select(left):
                key.data.read_available()
                if key.data.eof:
                    sel.unregister(key.fd)


class Cluster:
    """Four replica processes plus the generator, launched together."""

    def __init__(self, out, spec, cfg_path, args, traced, seconds, tag):
        self.traced = traced
        self.replicas = []
        self.gen = None
        span_dir = os.path.join(out, "run", "spans", tag)
        if traced:
            os.makedirs(span_dir, exist_ok=True)
        try:
            self._launch(out, spec, cfg_path, args, seconds, span_dir)
        except BaseException:
            self.kill()
            raise

    def _launch(self, out, spec, cfg_path, args, seconds, span_dir):
        traced = self.traced
        logs = os.path.join(out, "run", "logs")
        os.makedirs(logs, exist_ok=True)
        t0 = time.monotonic()
        for r in range(REPLICAS):
            if traced:
                argv = [os.path.join(out, "livebench_replica"),
                        "--config", cfg_path, "--replica", str(r),
                        "--spans", os.path.join(span_dir, f"replica{r}.tsv")]
            else:
                argv = [os.path.join(out, "bftbcd"), "--config", cfg_path,
                        "--replica", str(r)]
            self.replicas.append(Proc(
                argv, os.path.join(logs, f"replica{r}.err"), stdin=traced))
        gen_argv = [
            os.path.join(out, "livebench_gen"), "--config", cfg_path,
            "--clients", str(spec["clients"]), "--seconds", str(seconds),
            "--warmup-ops", str(spec["warmup_ops"]),
            "--value-bytes", str(spec["value_bytes"]),
            "--read-fraction", str(spec["read_fraction"]),
            "--objects", str(spec["objects"]),
            "--objects-per-client", str(spec.get("objects_per_client", 1)),
            "--seed", str(args.seed)]
        if traced:
            gen_argv += ["--trace", "--spans",
                         os.path.join(span_dir, "generator.tsv")]
        self.gen = Proc(gen_argv, os.path.join(logs, "generator.err"),
                        stdin=True)
        banner = "livebench_replica:" if traced else "bftbcd:"
        wanted = ([(p, banner) for p in self.replicas]
                  + [(self.gen, "READY")])
        ready = wait_for(wanted, t0 + 60)
        for (proc, _), (_, line) in zip(wanted, ready):
            if proc.lines[0][1] != line:
                raise BenchError(f"{proc.name()} printed {proc.lines[0][1]!r} "
                                 "before its readiness line")
        # Set-up time is the CPU time the slowest process spends from its
        # start to its readiness line: loading, key generation, keystore
        # and socket set-up. The processes start together and each would
        # take about this long on a core of its own. Wall time would
        # mostly measure the host's scheduling of five short-lived
        # processes (see README.md).
        self.setup_s = max(p.first_line_cpu_s for p, _ in wanted)

    def procs(self):
        return self.replicas + [self.gen]

    def kill(self):
        for p in self.procs():
            if p is not None:
                p.kill()


def parse_bftbcd_dump(lines):
    """The counter map bftbcd prints on exit: '  name value' lines."""
    counters, inside = {}, False
    for line in lines:
        if "shutting down; counters:" in line:
            inside = True
            continue
        if inside:
            parts = line.split()
            if len(parts) == 2 and parts[1].isdigit():
                counters[parts[0]] = int(parts[1])
    if not inside:
        raise BenchError("bftbcd printed no exit counter dump")
    return counters


def run_once(out, spec, args, seconds, traced, cfg_path, setups, tag):
    """One cluster lifetime: `setups` set-ups (all but the last torn down
    again), then the workload. Returns a dict of raw readings."""
    setup_times = []
    for i in range(setups):
        cluster = Cluster(out, spec, cfg_path, args, traced, seconds, tag)
        setup_times.append(cluster.setup_s)
        if i + 1 < setups:
            cluster.gen.p.stdin.close()  # no GO: the generator exits
            for p in cluster.procs():
                p.stop()
            cluster.kill()
    try:
        return drive(cluster, seconds) | {"setup_times": setup_times}
    finally:
        cluster.kill()


def drive(cluster, seconds):
    gen = cluster.gen
    deadline = time.monotonic() + seconds + 100
    pids = [p.p.pid for p in cluster.procs()]
    gen.write("GO\n")
    marks = []
    for label in ("WINDOW_START", "WINDOW_END"):
        wait_for([(gen, label)], deadline)
        if cluster.traced:
            for r in cluster.replicas:
                r.write("M")
        marks.append({"cpu": [proc_cpu_s(pid) for pid in pids],
                      "host": host_cpu_times()})
    [(_, line)] = wait_for([(gen, "LIVEBENCH_GEN ")], deadline)
    report = json.loads(line.split(" ", 1)[1])
    if gen.stop(timeout=30, term=False) != 0:
        raise BenchError(f"generator exited {gen.p.returncode}")
    replicas = []
    for r in cluster.replicas:
        code = r.stop()
        if code != 0:
            raise BenchError(f"replica exited {code}: {r.stderr_tail()}")
        lines = [text for _, text in r.lines]
        if cluster.traced:
            line = next(l for l in lines if l.startswith("LIVEBENCH_REPLICA "))
            replicas.append(json.loads(line.split(" ", 1)[1]))
        else:
            replicas.append(parse_bftbcd_dump(lines))
    cpu = [b - a for a, b in zip(marks[0]["cpu"], marks[1]["cpu"])]
    steal, idle = host_fracs(marks[0]["host"], marks[1]["host"])
    return {"gen": report, "replicas": replicas,
            "replica_cpu_s": cpu[:REPLICAS], "gen_cpu_s": cpu[REPLICAS],
            "steal_frac": steal, "idle_frac": idle}


# -------------------------------------------------------------- metrics

def ratio(num, den):
    return num / den if den else 0.0


def window_ops(gen):
    return gen["window_writes"] + gen["window_reads"]


def median_ops_per_second(gen):
    """Median over the window's whole seconds of the ops completed in
    each. Host steal comes in episodes of seconds; a median over the
    seconds follows the run's usual rate, where ops / window length
    would take the rate of each episode in with it (see README.md)."""
    bins = [int(b) for b in gen["ops_per_second"].split()]
    if not bins:
        return ratio(window_ops(gen), gen["window_s"])
    return statistics.median(bins)


def end_to_end(run):
    """The end-to-end metrics of one untraced run."""
    gen = run["gen"]
    ops = window_ops(gen)
    cpu_s = sum(run["replica_cpu_s"]) + run["gen_cpu_s"]
    return {
        "throughput_ops_s": median_ops_per_second(gen),
        "op_p50_ms": gen["op_ms"]["p50_ms"],
        "write_p50_ms": gen["write_ms"]["p50_ms"],
        "cpu_us_per_op": ratio(cpu_s * 1e6, ops),
        "setup_s": statistics.median(run["setup_times"]),
    }


def total(replicas, *path):
    """Sum of one nested field over the replicas' reports."""
    s = 0
    for rep in replicas:
        v = rep
        for key in path:
            v = v.get(key, 0) if isinstance(v, dict) else 0
        s += v
    return s


def per_layer(untraced, traced):
    """The per-layer metrics, from an untraced run (bftbcd daemons: CPU
    from /proc and their exit dumps) and a traced run (livebench_replica
    hosts and the traced generator)."""
    ga, gb = untraced["gen"], traced["gen"]
    ops_a, ops_b = window_ops(ga), window_ops(gb)
    # Exit dumps cover the daemons' whole life: every op the generator
    # completed, warmup and read-back included.
    all_ops_a = ga["attempted"] - ga["failed"]
    dumps = untraced["replicas"]
    reps = traced["replicas"]
    n = len(reps)

    def per_replica_op(value, ops):
        return ratio(value, n * ops)

    def dump_sum(pred):
        return sum(v for d in dumps for k, v in d.items() if pred(k))

    sock = lambda key, clock="ns": total(reps, "sockets", key, clock)
    ks = lambda key: total(reps, "keystore", key)
    cks = lambda key: gb["keystore"].get(key, 0)
    client_total = ga["client_counters_total"]
    costs = gb["unit_costs"]

    m = {}
    # Tails of the untraced run: tracked, not gated (see README.md).
    m["e2e.op_p99_ms"] = ga["op_ms"]["p99_ms"]
    m["e2e.write_p99_ms"] = ga["write_ms"]["p99_ms"]
    m["replica.cpu_us_per_op"] = per_replica_op(
        sum(untraced["replica_cpu_s"]) * 1e6, ops_a)
    m["client.cpu_us_per_op"] = ratio(ga["cpu_ns"] / 1e3, ops_a)
    m["net.replica.datagrams_out_per_op"] = per_replica_op(
        total(reps, "sockets", "sendto_ok"), ops_b)
    m["net.replica.datagrams_in_per_op"] = per_replica_op(
        total(reps, "sockets", "recvfrom_ok"), ops_b)
    m["net.replica.syscall_us_per_op"] = per_replica_op(
        (sock("sendto") + sock("recvfrom")) / 1e3, ops_b)
    m["net.client.syscall_us_per_op"] = ratio(
        (gb["sockets"]["sendto"]["ns"] + gb["sockets"]["recvfrom"]["ns"])
        / 1e3, ops_b)
    m["net.replica.wait_us_per_op"] = per_replica_op(sock("wait") / 1e3,
                                                     ops_b)
    m["net.client.wait_us_per_op"] = ratio(
        gb["sockets"]["wait"]["ns"] / 1e3, ops_b)
    callbacks_ns = (total(reps, "process", "cpu_ns")
                    + total(reps, "deliver", "cpu_ns")
                    + sock("sendto", "cpu_ns") + sock("recvfrom", "cpu_ns"))
    m["net.replica.loop_us_per_op"] = per_replica_op(
        (total(reps, "thread_cpu_ns") - callbacks_ns) / 1e3, ops_b)
    m["net.bytes_per_op"] = ratio(
        total(reps, "transport", "bytes_sent")
        + gb["transport"].get("bytes_sent", 0), ops_b)
    m["net.envelopes_per_datagram"] = ratio(
        total(reps, "deliver", "count"),
        total(reps, "transport", "msgs_delivered"))
    m["net.replica.dropped_per_op"] = per_replica_op(
        dump_sum(lambda k: k == "net/msgs_dropped"), all_ops_a)
    m["rpc.encodes_per_op"] = ratio(
        total(reps, "transport", "encode_calls")
        + gb["transport"].get("encode_calls", 0), ops_b)
    m["rpc.client.sends_per_phase"] = ratio(
        gb["transport"].get("msgs_sent", 0),
        gb["client_counters"].get("write_phases", 0)
        + gb["client_counters"].get("read_phases", 0))
    m["bftbc.replica.process_us_per_op"] = per_replica_op(
        total(reps, "process", "cpu_ns") / 1e3, ops_b)
    m["bftbc.replica.deliver_us_per_op"] = per_replica_op(
        total(reps, "deliver", "cpu_ns") / 1e3, ops_b)
    m["bftbc.replica.msgs_per_batch"] = ratio(
        dump_sum(lambda k: k == "batch_verify_msgs"),
        dump_sum(lambda k: k == "batch_flushes"))
    m["bftbc.replica.rejects_per_op"] = per_replica_op(
        dump_sum(lambda k: k.startswith("drop_")), all_ops_a)
    m["bftbc.client.handler_us_per_op"] = ratio(
        gb["handler"]["cpu_ns"] / 1e3, ops_b)
    m["bftbc.client.phases_per_write"] = ratio(
        client_total.get("write_phases", 0), client_total.get("writes", 0))
    m["bftbc.client.phases_per_read"] = ratio(
        client_total.get("read_phases", 0), client_total.get("reads", 0))
    m["bftbc.client.slow_write_frac"] = ratio(
        client_total.get("opt_slow_writes", 0), client_total.get("writes", 0))
    m["crypto.replica.verifies_per_op"] = per_replica_op(ks("verify"), ops_b)
    m["crypto.replica.cache_hit_frac"] = ratio(
        ks("sig_cache_hit"), ks("sig_cache_hit") + ks("sig_cache_miss"))
    m["crypto.replica.signs_per_op"] = per_replica_op(ks("sign"), ops_b)
    m["crypto.replica.macs_per_op"] = per_replica_op(
        ks("mac_sign") + ks("mac_verify"), ops_b)
    m["crypto.client.verifies_per_op"] = ratio(cks("verify"), ops_b)
    m["crypto.client.cache_hit_frac"] = ratio(
        cks("sig_cache_hit"), cks("sig_cache_hit") + cks("sig_cache_miss"))
    m["crypto.client.signs_per_op"] = ratio(cks("sign"), ops_b)
    m["crypto.client.macs_per_op"] = ratio(
        cks("mac_sign") + cks("mac_verify"), ops_b)
    for unit in ("sign_us", "verify_us", "verify_cached_hit_us", "mac_us",
                 "sha256_4k_us"):
        m["crypto." + unit] = costs[unit]
    m["crypto.replica.est_us_per_op"] = (
        m["crypto.replica.verifies_per_op"] * costs["verify_us"]
        + per_replica_op(ks("sig_cache_hit"), ops_b)
        * costs["verify_cached_hit_us"]
        + m["crypto.replica.signs_per_op"] * costs["sign_us"]
        + m["crypto.replica.macs_per_op"] * costs["mac_us"])
    m["trace.overhead_frac"] = 1.0 - ratio(
        ratio(ops_b, gb["window_s"]), ratio(ops_a, ga["window_s"]))
    m["host.steal_frac"] = (untraced["steal_frac"] + traced["steal_frac"]) / 2
    m["host.idle_frac"] = (untraced["idle_frac"] + traced["idle_frac"]) / 2
    return m


PER_LAYER_UNITS = {
    "e2e.op_p99_ms": "ms", "e2e.write_p99_ms": "ms",
    "replica.cpu_us_per_op": "us", "client.cpu_us_per_op": "us",
    "net.replica.datagrams_out_per_op": "count",
    "net.replica.datagrams_in_per_op": "count",
    "net.replica.syscall_us_per_op": "us",
    "net.client.syscall_us_per_op": "us",
    "net.replica.wait_us_per_op": "us", "net.client.wait_us_per_op": "us",
    "net.replica.loop_us_per_op": "us", "net.bytes_per_op": "bytes",
    "net.envelopes_per_datagram": "count",
    "net.replica.dropped_per_op": "count", "rpc.encodes_per_op": "count",
    "rpc.client.sends_per_phase": "count",
    "bftbc.replica.process_us_per_op": "us",
    "bftbc.replica.deliver_us_per_op": "us",
    "bftbc.replica.msgs_per_batch": "count",
    "bftbc.replica.rejects_per_op": "count",
    "bftbc.client.handler_us_per_op": "us",
    "bftbc.client.phases_per_write": "count",
    "bftbc.client.phases_per_read": "count",
    "bftbc.client.slow_write_frac": "fraction",
    "crypto.replica.verifies_per_op": "count",
    "crypto.replica.cache_hit_frac": "fraction",
    "crypto.replica.signs_per_op": "count",
    "crypto.replica.macs_per_op": "count",
    "crypto.client.verifies_per_op": "count",
    "crypto.client.cache_hit_frac": "fraction",
    "crypto.client.signs_per_op": "count",
    "crypto.client.macs_per_op": "count",
    "crypto.sign_us": "us", "crypto.verify_us": "us",
    "crypto.verify_cached_hit_us": "us", "crypto.mac_us": "us",
    "crypto.sha256_4k_us": "us", "crypto.replica.est_us_per_op": "us",
    "trace.overhead_frac": "fraction",
    "host.steal_frac": "fraction", "host.idle_frac": "fraction",
}


def check_run(run):
    """Correctness of one run: the checker verdict on the history, and in
    a traced run every crypto call timed for the unit costs succeeded."""
    gen = run["gen"]
    ok = gen["checker"]["ok"]
    if not ok:
        log(f"checker verdict not clean: {gen['checker']['violation']}")
    if "unit_costs" in gen and not gen["unit_costs"]["checks_passed"]:
        log("a sign, verify or MAC check failed while timing unit costs")
        ok = False
    return ok


def sample_counts(run):
    gen = run["gen"]
    return {op: gen[op + "_ms"] for op in ("op", "write", "read")}


# ----------------------------------------------------------------- main

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if args.selftest:
        out = build(["livebench_selftest"])
        code = subprocess.run([os.path.join(out, "livebench_selftest")]).returncode
        code |= subprocess.run(
            [sys.executable, "-m", "unittest", "discover", "-s", HERE,
             "-p", "test_*.py"]).returncode
        return code
    if args.workload is None:
        ap.error("--workload is required")

    spec = WORKLOADS[args.workload]
    started = time.monotonic()
    out = build(["bftbcd", "livebench_gen", "livebench_replica"])
    log(f"build ready in {time.monotonic() - started:.1f}s")
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    cfg_path = os.path.join(run_dir, f"{args.workload}.json")
    write_cluster_config(cfg_path, spec)

    if args.trace == 0:
        run = run_once(out, spec, args, args.seconds, False, cfg_path,
                       spec["setups"], args.workload)
        runs = [run]
        metrics = end_to_end(run)
        units = END_TO_END_UNITS
    else:
        half = args.seconds / 2
        untraced = run_once(out, spec, args, half, False, cfg_path, 1,
                            args.workload)
        traced = run_once(out, spec, args, half, True, cfg_path, 1,
                          args.workload)
        runs = [untraced, traced]
        metrics = per_layer(untraced, traced)
        units = PER_LAYER_UNITS

    correct = all(check_run(r) for r in runs)
    attempted = sum(r["gen"]["attempted"] for r in runs)
    failed = sum(r["gen"]["failed"] for r in runs)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "conditions": run_conditions(out)
                      | {"steal_frac": runs[0]["steal_frac"],
                         "idle_frac": runs[0]["idle_frac"]},
                      "samples": sample_counts(runs[0]),
                      "ops_per_second": runs[0]["gen"]["ops_per_second"],
                      "setup_times_s": runs[0]["setup_times"]}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run still stops its daemons (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(2)

// livebench_replica — one traced BFT-BC replica process.
//
// Builds core::Replica exactly as tools/bftbcd does from the same cluster
// file (same keystore, principals, transport, options), with two
// differences: the replica is handed a TimedTransport and a
// TimedScheduler wrapped around the real UdpTransport and EventLoop, and
// the socket/wait calls are the counting wrappers from trace.cpp.
//
//   livebench_replica --config cluster.json --replica 0 --spans out.tsv
//
// Control: each 'M' byte read on stdin marks a window boundary (the
// first opens the measured window, the second closes it); SIGTERM stops
// the loop. At exit the host prints one JSON line with the window's
// deltas — callback and delivery time, socket calls, thread CPU, and the
// replica, transport and keystore counters — and writes its spans.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <memory>

#include "bftbc/replica.h"
#include "json_out.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "trace.h"
#include "util/flags.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Snapshot {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  livebench::TimeStat process;
  livebench::TimeStat deliver;
  livebench::SocketCounters sockets;
  std::map<std::string, std::uint64_t> replica, transport, keystore;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bftbc;
  using livebench::JsonOut;

  FlagSet flags;
  auto& config_path = flags.add_string("config", "", "cluster JSON file");
  auto& replica_id = flags.add_int("replica", -1, "replica index (0..3f)");
  auto& spans_path = flags.add_string("spans", "", "span TSV written at exit");
  flags.parse(argc, argv);

  auto loaded = net::ClusterConfig::load(*config_path);
  if (!loaded.is_ok() || *replica_id < 0) {
    std::fprintf(stderr, "livebench_replica: need --config and --replica\n");
    return 2;
  }
  const net::ClusterConfig& cluster = loaded.value();
  const auto r = static_cast<quorum::ReplicaId>(*replica_id);
  const quorum::QuorumConfig quorum = cluster.quorum();
  if (!quorum.valid_replica(r)) return 2;

  crypto::Keystore keystore(cluster.signature_scheme(), cluster.shard_seed(0),
                            cluster.rsa_bits);
  net::register_cluster_principals(cluster, keystore);

  net::EventLoop loop;
  auto peers = net::replica_endpoints(cluster, 0);
  if (!peers.is_ok()) return 2;
  const net::UdpEndpoint bind_to = peers.value().at(r);
  net::UdpTransport transport(loop, r, bind_to, peers.value());
  if (!transport.valid()) {
    std::fprintf(stderr, "livebench_replica: cannot bind UDP %s\n",
                 bind_to.to_string().c_str());
    return 1;
  }

  livebench::SpanLog spans(livebench::kSpanCapacity);
  livebench::TimedTransport timed_transport(transport, "replica.deliver",
                                            &spans);
  livebench::TimedScheduler timed_scheduler(loop, "replica.process", &spans);
  livebench::set_socket_tracing(true);

  core::ReplicaOptions ropts;
  ropts.optimized = cluster.optimized();
  ropts.strong = cluster.strong();
  ropts.mac_auth = cluster.mac_auth();
  core::Replica replica(quorum, r, keystore, timed_transport, timed_scheduler,
                        ropts);

  auto snapshot = [&] {
    Snapshot s;
    s.wall_ns = livebench::now_ns();
    s.cpu_ns = livebench::thread_cpu_ns();
    s.process = timed_scheduler.callbacks();
    s.deliver = timed_transport.deliveries();
    s.sockets = livebench::socket_counters();
    s.replica = replica.metrics().all();
    s.transport = transport.counters().all();
    s.keystore = keystore.counters().all();
    return s;
  };
  std::vector<Snapshot> marks;
  loop.watch_fd(STDIN_FILENO, [&] {
    char buf[64];
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n <= 0) {
      loop.unwatch_fd(STDIN_FILENO);
      return;
    }
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == 'M') marks.push_back(snapshot());
    }
  });

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::function<void()> poll_stop = [&] {
    if (g_stop != 0) {
      loop.stop();
      return;
    }
    loop.schedule(50 * sim::kMillisecond, poll_stop);
  };
  loop.schedule(50 * sim::kMillisecond, poll_stop);

  const Snapshot launch = snapshot();
  std::printf("livebench_replica: replica %u listening on %s\n", r,
              bind_to.to_string().c_str());
  std::fflush(stdout);
  loop.run();

  const Snapshot& a = marks.size() >= 2 ? marks[0] : launch;
  const Snapshot b = marks.size() >= 2 ? marks[1] : snapshot();
  using livebench::counter_delta;
  JsonOut out;
  out.u64("replica", r)
      .boolean("windowed", marks.size() >= 2)
      .u64("wall_ns", b.wall_ns - a.wall_ns)
      .u64("thread_cpu_ns", b.cpu_ns - a.cpu_ns)
      .time_stat("process", b.process - a.process)
      .time_stat("deliver", b.deliver - a.deliver)
      .sockets("sockets", b.sockets - a.sockets)
      .counters("replica_counters", counter_delta(a.replica, b.replica))
      .counters("transport", counter_delta(a.transport, b.transport))
      .counters("keystore", counter_delta(a.keystore, b.keystore))
      .u64("spans", spans.spans().size())
      .u64("span_overflow", spans.overflow());
  std::printf("LIVEBENCH_REPLICA %s\n", out.text().c_str());
  std::fflush(stdout);
  if (!(*spans_path).empty() && !spans.write_tsv(*spans_path)) {
    std::fprintf(stderr, "livebench_replica: cannot write %s\n",
                 (*spans_path).c_str());
    return 1;
  }
  return 0;
}

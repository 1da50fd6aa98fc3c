// livebench_gen — the benchmark's closed-loop load generator.
//
// One process, one event-loop thread, one UDP socket per client: each
// client is a shard::RoutingClient over one core::Client leg on a
// net::UdpTransport, the same stack tools/bftbc_bench builds. Each client
// keeps one operation outstanding and issues the next from the previous
// one's completion callback.
//
// Phases, announced on stdout for run.py, which owns the daemons:
//   READY            keystore and sockets built; waits for "GO" on stdin
//   warmup           --warmup-ops uncounted ops per client
//   WINDOW_START     measured window of --seconds
//   WINDOW_END       no new ops; in-flight ops drain
//   read-back        every object read once (checked, not timed)
//   LIVEBENCH_GEN {...}  the run's report, after the correctness check
//
// Correctness: every completed op enters a checker::History; at exit,
// outside every timed phase, each object's history goes through
// check_bft_linearizability (objects on up to four threads; the load
// itself runs on the loop thread alone). A read returning bytes that
// differ from an earlier read of the same version also fails the check.
//
// --trace puts TimedTransport decorators on the client legs, turns on
// the socket-call wrappers, records spans, and times the public crypto
// calls on this cluster's scheme (crypto unit costs).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bftbc/client.h"
#include "checker/bft_linearizability.h"
#include "crypto/sha256.h"
#include "json_out.h"
#include "net/cluster_config.h"
#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "shard/routing_client.h"
#include "trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/zipf.h"

namespace {

using namespace bftbc;
using livebench::JsonOut;

enum class Phase { kWarmup, kWindow, kDrain, kReadback, kDone };

constexpr double kZipfTheta = 0.99;  // YCSB's skew
// An op still unanswered after this counts as failed (bftbc_bench's
// default); no op comes near it on loopback.
constexpr sim::Time kOpDeadline = 5 * sim::kSecond;

// One completed op, compact: values live in Gen::values_ by index.
struct OpRecord {
  bool read = false;
  quorum::ClientId client = 0;
  quorum::ObjectId object = 0;
  sim::Time invoked = 0;
  sim::Time responded = 0;
  quorum::Timestamp ts;
  crypto::Digest hash{};  // reads only; writes hash their value at check
  std::uint32_t value = 0;
};

struct GenClient {
  std::unique_ptr<net::UdpTransport> transport;
  std::unique_ptr<livebench::TimedTransport> timed;  // --trace 1 only
  std::unique_ptr<core::Client> leg;
  std::unique_ptr<shard::RoutingClient> router;
  quorum::ClientId id = 0;
  Rng rng{0};
  std::uint64_t done = 0;  // completed ops, every phase
  std::uint64_t op_key = 0;  // current op id, for spans
  std::uint64_t seq = 0;
  bool busy = false;
  std::vector<quorum::ObjectId> readback;  // objects still to read back
  std::uint64_t own_turn = 0;  // round-robin over the client's objects
};

struct Workload {
  std::uint64_t warmup_ops = 0;
  std::uint64_t window_ns = 0;
  std::size_t value_bytes = 256;
  double read_fraction = 0.0;
  std::uint64_t objects = 0;
  std::uint64_t objects_per_client = 1;
  // Null: client i owns objects i*k+1 .. i*k+k (k = objects_per_client)
  // and cycles through them, so its writes never contend with another's.
  const ZipfGenerator* zipf = nullptr;
};

// Everything read at the window boundaries, for window deltas.
struct Mark {
  sim::Time loop_ns = 0;  // the loop clock, which stamps op records
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  livebench::SocketCounters sockets;
  livebench::TimeStat handler;
  std::map<std::string, std::uint64_t> client, transport, keystore;
};

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

void add_all(std::map<std::string, std::uint64_t>& into, const Counters& c) {
  for (const auto& [k, v] : c.all()) into[k] += v;
}

// One op type's latencies as the util::Summary percentiles, with the
// sample count and how many samples rank above each tail percentile.
JsonOut latency_json(const Summary& s) {
  const Summary::Snapshot snap = s.snapshot();
  // Summary takes the nearest rank, round(q * (n - 1)).
  auto beyond = [&](double q) -> std::uint64_t {
    if (snap.count == 0) return 0;
    const double last = static_cast<double>(snap.count - 1);
    return snap.count - 1 - static_cast<std::uint64_t>(q * last + 0.5);
  };
  return JsonOut()
      .u64("count", snap.count)
      .num("p50_ms", snap.p50)
      .num("p90_ms", snap.p90)
      .u64("beyond_p90", beyond(0.9))
      .num("p99_ms", snap.p99)
      .u64("beyond_p99", beyond(0.99));
}

class Gen {
 public:
  Gen(net::EventLoop& loop, const Workload& w, crypto::Keystore& keystore,
      livebench::SpanLog* spans)
      : loop_(loop), w_(w), keystore_(keystore), spans_(spans) {}

  std::vector<std::unique_ptr<GenClient>> clients;

  void run() {
    for (auto& c : clients) issue(*c);
    loop_.run();
  }

  Mark mark() const {
    Mark m;
    m.loop_ns = loop_.now();
    m.wall_ns = livebench::now_ns();
    m.cpu_ns = process_cpu_ns();
    m.sockets = livebench::socket_counters();
    for (const auto& c : clients) {
      if (c->timed) {
        const livebench::TimeStat& d = c->timed->deliveries();
        m.handler.count += d.count;
        m.handler.ns += d.ns;
        m.handler.cpu_ns += d.cpu_ns;
      }
      add_all(m.client, c->leg->metrics());
      add_all(m.transport, c->transport->counters());
    }
    for (const auto& [k, v] : keystore_.counters().all()) m.keystore[k] = v;
    return m;
  }

  // Ops completed in each whole second of the window, to show how
  // steady the load was within the run.
  std::vector<std::uint64_t> ops_per_second() const {
    const sim::Time a = start_mark.loop_ns, b = end_mark.loop_ns;
    std::vector<std::uint64_t> bins((b - a) / sim::kSecond);
    for (const OpRecord& r : records_) {
      if (r.responded < a) continue;
      const sim::Time bin = (r.responded - a) / sim::kSecond;
      if (bin < bins.size()) ++bins[bin];
    }
    return bins;
  }

  // Runs check_bft_linearizability on each object's history; returns
  // the number of ops checked, with `violation` set on any failure.
  std::size_t check(std::string& violation) const {
    std::map<quorum::ObjectId, std::vector<const OpRecord*>> by_object;
    for (const OpRecord& r : records_) by_object[r.object].push_back(&r);
    std::vector<const std::vector<const OpRecord*>*> objects;
    for (const auto& [object, ops] : by_object) objects.push_back(&ops);
    // The checker is quadratic in one object's history; objects are
    // independent, so they are checked on up to four threads.
    std::vector<std::string> verdicts(objects.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i; (i = next++) < objects.size();) {
        verdicts[i] = check_object(*objects[i]);
      }
    };
    const std::size_t n_threads = std::min<std::size_t>(
        {4, objects.size(), std::max(1u, std::thread::hardware_concurrency())});
    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < n_threads; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();

    violation = read_mismatch_;
    for (const std::string& v : verdicts) {
      if (violation.empty()) violation = v;
    }
    return records_.size();
  }

  Summary write_lat, read_lat;
  Summary op_latency() const {
    Summary all = write_lat;
    all.merge(read_lat);
    return all;
  }
  std::uint64_t window_writes = 0, window_reads = 0;
  std::uint64_t attempted = 0, failed = 0;
  Mark start_mark, end_mark;

 private:
  void announce(const char* line) {
    std::printf("%s\n", line);
    std::fflush(stdout);
  }

  bool all_idle() const {
    for (const auto& c : clients) {
      if (c->busy) return false;
    }
    return true;
  }

  void maybe_open_window() {
    for (const auto& c : clients) {
      if (c->done < w_.warmup_ops) return;
    }
    phase_ = Phase::kWindow;
    start_mark = mark();
    announce("WINDOW_START");
    loop_.schedule(w_.window_ns, [this] {
      phase_ = Phase::kDrain;
      end_mark = mark();
      announce("WINDOW_END");
    });
  }

  void begin_readback() {
    phase_ = Phase::kReadback;
    for (std::uint64_t o = 1; o <= w_.objects; ++o) {
      clients[(o - 1) % clients.size()]->readback.push_back(o);
    }
    for (auto& c : clients) issue(*c);
  }

  quorum::ObjectId own_object(GenClient& c) const {
    const std::uint64_t k = w_.objects_per_client;
    return c.id * k + 1 + c.own_turn++ % k;
  }

  void issue(GenClient& c) {
    quorum::ObjectId object = 0;
    bool read = false;
    switch (phase_) {
      case Phase::kWarmup:
      case Phase::kWindow: {
        object = w_.zipf ? 1 + w_.zipf->next(c.rng) : own_object(c);
        // A client's first op writes, so fixed-object reads never see
        // an unwritten register.
        read = c.done > 0 && c.rng.next_double() < w_.read_fraction;
        break;
      }
      case Phase::kDrain:
        if (all_idle()) begin_readback();
        return;
      case Phase::kReadback:
        if (!c.readback.empty()) {
          object = c.readback.back();
          c.readback.pop_back();
        } else {
          if (all_idle()) {
            phase_ = Phase::kDone;
            loop_.stop();
          }
          return;
        }
        read = true;
        break;
      case Phase::kDone:
        return;
    }

    c.busy = true;
    ++attempted;
    c.op_key = (static_cast<std::uint64_t>(c.id) << 48) | ++c.seq;
    const sim::Time t0 = loop_.now();
    const std::uint64_t span_start = livebench::now_ns();
    auto done = [this, &c, read, object, t0, span_start](
                    bool ok, std::uint32_t value, quorum::Timestamp ts,
                    const crypto::Digest& hash) {
      const sim::Time t1 = loop_.now();
      c.busy = false;
      ++c.done;
      if (spans_ != nullptr) {
        spans_->add({"client.op", span_start, livebench::now_ns(), c.op_key,
                     read ? 1u : 0u});
      }
      if (!ok) {
        ++failed;
      } else {
        records_.push_back({read, c.id, object, t0, t1, ts, hash, value});
        const double ms = static_cast<double>(t1 - t0) / sim::kMillisecond;
        if (phase_ == Phase::kWindow) {
          (read ? read_lat : write_lat).add(ms);
          ++(read ? window_reads : window_writes);
        }
      }
      if (phase_ == Phase::kWarmup) maybe_open_window();
      issue(c);
    };

    if (read) {
      c.router->read(object, [this, object, done](
                                 Result<core::Client::ReadResult> r) {
        if (!r.is_ok()) return done(false, 0, {}, {});
        done(true, store_read_value(object, r.value()), r.value().ts,
             r.value().hash);
      });
    } else {
      Bytes value(w_.value_bytes);
      for (std::size_t i = 0; i < value.size(); i += 8) {
        const std::uint64_t x = c.rng.next_u64();
        for (std::size_t j = 0; j < 8 && i + j < value.size(); ++j) {
          value[i + j] = static_cast<std::uint8_t>(x >> (8 * j));
        }
      }
      const auto index = static_cast<std::uint32_t>(values_.size());
      values_.push_back(value);
      c.router->write(object, std::move(value),
                      [done, index](Result<core::Client::WriteResult> r) {
                        done(r.is_ok(), index,
                             r.is_ok() ? r.value().ts : quorum::Timestamp{},
                             {});
                      });
    }
  }

  // Empty when one object's history is BFT-linearizable, else the verdict.
  std::string check_object(const std::vector<const OpRecord*>& ops) const {
    checker::History h;
    for (const OpRecord* r : ops) {
      checker::Operation op;
      op.kind = r->read ? checker::OpKind::kRead : checker::OpKind::kWrite;
      op.client = r->client;
      op.object = r->object;
      op.invoked = r->invoked;
      op.responded = r->responded;
      op.value = values_[r->value];
      op.version.ts = r->ts;
      op.version.hash = r->read ? r->hash : crypto::sha256(op.value);
      h.add_completed(std::move(op));
    }
    const auto verdict = checker::check_bft_linearizability(h, {});
    if (verdict.ok(0)) return "";
    return "object " + std::to_string(ops.front()->object) + ": " +
           verdict.summary() +
           (verdict.violations.empty()
                ? ""
                : " first: " + verdict.violations.front());
  }

  // Keeps one copy of each distinct (object, version hash) a read
  // returned; a later read of the same version must return equal bytes.
  std::uint32_t store_read_value(quorum::ObjectId object,
                                 const core::Client::ReadResult& r) {
    auto [it, inserted] = read_values_.try_emplace(
        {object, r.hash}, static_cast<std::uint32_t>(values_.size()));
    if (inserted) {
      values_.push_back(r.value);
    } else if (values_[it->second] != r.value && read_mismatch_.empty()) {
      read_mismatch_ = "object " + std::to_string(object) +
                       ": two reads of one version returned different bytes";
    }
    return it->second;
  }

  net::EventLoop& loop_;
  Workload w_;
  crypto::Keystore& keystore_;
  livebench::SpanLog* spans_;
  Phase phase_ = Phase::kWarmup;
  std::vector<OpRecord> records_;
  std::vector<Bytes> values_;
  std::map<std::pair<quorum::ObjectId, crypto::Digest>, std::uint32_t>
      read_values_;
  std::string read_mismatch_;
};

// Mean wall time of `fn` over enough calls to fill ~`budget_ns`.
template <typename Fn>
double time_us(Fn&& fn, std::uint64_t budget_ns = 200'000'000) {
  std::uint64_t calls = 0;
  const std::uint64_t t0 = livebench::now_ns();
  std::uint64_t t1 = t0;
  while (calls < 10 || (t1 - t0 < budget_ns && calls < 200'000)) {
    fn();
    ++calls;
    t1 = livebench::now_ns();
  }
  return static_cast<double>(t1 - t0) / 1000.0 / static_cast<double>(calls);
}

// Unit costs of the public crypto calls on this cluster's scheme, on a
// statement the size of a certificate statement.
JsonOut unit_costs(crypto::Keystore& keystore, Rng& rng) {
  Bytes stmt(96), block(4096);
  for (auto& b : stmt) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_u64());
  const crypto::PrincipalId signer_id = quorum::replica_principal(0);
  const crypto::PrincipalId peer = quorum::client_principal(0);
  crypto::Signer signer = keystore.register_principal(signer_id);
  const Bytes sig = signer.sign(stmt).value();
  const Bytes tag = signer.mac(peer, stmt).value();
  bool sink = true;
  JsonOut out;
  out.num("sign_us", time_us([&] { sink &= signer.sign(stmt).is_ok(); }));
  out.num("verify_us",
          time_us([&] { sink &= keystore.verify(signer_id, stmt, sig); }));
  (void)keystore.verify_cached(signer_id, stmt, sig);  // fill the entry
  out.num("verify_cached_hit_us", time_us([&] {
            sink &= keystore.verify_cached(signer_id, stmt, sig);
          }));
  out.num("mac_us", time_us([&] {
            sink &= keystore.mac_check(signer_id, peer, stmt, tag);
          }));
  crypto::Digest d{};
  out.num("sha256_4k_us", time_us([&] { d = crypto::sha256(block); }));
  out.boolean("checks_passed", sink && d != crypto::Digest{});
  return out;
}

std::string ops_per_second_text(const std::vector<std::uint64_t>& bins) {
  std::string s;
  for (std::uint64_t b : bins) s += (s.empty() ? "" : " ") + std::to_string(b);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& config_path = flags.add_string("config", "", "cluster JSON file");
  auto& n_clients = flags.add_int("clients", 4, "closed-loop clients (<= 4)");
  auto& seconds = flags.add_double("seconds", 10, "measured window");
  auto& warmup = flags.add_int("warmup-ops", 100, "uncounted ops per client");
  auto& value_bytes = flags.add_int("value-bytes", 256, "write payload size");
  auto& read_fraction = flags.add_double("read-fraction", 0.0, "read share");
  auto& objects = flags.add_int("objects", 0, "zipfian key space (0: one "
                                "object per client)");
  auto& per_client = flags.add_int(
      "objects-per-client", 1, "objects each client owns (no --objects)");
  auto& seed = flags.add_u64("seed", 1, "workload seed");
  auto& trace = flags.add_bool("trace", false, "trace the client layers");
  auto& spans_path = flags.add_string("spans", "", "span TSV (with --trace)");
  flags.parse(argc, argv);

  auto loaded = net::ClusterConfig::load(*config_path);
  if (!loaded.is_ok()) {
    std::fprintf(stderr, "livebench_gen: %s\n",
                 loaded.status().message().c_str());
    return 2;
  }
  const net::ClusterConfig& cluster = loaded.value();
  const auto clients_n = static_cast<std::uint32_t>(*n_clients);
  if (clients_n == 0 || clients_n > 4 || clients_n > cluster.max_clients ||
      cluster.shard_count() != 1) {
    std::fprintf(stderr, "livebench_gen: need 1..4 clients, one shard\n");
    return 2;
  }

  crypto::Keystore keystore(cluster.signature_scheme(), cluster.shard_seed(0),
                            cluster.rsa_bits);
  net::register_cluster_principals(cluster, keystore);
  auto peers = net::replica_endpoints(cluster, 0);
  if (!peers.is_ok()) return 2;
  std::vector<sim::NodeId> replica_nodes;
  for (const auto& [node, ep] : peers.value()) replica_nodes.push_back(node);

  Workload w;
  w.warmup_ops = static_cast<std::uint64_t>(*warmup);
  w.window_ns = static_cast<std::uint64_t>(*seconds * 1e9);
  w.value_bytes = static_cast<std::size_t>(*value_bytes);
  w.read_fraction = *read_fraction;
  w.objects_per_client = static_cast<std::uint64_t>(*per_client);
  w.objects = *objects > 0 ? static_cast<std::uint64_t>(*objects)
                           : clients_n * w.objects_per_client;
  std::unique_ptr<ZipfGenerator> zipf;
  if (*objects > 0) {
    zipf = std::make_unique<ZipfGenerator>(w.objects, kZipfTheta);
    w.zipf = zipf.get();
  }

  net::EventLoop loop;
  std::unique_ptr<livebench::SpanLog> spans;
  if (*trace) {
    spans = std::make_unique<livebench::SpanLog>(livebench::kSpanCapacity);
  }
  Gen gen(loop, w, keystore, spans.get());
  Rng rng(*seed);
  const shard::ShardMap shard_map(1);
  auto bind_any = net::UdpEndpoint::parse("127.0.0.1", 0);
  for (std::uint32_t i = 0; i < clients_n; ++i) {
    auto c = std::make_unique<GenClient>();
    c->id = i;
    c->transport = std::make_unique<net::UdpTransport>(
        loop, net::client_node(i), *bind_any, peers.value());
    if (!c->transport->valid()) {
      std::fprintf(stderr, "livebench_gen: cannot bind client socket\n");
      return 1;
    }
    rpc::Transport* leg_transport = c->transport.get();
    if (*trace) {
      c->timed = std::make_unique<livebench::TimedTransport>(
          *c->transport, "client.handler", spans.get(), &c->op_key);
      leg_transport = c->timed.get();
    }
    core::ClientOptions copts;
    copts.optimized = cluster.optimized();
    copts.strong = cluster.strong();
    copts.mac_auth = cluster.mac_auth();
    copts.op_deadline = kOpDeadline;
    c->leg = std::make_unique<core::Client>(cluster.quorum(), i, keystore,
                                            *leg_transport, loop,
                                            replica_nodes, Rng(rng.next_u64()),
                                            copts);
    c->router = std::make_unique<shard::RoutingClient>(
        shard_map, std::vector<core::Client*>{c->leg.get()}, loop);
    c->rng = Rng(rng.next_u64());
    gen.clients.push_back(std::move(c));
  }

  std::printf("READY\n");
  std::fflush(stdout);
  std::string go;
  if (!std::getline(std::cin, go) || go != "GO") return 3;

  livebench::set_socket_tracing(*trace);
  gen.run();
  livebench::set_socket_tracing(false);

  const Mark& a = gen.start_mark;
  const Mark& b = gen.end_mark;
  const Mark final_mark = gen.mark();
  std::string violation;
  const std::size_t checked = gen.check(violation);

  using livebench::counter_delta;
  JsonOut out;
  out.num("window_s", static_cast<double>(b.wall_ns - a.wall_ns) / 1e9)
      .u64("window_writes", gen.window_writes)
      .u64("window_reads", gen.window_reads)
      .u64("attempted", gen.attempted)
      .u64("failed", gen.failed)
      .obj("write_ms", latency_json(gen.write_lat))
      .obj("read_ms", latency_json(gen.read_lat))
      .obj("op_ms", latency_json(gen.op_latency()))
      .u64("cpu_ns", b.cpu_ns - a.cpu_ns)
      .counters("client_counters", counter_delta(a.client, b.client))
      .counters("client_counters_total", final_mark.client)
      .str("ops_per_second", ops_per_second_text(gen.ops_per_second()))
      .counters("transport", counter_delta(a.transport, b.transport))
      .counters("keystore", counter_delta(a.keystore, b.keystore))
      .obj("checker", JsonOut()
                          .boolean("ok", violation.empty())
                          .u64("ops_checked", checked)
                          .str("violation", violation));
  if (*trace) {
    out.time_stat("handler", b.handler - a.handler)
        .sockets("sockets", b.sockets - a.sockets)
        .obj("unit_costs", unit_costs(keystore, rng));
    if (!(*spans_path).empty() && !spans->write_tsv(*spans_path)) {
      std::fprintf(stderr, "livebench_gen: cannot write spans\n");
      return 1;
    }
  }
  std::printf("LIVEBENCH_GEN %s\n", out.text().c_str());
  std::fflush(stdout);
  return 0;
}

// Test/bench harness: a fully wired BFT-BC deployment on the simulator.
//
// Owns the Simulator, Network, and `shards` independent 3f+1 replica
// groups — each with its own Keystore — plus any number of clients;
// provides synchronous write/read helpers that drive the event loop until
// the operation's callback fires. Replicas can be constructed through a
// factory hook so the fault-injection module can swap Byzantine
// implementations in.
//
// One shard is the single-group deployment; more shards partition the
// keyspace across groups (shard/shard_map.h). Sharding composes with the
// protocol because BFT-BC is per-object end to end: every certificate,
// prepare list, and timestamp chain names a single object, and an object
// lives in exactly one group. Each shard's keystore is seeded with
// shard::shard_key_seed (shard 0 keeps the base seed), so a certificate
// minted by group A never validates in group B.
//
// Node addressing:
//   replica r of shard s   -> NodeId s * kShardNodeStride + r
//   client c's shard-s leg -> NodeId kClientNodeBase * (s + 1) + c
// so shard 0 is exactly the single-group layout: replica r at NodeId r,
// client c at kClientNodeBase + c.
//
// Clients: every client id owns one protocol client ("leg") per shard.
// add_client() hands out the protocol client itself (one shard only);
// add_router() fronts the legs with a shard::RoutingClient at any shard
// count.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bftbc/client.h"
#include "bftbc/replica.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "shard/routing_client.h"
#include "shard/shard_map.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace bftbc::harness {

inline constexpr sim::NodeId kClientNodeBase = 0x10000;
inline constexpr sim::NodeId kShardNodeStride = 0x100;

inline sim::NodeId shard_replica_node(std::uint32_t shard,
                                      quorum::ReplicaId r) {
  return static_cast<sim::NodeId>(shard) * kShardNodeStride + r;
}

inline sim::NodeId shard_client_node(std::uint32_t shard,
                                     quorum::ClientId c) {
  return kClientNodeBase * (static_cast<sim::NodeId>(shard) + 1) + c;
}

inline sim::NodeId client_node(quorum::ClientId c) {
  return shard_client_node(0, c);
}

using ReplicaFactory = std::function<std::unique_ptr<core::Replica>(
    const quorum::QuorumConfig&, quorum::ReplicaId, crypto::Keystore&,
    rpc::Transport&, sim::Simulator&, const core::ReplicaOptions&)>;

struct ClusterOptions {
  std::uint32_t f = 1;
  bool optimized = false;  // applied to replicas and default client options
  bool strong = false;
  // MAC-authenticator mode (§3.3.2); applied to replicas and every
  // default-built client so both sides of the point-to-point channels
  // agree.
  bool mac_auth = false;
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacSim;
  std::size_t rsa_bits = 512;  // when scheme == kRsa
  std::uint64_t seed = 1;
  sim::LinkConfig link;
  core::ReplicaOptions replica;        // mode flags overridden by the above
  core::ClientOptions client_defaults; // mode flags overridden by the above
  // Per-slot construction hook; nullptr slots fall back to the default
  // correct replica. Keyed by in-group replica id and applied to the
  // SAME slot in every shard (a Byzantine slot in each independent group
  // stays within each group's f budget).
  std::map<quorum::ReplicaId, ReplicaFactory> replica_factories;
  // Ring-buffer event-trace capacity (0 disables tracing — hot benches).
  std::size_t trace_capacity = metrics::Tracer::kDefaultCapacity;
  // Same-tick send coalescing on every node's transport: envelopes bound
  // for one destination within a virtual-time instant travel as a single
  // wire message, feeding the replicas' same-tick batch verification
  // real multi-message batches (and the reply-signing amortization that
  // rides on them). Off by default: message-level tests count wire
  // traffic one envelope at a time.
  bool coalesce_sends = false;
  // Independent replica groups the keyspace is partitioned across.
  std::uint32_t shards = 1;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = ClusterOptions());
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const quorum::QuorumConfig& config() const { return config_; }
  std::uint32_t shards() const { return map_.shards(); }
  const shard::ShardMap& map() const { return map_; }
  std::uint32_t shard_of(quorum::ObjectId object) const {
    return map_.shard_of(object);
  }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  crypto::Keystore& keystore(std::uint32_t shard = 0) {
    return *groups_.at(shard).keystore;
  }
  Rng& rng() { return rng_; }

  core::Replica& replica(quorum::ReplicaId r, std::uint32_t shard = 0) {
    return *groups_.at(shard).replicas.at(r);
  }
  std::vector<sim::NodeId> replica_nodes(std::uint32_t shard = 0) const;

  // Creates (or returns the existing) protocol client with this id. Only
  // for one-shard clusters: with more shards an op must be routed, so use
  // add_router (calling add_client there aborts, in every build). The
  // two-argument form takes `options` as given — its mode flags
  // included; the one-argument form applies the cluster's.
  core::Client& add_client(quorum::ClientId id);
  core::Client& add_client(quorum::ClientId id, core::ClientOptions options);
  // Creates (or returns the existing) routing client with this id: one
  // protocol leg per shard (built as by add_client), all driven by one
  // router. Works at any shard count. The one-argument form applies the
  // cluster's mode flags and default router options.
  shard::RoutingClient& add_router(quorum::ClientId id);
  shard::RoutingClient& add_router(quorum::ClientId id,
                                   core::ClientOptions options,
                                   shard::RoutingClientOptions routing);
  // Client `id`'s protocol leg into `shard`'s replica group.
  core::Client& client(quorum::ClientId id, std::uint32_t shard = 0) {
    return *clients_.at(id).legs.at(shard);
  }

  // Raw transport bound to an otherwise-unused node id — building block
  // for colluders and custom Byzantine actors.
  std::unique_ptr<rpc::Transport> make_transport(sim::NodeId node);

  // ---- synchronous convenience (drives the simulator) ----------------
  // Either client type: a core::Client or a shard::RoutingClient.
  template <typename C>
  Result<core::Client::WriteResult> write(C& c, quorum::ObjectId object,
                                          Bytes value) {
    std::optional<Result<core::Client::WriteResult>> result;
    c.write(object, std::move(value),
            [&result](Result<core::Client::WriteResult> r) {
              result = std::move(r);
            });
    run_until([&result] { return result.has_value(); });
    if (!result.has_value()) {
      return Status(StatusCode::kInternal,
                    "simulation drained before write completed");
    }
    return *result;
  }
  template <typename C>
  Result<core::Client::ReadResult> read(C& c, quorum::ObjectId object) {
    std::optional<Result<core::Client::ReadResult>> result;
    c.read(object, [&result](Result<core::Client::ReadResult> r) {
      result = std::move(r);
    });
    run_until([&result] { return result.has_value(); });
    if (!result.has_value()) {
      return Status(StatusCode::kInternal,
                    "simulation drained before read completed");
    }
    return std::move(*result);
  }
  // Runs the simulator until `done` returns true (or the event queue
  // drains / max_events trips). Returns true iff done() held.
  bool run_until(const std::function<bool()>& done,
                 std::size_t max_events = 20'000'000);
  // Let all in-flight events settle.
  void settle();

  // ---- observability --------------------------------------------------
  // The cluster-wide registry. Network/replica/client hot paths record
  // into it directly; legacy Counters sources are folded in by
  // snapshot_metrics(). Each cluster owns its own registry so concurrent
  // experiments in one process do not bleed into each other.
  //
  // Names: one shard keeps the single-group names ("replica/<r>/...",
  // "client.write.*", "client/<id>/...", unscoped keystore counters).
  // With more shards every shard-local source is scoped under
  // "shard/<s>/", and the routers own "client.write/read.total_ms" and
  // the "client/<id>" folds — the names the bench compare gate parses.
  metrics::MetricsRegistry& metrics_registry() { return metrics_; }
  metrics::Tracer& tracer() { return tracer_; }

  // Folds the replica / client / keystore Counters into the registry
  // (SET semantics — safe to call repeatedly) and returns it. Call
  // before reading or serializing cluster metrics.
  metrics::MetricsRegistry& snapshot_metrics();

  // Dumps the event ring buffer (oldest first) — for test failure paths.
  void dump_trace(std::ostream& os) const { tracer_.dump(os); }

  // ---- fault controls -------------------------------------------------
  void crash_replica(quorum::ReplicaId r, std::uint32_t shard = 0);
  void recover_replica(quorum::ReplicaId r, std::uint32_t shard = 0);
  // Fail-stop restart with amnesia: destroys replica r of `shard` (all
  // in-memory state — ObjectStates, prepare lists, ACL), rebuilds it on a
  // fresh transport via the same factory hook the constructor used,
  // heals its network links, and starts a STATE-XFER recovery of the
  // named objects this shard owns from the group's surviving peers.
  // Asynchronous: the caller drives the simulator until
  // `replica(r, shard).recovering()` clears.
  void restart_replica(quorum::ReplicaId r,
                       const std::vector<quorum::ObjectId>& objects,
                       std::uint32_t shard = 0);
  // Cuts every link between `shard`'s replica group and the client legs
  // that talk to it — ops routed there stall; other shards are untouched.
  void partition_shard(std::uint32_t shard);
  void heal_shard(std::uint32_t shard);
  // The paper's STOP event: the client's key becomes unusable for new
  // signatures (administrator removed it from the ACL) in every shard.
  void stop_client(quorum::ClientId c);

 private:
  // One replica group: its keystore, and replicas_[r] with transports
  // parallel.
  struct Group {
    std::unique_ptr<crypto::Keystore> keystore;
    std::vector<std::unique_ptr<rpc::SimTransport>> transports;
    std::vector<std::unique_ptr<core::Replica>> replicas;
  };
  // One client id: a protocol leg per shard, and the router over them
  // once add_router asked for it.
  struct ClientEntry {
    std::vector<std::unique_ptr<rpc::SimTransport>> transports;
    std::vector<std::unique_ptr<core::Client>> legs;
    std::unique_ptr<shard::RoutingClient> router;
  };

  // The one place metric names depend on the shard count: with one
  // shard every source keeps its single-group name; with more,
  // shard-local sources are scoped under shard_prefix(s) = "shard/<s>/"
  // and the routers own the client-level names.
  bool per_shard_names() const { return shards() > 1; }
  std::string shard_prefix(std::uint32_t shard) const;
  // Shared by the constructor and restart_replica: mode-flag overlay on
  // the replica options, then factory-or-default construction into slot
  // [shard][r] (transport first — the replica's ctor registers its
  // receiver).
  void construct_replica(std::uint32_t shard, quorum::ReplicaId r);
  ClientEntry& client_entry(quorum::ClientId id, core::ClientOptions options);
  core::ClientOptions default_client_options() const;

  ClusterOptions options_;
  shard::ShardMap map_;
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  // Declared before net_ / replicas / clients: they hold resolved handles
  // into these, so the sinks must outlive the recorders.
  metrics::MetricsRegistry metrics_;
  metrics::Tracer tracer_;
  sim::Network net_;

  std::vector<Group> groups_;  // indexed by shard
  std::map<quorum::ClientId, ClientEntry> clients_;
};

}  // namespace bftbc::harness

#include "harness/cluster.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace bftbc::harness {

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      map_(options_.shards),
      config_(quorum::QuorumConfig::bft_bc(options_.f)),
      sim_(),
      rng_(options_.seed),
      tracer_(options_.trace_capacity),
      net_(sim_, rng_.split(), options_.link) {
  net_.bind_metrics(metrics_, "net");
  if (tracer_.enabled()) net_.set_tracer(&tracer_);

  const std::uint64_t key_base = options_.seed ^ 0x5eedc0de;
  groups_.resize(map_.shards());
  for (std::uint32_t s = 0; s < map_.shards(); ++s) {
    Group& g = groups_[s];
    g.keystore = std::make_unique<crypto::Keystore>(
        options_.scheme, shard::shard_key_seed(key_base, s),
        options_.rsa_bits);
    g.transports.resize(config_.n);
    g.replicas.resize(config_.n);
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) construct_replica(s, r);
  }
}

Cluster::~Cluster() = default;

std::string Cluster::shard_prefix(std::uint32_t shard) const {
  return per_shard_names() ? "shard/" + std::to_string(shard) + "/"
                           : std::string();
}

void Cluster::construct_replica(std::uint32_t s, quorum::ReplicaId r) {
  core::ReplicaOptions ropts = options_.replica;
  ropts.optimized = options_.optimized;
  ropts.strong = options_.strong;
  ropts.mac_auth = options_.mac_auth;
  if (ropts.registry == nullptr) ropts.registry = &metrics_;
  ropts.metrics_scope = shard_prefix(s) + "replica/" + std::to_string(r);

  Group& g = groups_[s];
  auto transport = std::make_unique<rpc::SimTransport>(
      net_, shard_replica_node(s, r),
      options_.coalesce_sends ? &sim_ : nullptr);
  std::unique_ptr<core::Replica> replica;
  auto factory = options_.replica_factories.find(r);
  if (factory != options_.replica_factories.end() && factory->second) {
    replica = factory->second(config_, r, *g.keystore, *transport, sim_, ropts);
  } else {
    replica = std::make_unique<core::Replica>(config_, r, *g.keystore,
                                              *transport, sim_, ropts);
  }
  g.transports[r] = std::move(transport);
  g.replicas[r] = std::move(replica);
}

std::vector<sim::NodeId> Cluster::replica_nodes(std::uint32_t shard) const {
  std::vector<sim::NodeId> nodes(config_.n);
  for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
    nodes[r] = shard_replica_node(shard, r);
  }
  return nodes;
}

core::ClientOptions Cluster::default_client_options() const {
  core::ClientOptions copts = options_.client_defaults;
  copts.optimized = options_.optimized;
  copts.strong = options_.strong;
  copts.mac_auth = options_.mac_auth;
  return copts;
}

Cluster::ClientEntry& Cluster::client_entry(quorum::ClientId id,
                                            core::ClientOptions base) {
  auto existing = clients_.find(id);
  if (existing != clients_.end()) return existing->second;

  ClientEntry& entry = clients_[id];
  for (std::uint32_t s = 0; s < map_.shards(); ++s) {
    core::ClientOptions copts = base;
    if (copts.registry == nullptr) copts.registry = &metrics_;
    if (copts.tracer == nullptr && tracer_.enabled()) copts.tracer = &tracer_;
    // Distinct per-shard prefixes: the legs' latency streams must never
    // alias each other or the routers' aggregate summaries.
    copts.metrics_prefix = shard_prefix(s) + copts.metrics_prefix;
    auto transport = std::make_unique<rpc::SimTransport>(
        net_, shard_client_node(s, id),
        options_.coalesce_sends ? &sim_ : nullptr);
    auto leg = std::make_unique<core::Client>(config_, id, *groups_[s].keystore,
                                              *transport, sim_,
                                              replica_nodes(s), rng_.split(),
                                              copts);
    entry.transports.push_back(std::move(transport));
    entry.legs.push_back(std::move(leg));
    // Clients created through the harness are authorized writers (only
    // relevant when replicas enforce the ACL).
    for (auto& replica : groups_[s].replicas) replica->authorize(id);
  }
  return entry;
}

core::Client& Cluster::add_client(quorum::ClientId id) {
  return add_client(id, default_client_options());
}

core::Client& Cluster::add_client(quorum::ClientId id,
                                  core::ClientOptions copts) {
  if (shards() != 1) {
    // A leg only reaches its own shard's group: handing one out would
    // silently send other shards' objects to the wrong replicas.
    std::fprintf(stderr,
                 "Cluster::add_client: %u-shard cluster, use add_router\n",
                 shards());
    std::abort();
  }
  return *client_entry(id, std::move(copts)).legs.front();
}

shard::RoutingClient& Cluster::add_router(quorum::ClientId id) {
  return add_router(id, default_client_options(),
                    shard::RoutingClientOptions{});
}

shard::RoutingClient& Cluster::add_router(quorum::ClientId id,
                                          core::ClientOptions copts,
                                          shard::RoutingClientOptions routing) {
  ClientEntry& entry = client_entry(id, std::move(copts));
  if (entry.router != nullptr) return *entry.router;
  // With one shard the leg already records the whole-op summaries under
  // the single-group names; the router stays out of the registry.
  if (routing.registry == nullptr && per_shard_names()) {
    routing.registry = &metrics_;
  }
  std::vector<core::Client*> legs;
  for (auto& leg : entry.legs) legs.push_back(leg.get());
  entry.router = std::make_unique<shard::RoutingClient>(map_, std::move(legs),
                                                        sim_, routing);
  return *entry.router;
}

metrics::MetricsRegistry& Cluster::snapshot_metrics() {
  for (std::uint32_t s = 0; s < map_.shards(); ++s) {
    const std::string prefix = shard_prefix(s);
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      metrics_.fold_counters(prefix + "replica/" + std::to_string(r),
                             groups_[s].replicas[r]->metrics());
    }
    // Keystore counters: "sig_cache_hit", "sig_cache_miss",
    // "sig_verify_calls", "sign", "verify" — unscoped with one shard,
    // "shard/<s>/..." with more.
    std::string keystore_scope = prefix;
    if (!keystore_scope.empty()) keystore_scope.pop_back();  // fold adds '/'
    metrics_.fold_counters(keystore_scope, groups_[s].keystore->counters());
    for (const auto& [id, entry] : clients_) {
      metrics_.fold_counters(prefix + "client/" + std::to_string(id),
                             entry.legs[s]->metrics());
    }
  }
  if (per_shard_names()) {
    // Router totals land under the names the bench compare gate parses
    // ("client/<id>/writes"); the legs keep their shard scope.
    for (const auto& [id, entry] : clients_) {
      if (entry.router == nullptr) continue;
      metrics_.fold_counters("client/" + std::to_string(id),
                             entry.router->metrics());
    }
  }
  return metrics_;
}

std::unique_ptr<rpc::Transport> Cluster::make_transport(sim::NodeId node) {
  return std::make_unique<rpc::SimTransport>(
      net_, node, options_.coalesce_sends ? &sim_ : nullptr);
}

bool Cluster::run_until(const std::function<bool()>& done,
                        std::size_t max_events) {
  return !sim_.run_while_pending([&done] { return !done(); }, max_events);
}

void Cluster::settle() {
  sim_.run();
}

void Cluster::crash_replica(quorum::ReplicaId r, std::uint32_t shard) {
  net_.crash(shard_replica_node(shard, r));
}

void Cluster::recover_replica(quorum::ReplicaId r, std::uint32_t shard) {
  net_.recover(shard_replica_node(shard, r));
}

void Cluster::restart_replica(quorum::ReplicaId r,
                              const std::vector<quorum::ObjectId>& objects,
                              std::uint32_t shard) {
  // Fail-stop restart with amnesia: everything in memory is gone.
  // Destruction order matters — the replica's constructor registered a
  // receiver on its transport, so the replica dies first, then the
  // transport (which unregisters the node from the network).
  Group& g = groups_.at(shard);
  g.replicas[r].reset();
  g.transports[r].reset();
  construct_replica(shard, r);
  net_.recover(shard_replica_node(shard, r));

  // The ACL was part of the lost state; re-authorize the current client
  // population as an administrator config push would. Stopped clients
  // get re-added too, harmlessly: their keys are revoked, so no new
  // signature of theirs verifies regardless of the ACL.
  for (const auto& [id, entry] : clients_) g.replicas[r]->authorize(id);

  std::vector<sim::NodeId> peers;
  peers.reserve(config_.n - 1);
  for (quorum::ReplicaId p = 0; p < config_.n; ++p) {
    if (p != r) peers.push_back(shard_replica_node(shard, p));
  }
  // Only objects this shard owns are transferable — other groups hold
  // unrelated keyspaces and their certificates would not validate here.
  std::vector<quorum::ObjectId> owned;
  for (quorum::ObjectId obj : objects) {
    if (map_.shard_of(obj) == shard) owned.push_back(obj);
  }
  g.replicas[r]->begin_recovery(owned, std::move(peers));
}

void Cluster::partition_shard(std::uint32_t shard) {
  // Cut the group off from every client leg that talks to it. Links
  // inside the group (and every other shard) stay up.
  std::vector<sim::NodeId> outside;
  for (const auto& [id, entry] : clients_) {
    outside.push_back(shard_client_node(shard, id));
  }
  net_.partition_group(replica_nodes(shard), outside);
}

void Cluster::heal_shard(std::uint32_t shard) {
  for (sim::NodeId node : replica_nodes(shard)) {
    for (const auto& [id, entry] : clients_) {
      net_.heal(node, shard_client_node(shard, id));
    }
  }
}

void Cluster::stop_client(quorum::ClientId c) {
  // Both halves of the paper's administrator action: the key can no
  // longer mint new signatures, and the ACL entry disappears.
  for (Group& g : groups_) {
    g.keystore->revoke(quorum::client_principal(c));
    for (auto& replica : g.replicas) replica->deauthorize(c);
  }
}

}  // namespace bftbc::harness

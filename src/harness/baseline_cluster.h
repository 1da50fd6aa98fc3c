// One harness for the baseline protocols (classic BQS, Phalanx-style and
// SBQ-L), mirroring harness::Cluster for BFT-BC so benches can sweep every
// protocol with the same driver code. A protocol's traits struct names
// its replica and client types and holds all that differs between the
// clusters: the quorum shape, the keystore seed salt and the replica's
// constructor arguments.
#pragma once

#include <map>
#include <memory>

#include "baselines/bqs.h"
#include "baselines/phalanx.h"
#include "baselines/sbql.h"
#include "harness/cluster.h"

namespace bftbc::harness {

struct BaselineOptions {
  std::uint32_t f = 1;
  std::uint64_t seed = 1;
  sim::LinkConfig link;
};

struct BqsProtocol {
  using Replica = baselines::BqsReplica;
  using Client = baselines::BqsClient;
  static constexpr auto config = &quorum::QuorumConfig::bft_bc;
  static constexpr std::uint64_t key_salt = 0xb05;
  static auto make_replica(const quorum::QuorumConfig& config,
                           quorum::ReplicaId r, crypto::Keystore& keystore,
                           rpc::Transport& transport, sim::Simulator&,
                           std::vector<sim::NodeId>) {
    return std::make_unique<Replica>(config, r, keystore, transport);
  }
};

struct PhalanxProtocol {
  using Replica = baselines::PhalanxReplica;
  using Client = baselines::PhalanxClient;
  static constexpr auto config = &quorum::QuorumConfig::masking;
  static constexpr std::uint64_t key_salt = 0x9a1;
  static auto make_replica(const quorum::QuorumConfig& config,
                           quorum::ReplicaId r, crypto::Keystore& keystore,
                           rpc::Transport& transport, sim::Simulator&,
                           std::vector<sim::NodeId> peers) {
    return std::make_unique<Replica>(config, r, keystore, transport,
                                     std::move(peers));
  }
};

struct SbqlProtocol {
  using Replica = baselines::SbqlReplica;
  using Client = baselines::SbqlClient;
  static constexpr auto config = &quorum::QuorumConfig::bft_bc;
  static constexpr std::uint64_t key_salt = 0x5b1;
  static auto make_replica(const quorum::QuorumConfig& config,
                           quorum::ReplicaId r, crypto::Keystore& keystore,
                           rpc::Transport& transport, sim::Simulator& sim,
                           std::vector<sim::NodeId> peers) {
    return std::make_unique<Replica>(config, r, keystore, transport, sim,
                                     std::move(peers));
  }
};

template <typename Protocol>
class BaselineCluster {
 public:
  using Replica = typename Protocol::Replica;
  using Client = typename Protocol::Client;

  explicit BaselineCluster(BaselineOptions options = BaselineOptions())
      : config_(Protocol::config(options.f)),
        rng_(options.seed),
        net_(sim_, rng_.split(), options.link),
        keystore_(crypto::SignatureScheme::kHmacSim,
                  options.seed ^ Protocol::key_salt) {
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) {
      auto t = std::make_unique<rpc::SimTransport>(net_, r);
      replicas_.push_back(Protocol::make_replica(config_, r, keystore_, *t,
                                                 sim_, replica_nodes()));
      transports_.push_back(std::move(t));
    }
  }

  const quorum::QuorumConfig& config() const { return config_; }
  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  crypto::Keystore& keystore() { return keystore_; }
  Rng& rng() { return rng_; }
  Replica& replica(quorum::ReplicaId r) { return *replicas_[r]; }

  std::vector<sim::NodeId> replica_nodes() const {
    std::vector<sim::NodeId> nodes(config_.n);
    for (quorum::ReplicaId r = 0; r < config_.n; ++r) nodes[r] = r;
    return nodes;
  }

  Client& add_client(quorum::ClientId id) {
    auto it = clients_.find(id);
    if (it != clients_.end()) return *it->second;
    auto t = std::make_unique<rpc::SimTransport>(net_, client_node(id));
    auto c = std::make_unique<Client>(config_, id, keystore_, *t, sim_,
                                      replica_nodes(), rng_.split());
    auto& ref = *c;
    client_transports_[id] = std::move(t);
    clients_[id] = std::move(c);
    return ref;
  }

  std::unique_ptr<rpc::Transport> make_transport(sim::NodeId node) {
    return std::make_unique<rpc::SimTransport>(net_, node);
  }

  Result<typename Client::WriteResult> write(Client& c, quorum::ObjectId object,
                                             Bytes value) {
    std::optional<Result<typename Client::WriteResult>> result;
    c.write(object, std::move(value),
            [&](Result<typename Client::WriteResult> r) {
              result = std::move(r);
            });
    sim_.run_while_pending([&] { return !result.has_value(); });
    if (!result) return Status(StatusCode::kInternal, "sim drained");
    return *result;
  }

  Result<typename Client::ReadResult> read(Client& c, quorum::ObjectId object) {
    std::optional<Result<typename Client::ReadResult>> result;
    c.read(object, [&](Result<typename Client::ReadResult> r) {
      result = std::move(r);
    });
    sim_.run_while_pending([&] { return !result.has_value(); });
    if (!result) return Status(StatusCode::kInternal, "sim drained");
    return std::move(*result);
  }

  // Runs the simulator until no event is left. SBQ-L replicas retransmit
  // forever, so drive those clusters with run_for instead.
  void settle() { sim_.run(); }

  // Runs the simulator for a fixed amount of virtual time.
  void run_for(sim::Time t) { sim_.run_until(sim_.now() + t); }

  // Total reliable-forward buffer across all replicas (the unbounded
  // state of SBQ-L's reliable-network assumption).
  std::size_t total_outbox_bytes() const
    requires requires(const Replica& r) { r.outbox_bytes(); }
  {
    std::size_t total = 0;
    for (const auto& r : replicas_) total += r->outbox_bytes();
    return total;
  }

 private:
  quorum::QuorumConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  sim::Network net_;
  crypto::Keystore keystore_;
  std::vector<std::unique_ptr<rpc::SimTransport>> transports_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::map<quorum::ClientId, std::unique_ptr<rpc::SimTransport>>
      client_transports_;
  std::map<quorum::ClientId, std::unique_ptr<Client>> clients_;
};

using BqsCluster = BaselineCluster<BqsProtocol>;
using PhalanxCluster = BaselineCluster<PhalanxProtocol>;
using SbqlCluster = BaselineCluster<SbqlProtocol>;

}  // namespace bftbc::harness

// Phalanx-style masking-quorum baseline (paper §8's description of
// Malkhi–Reiter [9, 10]'s Byzantine-client handling):
//
//   - 4f+1 replicas, masking quorums of 3f+1 (two quorums intersect in
//     >= 2f+1 replicas, a majority of them correct)
//   - writes trigger a server-to-server ECHO round: each replica
//     re-broadcasts 〈value, ts〉 and COMMITS only once 3f+1 distinct
//     replicas vouch for the same (ts, h) — this is what stops a
//     Byzantine client from binding two values to one timestamp
//   - reads query a quorum and return the highest-timestamp value only
//     if at least f+1 replicas vouch for it; otherwise they return NULL
//     ("weak semantics for reads ... in case of concurrent writes")
//
// The null-read behavior and the extra f replicas are exactly what
// BFT-BC's certificates eliminate; bench E10 measures both.
#pragma once

#include <set>

#include "baselines/node.h"

namespace bftbc::baselines {

class PhalanxReplica : public Node {
 public:
  // `peer_nodes` are the other replicas' addresses for the echo round.
  PhalanxReplica(const quorum::QuorumConfig& config, ReplicaId id,
                 crypto::Keystore& keystore, rpc::Transport& transport,
                 std::vector<sim::NodeId> peer_nodes)
      : Node(config, id, quorum::replica_principal(id), keystore, transport),
        peer_nodes_(std::move(peer_nodes)) {}

  struct Committed {
    Bytes value;
    Timestamp ts;
  };
  const Committed* committed(ObjectId object) const;

 private:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;
  void start_echo(ObjectId object, const Timestamp& ts, const Bytes& value);
  void absorb_echo(ObjectId object, const Timestamp& ts, const Bytes& value,
                   ReplicaId echoer);

  std::vector<sim::NodeId> peer_nodes_;

  struct EchoState {
    Bytes value;
    std::set<ReplicaId> echoers;
  };
  struct ObjectData {
    Committed committed;
    // (ts, hash) -> echo progress
    std::map<std::pair<Timestamp, Bytes>, EchoState> echoes;
  };
  std::map<ObjectId, ObjectData> objects_;
};

class PhalanxClient : public QuorumClient {
 public:
  using QuorumClient::QuorumClient;

  void write(ObjectId object, Bytes value, WriteCallback cb);

  struct ReadResult {
    // nullopt models the protocol's null read (insufficient vouching for
    // the highest timestamp — incomplete or concurrent write).
    std::optional<Bytes> value;
    Timestamp ts;
    int phases = 0;
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;
  void read(ObjectId object, ReadCallback cb);

 private:
  struct ReadOp;
};

}  // namespace bftbc::baselines

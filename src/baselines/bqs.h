// Classic BQS baseline: the original Malkhi–Reiter Byzantine quorum
// register (paper §3.1 / [9]), WITHOUT Byzantine-client defenses, plus
// the Phalanx write-back extension for read atomicity [10].
//
//   - 3f+1 replicas, quorums of 2f+1
//   - writes: 2 phases (READ-TS to learn the highest timestamp, then
//     WRITE carrying 〈value, ts〉 signed by the client)
//   - reads: 1 phase (+ a write-back when replies disagree), returning
//     the highest correctly-signed 〈value, ts〉
//
// Known weaknesses this repo uses it to demonstrate (bench E10):
//   - a Byzantine client can sign two different values for one timestamp
//     and split the replicas (readers diverge)
//   - a Byzantine client can jump the timestamp space arbitrarily
//   - nothing bounds lurking writes
// Its virtue is cost: one fewer phase per write than BFT-BC.
#pragma once

#include "baselines/node.h"
#include "crypto/sha256.h"

namespace bftbc::baselines {

// The signed unit of BQS state: 〈object, ts, h(value)〉σ_client.
Bytes bqs_value_statement(ObjectId object, const Timestamp& ts,
                          const crypto::Digest& value_hash);

struct BqsEntry {
  Bytes value;
  Timestamp ts;
  ClientId writer = 0;
  Bytes writer_sig;  // over bqs_value_statement

  [[nodiscard]] bool verify(ObjectId object, const crypto::Keystore& ks) const;
};

class BqsReplica : public Node {
 public:
  BqsReplica(const quorum::QuorumConfig& config, ReplicaId id,
             crypto::Keystore& keystore, rpc::Transport& transport)
      : Node(config, id, quorum::replica_principal(id), keystore, transport) {}

  const BqsEntry* find_object(ObjectId object) const;

 private:
  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;

  std::map<ObjectId, BqsEntry> objects_;
};

class BqsClient : public QuorumClient {
 public:
  using QuorumClient::QuorumClient;

  void write(ObjectId object, Bytes value, WriteCallback cb);

  struct ReadResult {
    Bytes value;
    Timestamp ts;
    int phases = 0;
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;
  void read(ObjectId object, ReadCallback cb);

 private:
  struct ReadOp;
  void finish_read(ReadOp& op);
};

// A Byzantine BQS client demonstrating the equivocation hole: signs two
// different values with the SAME timestamp and sends each to half the
// replicas. Succeeds (splits the replica state) because BQS replicas
// cannot tell — there is no prepare round.
class BqsEquivocator : public QuorumClient {
 public:
  BqsEquivocator(const quorum::QuorumConfig& config, ClientId id,
                 crypto::Keystore& keystore, rpc::Transport& transport,
                 sim::Simulator& simulator,
                 std::vector<sim::NodeId> replica_nodes, Rng rng);

  // Fetch the max ts, then split-brain the replicas at ts+1.
  void attack(ObjectId object, Bytes v1, Bytes v2,
              std::function<void()> done);
};

}  // namespace bftbc::baselines

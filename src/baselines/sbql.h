// SBQ-L baseline — the Martin et al. "Minimal Byzantine Storage" style
// protocol the paper analyzes at length in §8:
//
//   "They require a quorum of 2f+1 identical replies for read operations
//    to succeed, which is difficult to ensure in an asynchronous system.
//    Their solution is to assume a reliable asynchronous network model,
//    where each message is delivered to all correct replicas. This means
//    that infinite retransmission buffers are needed ... the failure of a
//    single replica (which might just have crashed) causes all messages
//    from that point on to be remembered and retransmitted. In this
//    protocol concurrent writers can slow down readers."
//
// This implementation makes those costs measurable:
//   - replicas forward every accepted write to every peer over a
//     RELIABLE link (retransmit-until-ack); `outbox_bytes()` exposes the
//     buffer a crashed peer makes grow without bound
//   - reads demand 2f+1 IDENTICAL (ts, value) replies and RE-QUERY in
//     rounds until they get them; `read_rounds` shows concurrent writers
//     slowing readers (contrast: BFT-BC reads are 1–2 phases always)
//
// Like BFT-BC it uses only 3f+1 replicas; client writes are 2 phases.
#pragma once

#include <deque>

#include "baselines/node.h"

namespace bftbc::baselines {

class SbqlReplica : public Node {
 public:
  SbqlReplica(const quorum::QuorumConfig& config, ReplicaId id,
              crypto::Keystore& keystore, rpc::Transport& transport,
              sim::Simulator& simulator, std::vector<sim::NodeId> peer_nodes);
  ~SbqlReplica() override;

  struct Stored {
    Bytes value;
    Timestamp ts;
  };
  const Stored* stored(ObjectId object) const;

  // Total bytes waiting in reliable-delivery outboxes — the unbounded
  // buffer §8 criticizes. Grows forever while any peer is unreachable.
  std::size_t outbox_bytes() const;

 private:
  struct PendingForward {
    std::uint64_t seq;
    Bytes payload;  // encoded envelope body
  };

  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;
  void apply(ObjectId object, const Timestamp& ts, const Bytes& value);
  // Reliable forward: enqueue for every peer; retransmit until acked.
  void forward_reliably(ObjectId object, const Timestamp& ts,
                        const Bytes& value);
  void send_forward(sim::NodeId peer, const PendingForward& pending);
  void flush_outboxes();

  sim::Simulator& sim_;
  std::vector<sim::NodeId> peer_nodes_;
  sim::TimerId flush_timer_ = 0;
  std::map<ObjectId, Stored> objects_;
  std::map<sim::NodeId, std::deque<PendingForward>> outbox_;
  std::uint64_t next_seq_ = 1;
};

class SbqlClient : public QuorumClient {
 public:
  using QuorumClient::QuorumClient;

  void write(ObjectId object, Bytes value, WriteCallback cb);

  struct ReadResult {
    Bytes value;
    Timestamp ts;
    int rounds = 0;  // query rounds until 2f+1 identical replies
  };
  using ReadCallback = std::function<void(Result<ReadResult>)>;
  void read(ObjectId object, ReadCallback cb);

 private:
  struct ReadOp;
  void read_round(ReadOp& op);
};

}  // namespace bftbc::baselines

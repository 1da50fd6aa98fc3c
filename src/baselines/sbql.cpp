#include "baselines/sbql.h"

namespace bftbc::baselines {

namespace {

// Replicas retransmit unacknowledged forwards at this period.
constexpr sim::Time kRetransmitPeriod = 20 * sim::kMillisecond;
// A read without 2f+1 identical replies re-queries after this delay, and
// gives up after kMaxReadRounds rounds.
constexpr sim::Time kRereadDelay = 5 * sim::kMillisecond;
constexpr int kMaxReadRounds = 100;

// Wire formats local to the SBQ-L baseline.

struct SbqlWriteMsg {
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  void put(Writer& w) const {
    w.put_u64(object);
    w.put_bytes(value);
    ts.encode(w);
  }
  void get(Reader& r) {
    object = r.get_u64();
    value = r.get_bytes();
    ts = Timestamp::decode(r);
  }
};

struct SbqlForwardMsg {
  std::uint64_t seq = 0;  // per-sender sequence for acking
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  void put(Writer& w) const {
    w.put_u64(seq);
    w.put_u64(object);
    w.put_bytes(value);
    ts.encode(w);
  }
  void get(Reader& r) {
    seq = r.get_u64();
    object = r.get_u64();
    value = r.get_bytes();
    ts = Timestamp::decode(r);
  }
};

}  // namespace

// ------------------------------------------------------------ replica

SbqlReplica::SbqlReplica(const quorum::QuorumConfig& config, ReplicaId id,
                         crypto::Keystore& keystore, rpc::Transport& transport,
                         sim::Simulator& simulator,
                         std::vector<sim::NodeId> peer_nodes)
    : Node(config, id, quorum::replica_principal(id), keystore, transport),
      sim_(simulator),
      peer_nodes_(std::move(peer_nodes)) {
  flush_timer_ = sim_.schedule(kRetransmitPeriod, [this] { flush_outboxes(); });
}

SbqlReplica::~SbqlReplica() { sim_.cancel(flush_timer_); }

const SbqlReplica::Stored* SbqlReplica::stored(ObjectId object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? nullptr : &it->second;
}

std::size_t SbqlReplica::outbox_bytes() const {
  std::size_t total = 0;
  for (const auto& [peer, queue] : outbox_) {
    for (const auto& pending : queue) total += pending.payload.size();
  }
  return total;
}

void SbqlReplica::apply(ObjectId object, const Timestamp& ts,
                        const Bytes& value) {
  Stored& entry = objects_[object];
  // §8: servers "keep the highest value for each timestamp" so that a
  // Byzantine client splitting values across replicas still converges.
  if (ts > entry.ts || (ts == entry.ts && value > entry.value)) {
    entry.ts = ts;
    entry.value = value;
    metrics_.inc("state_overwritten");
  }
}

void SbqlReplica::forward_reliably(ObjectId object, const Timestamp& ts,
                                   const Bytes& value) {
  SbqlForwardMsg msg{0, object, value, ts};
  for (sim::NodeId peer : peer_nodes_) {
    if (peer == transport_.node_id()) continue;
    msg.seq = next_seq_++;
    // The reliable-network assumption made concrete: remember the message
    // until the peer acknowledges it, however long that takes.
    outbox_[peer].push_back(PendingForward{msg.seq, to_wire(msg)});
    send_forward(peer, outbox_[peer].back());
    metrics_.inc("forwards_sent");
  }
}

void SbqlReplica::send_forward(sim::NodeId peer,
                               const PendingForward& pending) {
  transport_.send(peer, envelope(rpc::MsgType::kSbqlForward, pending.seq,
                                 signer_.principal(), pending.payload));
}

void SbqlReplica::flush_outboxes() {
  for (auto& [peer, queue] : outbox_) {
    for (const auto& pending : queue) {
      send_forward(peer, pending);
      metrics_.inc("forwards_retransmitted");
    }
  }
  flush_timer_ = sim_.schedule(kRetransmitPeriod, [this] { flush_outboxes(); });
}

void SbqlReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  switch (env.type) {
    case rpc::MsgType::kSbqlReadTs: {
      auto req = from_wire<ObjectNonce>(env.body);
      if (!req) return;
      reply(from, env, rpc::MsgType::kSbqlReadTsReply,
            to_wire(TsReply{req->object, req->nonce, objects_[req->object].ts,
                            id_}));
      break;
    }
    case rpc::MsgType::kSbqlWrite: {
      auto req = from_wire<SbqlWriteMsg>(env.body);
      if (!req) return;
      apply(req->object, req->ts, req->value);
      // The server-to-server propagation §8 describes.
      forward_reliably(req->object, req->ts, req->value);
      metrics_.inc("reply_write");
      reply(from, env, rpc::MsgType::kSbqlWriteReply,
            to_wire(Ack{req->object, req->ts, id_}));
      break;
    }
    case rpc::MsgType::kSbqlForward: {
      auto msg = from_wire<SbqlForwardMsg>(env.body);
      if (!msg || !quorum::is_replica_principal(env.sender)) return;
      apply(msg->object, msg->ts, msg->value);
      // Ack so the sender can drop its buffer entry.
      transport_.send(from, envelope(rpc::MsgType::kSbqlForwardAck, msg->seq,
                                     signer_.principal()));
      break;
    }
    case rpc::MsgType::kSbqlForwardAck: {
      auto& queue = outbox_[from];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->seq == env.rpc_id) {
          queue.erase(it);
          break;
        }
      }
      break;
    }
    case rpc::MsgType::kSbqlRead: {
      auto req = from_wire<ObjectNonce>(env.body);
      if (!req) return;
      const Stored& entry = objects_[req->object];
      metrics_.inc("reply_read");
      reply(from, env, rpc::MsgType::kSbqlReadReply,
            to_wire(ValueReply{req->object, req->nonce, entry.value, entry.ts,
                               id_}));
      break;
    }
    default:
      // The shared MsgType enum spans every protocol family; an SBQL
      // replica ignores the BFT-BC / BQS / Phalanx types by design.
      break;
  }
}

// ------------------------------------------------------------ client

struct SbqlClient::ReadOp : Op {
  std::map<ReplicaId, std::pair<Timestamp, Bytes>> replies;
  ReadCallback rcb;
};

void SbqlClient::write(ObjectId object, Bytes value, WriteCallback cb) {
  write_at_next_ts<SbqlWriteMsg>(
      object, std::move(value), std::move(cb),
      {rpc::MsgType::kSbqlReadTs, rpc::MsgType::kSbqlReadTsReply,
       rpc::MsgType::kSbqlWrite, rpc::MsgType::kSbqlWriteReply});
}

void SbqlClient::read(ObjectId object, ReadCallback cb) {
  auto& op = add_op<ReadOp>(object);
  op.rcb = std::move(cb);
  metrics_.inc("reads");
  read_round(op);
}

// One query round, with a fresh nonce; each round is one phase.
void SbqlClient::read_round(ReadOp& op) {
  op.nonce = nonces_.next();
  op.replies.clear();
  phase(
      op, rpc::MsgType::kSbqlRead, to_wire(ObjectNonce{op.object, op.nonce}),
      rpc::MsgType::kSbqlReadReply,
      [](ReadOp& op, std::uint32_t idx, const rpc::Envelope& e) {
        auto m = echo_reply<ValueReply>(op, idx, e);
        if (m) op.replies[idx] = {m->ts, m->value};
        return m.has_value();
      },
      [this](ReadOp& op) {
        // The SBQ-L read rule: 2f+1 IDENTICAL replies or try again.
        std::map<std::pair<Timestamp, Bytes>, int> tally;
        for (const auto& [r, tv] : op.replies) ++tally[tv];
        for (const auto& [tv, count] : tally) {
          if (static_cast<std::uint32_t>(count) >= config_.q) {
            metrics_.inc("read_rounds", static_cast<std::uint64_t>(op.phases));
            finish(op, std::move(op.rcb),
                   Result<ReadResult>(
                       ReadResult{tv.second, tv.first, op.phases}));
            return;
          }
        }
        if (op.phases >= kMaxReadRounds) {
          metrics_.inc("read_gave_up");
          finish(op, std::move(op.rcb),
                 Result<ReadResult>(timeout_error(
                     "no 2f+1 identical replies after max rounds")));
          return;
        }
        metrics_.inc("read_retry_rounds");
        op.timer = sim_.schedule(kRereadDelay, [this, op_id = op.op_id] {
          if (auto* op = find<ReadOp>(op_id)) read_round(*op);
        });
      });
}

}  // namespace bftbc::baselines

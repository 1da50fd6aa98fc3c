#include "baselines/phalanx.h"

#include "crypto/sha256.h"

namespace bftbc::baselines {

namespace {

// The client's WRITE and the replicas' echo of it share the kPhalanxWrite
// envelope type; an echo sets is_echo and names its echoer.
struct PhxWriteMsg {
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  bool is_echo = false;
  ReplicaId echoer = 0;  // meaningful when is_echo

  void put(Writer& w) const {
    w.put_u64(object);
    w.put_bytes(value);
    ts.encode(w);
    w.put_bool(is_echo);
    w.put_u32(echoer);
  }
  void get(Reader& r) {
    object = r.get_u64();
    value = r.get_bytes();
    ts = Timestamp::decode(r);
    is_echo = r.get_bool();
    echoer = r.get_u32();
  }
};

}  // namespace

// ------------------------------------------------------------ replica

const PhalanxReplica::Committed* PhalanxReplica::committed(
    ObjectId object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? nullptr : &it->second.committed;
}

void PhalanxReplica::start_echo(ObjectId object, const Timestamp& ts,
                                const Bytes& value) {
  const rpc::Envelope env =
      envelope(rpc::MsgType::kPhalanxWrite, 0, signer_.principal(),
               to_wire(PhxWriteMsg{object, value, ts, true, id_}));
  for (sim::NodeId peer : peer_nodes_) {
    if (peer != transport_.node_id()) transport_.send(peer, env);
  }
  metrics_.inc("echo_broadcast");
  absorb_echo(object, ts, value, id_);  // count ourselves
}

void PhalanxReplica::absorb_echo(ObjectId object, const Timestamp& ts,
                                 const Bytes& value, ReplicaId echoer) {
  ObjectData& data = objects_[object];
  if (!(ts > data.committed.ts)) return;  // already superseded
  const Bytes h = crypto::digest_bytes(crypto::sha256(value));
  EchoState& state = data.echoes[{ts, h}];
  if (state.value.empty()) state.value = value;
  state.echoers.insert(echoer);
  if (state.echoers.size() >= config_.q) {
    // A masking quorum vouches for this (ts, value): commit.
    data.committed.value = state.value;
    data.committed.ts = ts;
    metrics_.inc("committed");
    // Drop superseded echo bookkeeping.
    for (auto it = data.echoes.begin(); it != data.echoes.end();) {
      if (it->first.first <= ts) {
        it = data.echoes.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void PhalanxReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  switch (env.type) {
    case rpc::MsgType::kPhalanxReadTs: {
      auto req = from_wire<ObjectNonce>(env.body);
      if (!req) return;
      const TsReply rep{req->object, req->nonce,
                        objects_[req->object].committed.ts, id_};
      metrics_.inc("reply_read_ts");
      reply(from, env, rpc::MsgType::kPhalanxReadTsReply, to_wire(rep));
      break;
    }
    case rpc::MsgType::kPhalanxWrite: {
      auto msg = from_wire<PhxWriteMsg>(env.body);
      if (!msg) return;
      if (msg->is_echo) {
        // Echo from a peer replica (authenticated at the transport level
        // in a deployment; here the envelope sender is trusted as the
        // network delivers from-ids faithfully).
        if (quorum::is_replica_principal(env.sender) &&
            config_.valid_replica(msg->echoer)) {
          metrics_.inc("echo_received");
          absorb_echo(msg->object, msg->ts, msg->value, msg->echoer);
        }
        return;  // echoes are not acked
      }
      // Client write: ack immediately, then propagate via echo. The ack
      // means "received", not "committed" — commitment needs the quorum
      // of echoes (this is the three-message-delay write).
      metrics_.inc("reply_write");
      start_echo(msg->object, msg->ts, msg->value);
      reply(from, env, rpc::MsgType::kPhalanxWriteReply,
            to_wire(Ack{msg->object, msg->ts, id_}));
      break;
    }
    case rpc::MsgType::kPhalanxRead: {
      auto req = from_wire<ObjectNonce>(env.body);
      if (!req) return;
      const Committed& c = objects_[req->object].committed;
      metrics_.inc("reply_read");
      reply(from, env, rpc::MsgType::kPhalanxReadReply,
            to_wire(ValueReply{req->object, req->nonce, c.value, c.ts, id_}));
      break;
    }
    default:
      // The shared MsgType enum spans every protocol family; a Phalanx
      // replica ignores the BFT-BC / BQS / SBQL types by design.
      break;
  }
}

// ------------------------------------------------------------ client

struct PhalanxClient::ReadOp : Op {
  std::map<ReplicaId, std::pair<Timestamp, Bytes>> replies;
  ReadCallback rcb;
};

void PhalanxClient::write(ObjectId object, Bytes value, WriteCallback cb) {
  write_at_next_ts<PhxWriteMsg>(
      object, std::move(value), std::move(cb),
      {rpc::MsgType::kPhalanxReadTs, rpc::MsgType::kPhalanxReadTsReply,
       rpc::MsgType::kPhalanxWrite, rpc::MsgType::kPhalanxWriteReply});
}

void PhalanxClient::read(ObjectId object, ReadCallback cb) {
  auto& op = add_op<ReadOp>(object);
  op.rcb = std::move(cb);
  op.nonce = nonces_.next();
  metrics_.inc("reads");
  phase(
      op, rpc::MsgType::kPhalanxRead, to_wire(ObjectNonce{object, op.nonce}),
      rpc::MsgType::kPhalanxReadReply,
      [](ReadOp& op, std::uint32_t idx, const rpc::Envelope& e) {
        auto m = echo_reply<ValueReply>(op, idx, e);
        if (m) op.replies[idx] = {m->ts, m->value};
        return m.has_value();
      },
      [this](ReadOp& op) {
        // Masking-quorum read rule: the highest timestamp among replies
        // is returned only if f+1 replicas vouch for the same
        // (ts, value); otherwise the read returns null.
        Timestamp top;
        for (const auto& [r, tv] : op.replies) {
          if (tv.first > top) top = tv.first;
        }
        std::map<Bytes, int> support;
        for (const auto& [r, tv] : op.replies) {
          if (tv.first == top) ++support[tv.second];
        }
        ReadResult result;
        result.ts = top;
        result.phases = op.phases;
        for (const auto& [value, count] : support) {
          if (static_cast<std::uint32_t>(count) >= config_.f + 1) {
            result.value = value;
            break;
          }
        }
        if (!result.value.has_value()) metrics_.inc("null_reads");
        metrics_.inc("read_phases", static_cast<std::uint64_t>(op.phases));
        finish(op, std::move(op.rcb), Result<ReadResult>(std::move(result)));
      });
}

}  // namespace bftbc::baselines

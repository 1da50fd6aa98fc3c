#include "baselines/bqs.h"

#include <set>

namespace bftbc::baselines {

Bytes bqs_value_statement(ObjectId object, const Timestamp& ts,
                          const crypto::Digest& value_hash) {
  Writer w;
  w.put_u8(0x20);  // domain tag distinct from BFT-BC statements
  w.put_u64(object);
  ts.encode(w);
  w.put_raw(crypto::digest_view(value_hash));
  return std::move(w).take();
}

bool BqsEntry::verify(ObjectId object, const crypto::Keystore& ks) const {
  if (ts.is_zero()) return value.empty() && writer_sig.empty();  // genesis
  const Bytes stmt = bqs_value_statement(object, ts, crypto::sha256(value));
  return ks.verify_cached(quorum::client_principal(writer), stmt, writer_sig);
}

namespace {

// Wire formats local to the BQS baseline: the client signs its writes and
// every replica reply carries the replica's signature in `auth`.

struct BqsReadTsRep : TsReply {
  Bytes auth;
  Bytes signing_payload() const {
    Writer w;
    w.put_u8(0x21);
    w.put_u64(object);
    nonce.encode(w);
    ts.encode(w);
    return std::move(w).take();
  }
  void put(Writer& w) const {
    TsReply::put(w);
    w.put_bytes(auth);
  }
  void get(Reader& r) {
    TsReply::get(r);
    auth = r.get_bytes();
  }
};

struct BqsWriteReq {
  ObjectId object = 0;
  Bytes value;
  Timestamp ts;
  ClientId client = 0;
  Bytes sig;  // over bqs_value_statement
  void put(Writer& w) const {
    w.put_u64(object);
    w.put_bytes(value);
    ts.encode(w);
    w.put_u32(client);
    w.put_bytes(sig);
  }
  void get(Reader& r) {
    object = r.get_u64();
    value = r.get_bytes();
    ts = Timestamp::decode(r);
    client = r.get_u32();
    sig = r.get_bytes();
  }
};

struct BqsWriteRep : Ack {
  Bytes auth;
  Bytes signing_payload() const {
    Writer w;
    w.put_u8(0x22);
    w.put_u64(object);
    ts.encode(w);
    return std::move(w).take();
  }
  void put(Writer& w) const {
    Ack::put(w);
    w.put_bytes(auth);
  }
  void get(Reader& r) {
    Ack::get(r);
    auth = r.get_bytes();
  }
};

struct BqsReadRep {
  ObjectId object = 0;
  crypto::Nonce nonce;
  BqsEntry entry;
  ReplicaId replica = 0;
  Bytes auth;
  Bytes signing_payload() const {
    Writer w;
    w.put_u8(0x23);
    w.put_u64(object);
    nonce.encode(w);
    entry.ts.encode(w);
    w.put_raw(crypto::digest_view(crypto::sha256(entry.value)));
    return std::move(w).take();
  }
  void put(Writer& w) const {
    w.put_u64(object);
    nonce.encode(w);
    w.put_bytes(entry.value);
    entry.ts.encode(w);
    w.put_u32(entry.writer);
    w.put_bytes(entry.writer_sig);
    w.put_u32(replica);
    w.put_bytes(auth);
  }
  void get(Reader& r) {
    object = r.get_u64();
    nonce = crypto::Nonce::decode(r);
    entry.value = r.get_bytes();
    entry.ts = Timestamp::decode(r);
    entry.writer = r.get_u32();
    entry.writer_sig = r.get_bytes();
    replica = r.get_u32();
    auth = r.get_bytes();
  }
};

// Replica `idx` signed the reply `m`.
template <typename Msg>
bool signed_by(const crypto::Keystore& ks, std::uint32_t idx, const Msg& m) {
  return ks.verify_cached(quorum::replica_principal(idx), m.signing_payload(),
                          m.auth);
}

// Accepts replica `idx`'s signed ack of a WRITE of `object` at `t`.
auto signed_ack(const crypto::Keystore& ks, ObjectId object, Timestamp t) {
  return [&ks, object, t](auto&, std::uint32_t idx, const rpc::Envelope& e) {
    auto m = from_wire<BqsWriteRep>(e.body);
    return m && m->object == object && m->ts == t && m->replica == idx &&
           signed_by(ks, idx, *m);
  };
}

}  // namespace

// ------------------------------------------------------------ replica

const BqsEntry* BqsReplica::find_object(ObjectId object) const {
  auto it = objects_.find(object);
  return it == objects_.end() ? nullptr : &it->second;
}

void BqsReplica::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  auto signed_reply = [&](rpc::MsgType type, auto& rep) {
    rep.replica = id_;
    auto sig = signer_.sign(rep.signing_payload());
    rep.auth = sig.is_ok() ? std::move(sig).take() : Bytes{};
    reply(from, env, type, to_wire(rep));
  };

  switch (env.type) {
    case rpc::MsgType::kBqsReadTs: {
      auto req = from_wire<ObjectNonce>(env.body);
      if (!req) return;
      BqsReadTsRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.ts = objects_[req->object].ts;
      metrics_.inc("reply_read_ts");
      signed_reply(rpc::MsgType::kBqsReadTsReply, rep);
      break;
    }
    case rpc::MsgType::kBqsWrite: {
      auto req = from_wire<BqsWriteReq>(env.body);
      if (!req) return;
      // The ONLY write check in classic BQS: the client is authorized
      // (its signature over 〈value, ts〉 verifies) and ts is newer.
      const Bytes stmt = bqs_value_statement(req->object, req->ts,
                                             crypto::sha256(req->value));
      if (quorum::is_replica_principal(req->client) ||
          !keystore_.verify_cached(quorum::client_principal(req->client), stmt,
                                   req->sig)) {
        metrics_.inc("drop_bad_auth");
        return;
      }
      BqsEntry& entry = objects_[req->object];
      if (req->ts > entry.ts) {
        entry = BqsEntry{req->value, req->ts, req->client, req->sig};
        metrics_.inc("state_overwritten");
      }
      BqsWriteRep rep;
      rep.object = req->object;
      rep.ts = req->ts;
      metrics_.inc("reply_write");
      signed_reply(rpc::MsgType::kBqsWriteReply, rep);
      break;
    }
    case rpc::MsgType::kBqsRead: {
      auto req = from_wire<ObjectNonce>(env.body);
      if (!req) return;
      BqsReadRep rep;
      rep.object = req->object;
      rep.nonce = req->nonce;
      rep.entry = objects_[req->object];
      metrics_.inc("reply_read");
      signed_reply(rpc::MsgType::kBqsReadReply, rep);
      break;
    }
    default:
      // The shared MsgType enum spans every protocol family; a BQS
      // replica ignores the BFT-BC / SBQL / Phalanx types by design.
      break;
  }
}

// ------------------------------------------------------------ client

struct BqsClient::ReadOp : Op {
  bool any = false;
  BqsEntry best;
  std::set<Timestamp> versions;
  ReadCallback rcb;
};

void BqsClient::write(ObjectId object, Bytes value, WriteCallback cb) {
  Op& op = add_op(object);
  op.value = std::move(value);
  op.wcb = std::move(cb);
  op.nonce = nonces_.next();
  metrics_.inc("writes");
  phase(
      op, rpc::MsgType::kBqsReadTs, to_wire(ObjectNonce{object, op.nonce}),
      rpc::MsgType::kBqsReadTsReply,
      [this](Op& op, std::uint32_t idx, const rpc::Envelope& e) {
        auto m = echo_reply<BqsReadTsRep>(op, idx, e);
        if (!m || !signed_by(keystore_, idx, *m)) return false;
        if (m->ts > op.max_ts) op.max_ts = m->ts;
        return true;
      },
      [this](Op& op) {
        // Phase 2: write 〈value, succ(max_ts)〉 signed by us.
        const Timestamp t = op.max_ts.succ(id_);
        auto sig = signer_.sign(
            bqs_value_statement(op.object, t, crypto::sha256(op.value)));
        if (!sig.is_ok()) {
          finish(op, std::move(op.wcb), Result<WriteResult>(sig.status()));
          return;
        }
        const BqsWriteReq req{op.object, op.value, t, id_,
                              std::move(sig).take()};
        phase(op, rpc::MsgType::kBqsWrite, to_wire(req),
              rpc::MsgType::kBqsWriteReply, signed_ack(keystore_, op.object, t),
              [this, t](Op& op) { finish_write(op, t); });
      });
}

void BqsClient::read(ObjectId object, ReadCallback cb) {
  auto& op = add_op<ReadOp>(object);
  op.rcb = std::move(cb);
  op.nonce = nonces_.next();
  metrics_.inc("reads");
  phase(
      op, rpc::MsgType::kBqsRead, to_wire(ObjectNonce{object, op.nonce}),
      rpc::MsgType::kBqsReadReply,
      [this](ReadOp& op, std::uint32_t idx, const rpc::Envelope& e) {
        auto m = echo_reply<BqsReadRep>(op, idx, e);
        // The value must carry a valid writer signature (or be genesis).
        if (!m || !signed_by(keystore_, idx, *m) ||
            !m->entry.verify(op.object, keystore_)) {
          return false;
        }
        op.versions.insert(m->entry.ts);
        if (!op.any || m->entry.ts > op.best.ts) {
          op.any = true;
          op.best = m->entry;
        }
        return true;
      },
      [this](ReadOp& op) {
        if (op.versions.size() <= 1) {
          finish_read(op);
          return;
        }
        // Write-back phase (Phalanx extension): replay the winning entry
        // with its ORIGINAL writer signature.
        const BqsEntry& best = op.best;
        const BqsWriteReq req{op.object, best.value, best.ts, best.writer,
                              best.writer_sig};
        phase(op, rpc::MsgType::kBqsWrite, to_wire(req),
              rpc::MsgType::kBqsWriteReply,
              signed_ack(keystore_, op.object, best.ts),
              [this](ReadOp& op) { finish_read(op); });
      });
}

void BqsClient::finish_read(ReadOp& op) {
  metrics_.inc("read_phases", static_cast<std::uint64_t>(op.phases));
  finish(op, std::move(op.rcb),
         Result<ReadResult>(ReadResult{op.best.value, op.best.ts, op.phases}));
}

// ------------------------------------------------------------ attacker

BqsEquivocator::BqsEquivocator(const quorum::QuorumConfig& config, ClientId id,
                               crypto::Keystore& keystore,
                               rpc::Transport& transport,
                               sim::Simulator& simulator,
                               std::vector<sim::NodeId> replica_nodes, Rng rng)
    : QuorumClient(config, id, keystore, transport, simulator,
                   std::move(replica_nodes), rng) {
  next_rpc_id_ = 0xbad;
}

void BqsEquivocator::attack(ObjectId object, Bytes v1, Bytes v2,
                            std::function<void()> done) {
  Op& op = add_op(object);
  op.nonce = nonces_.next();
  phase(
      op, rpc::MsgType::kBqsReadTs, to_wire(ObjectNonce{object, op.nonce}),
      rpc::MsgType::kBqsReadTsReply,
      [](Op& op, std::uint32_t idx, const rpc::Envelope& e) {
        auto m = echo_reply<BqsReadTsRep>(op, idx, e);
        if (m && m->ts > op.max_ts) op.max_ts = m->ts;
        return m.has_value();
      },
      [this, v1 = std::move(v1), v2 = std::move(v2),
       done = std::move(done)](Op& op) {
        const Timestamp t = op.max_ts.succ(id_);
        // Sign BOTH values for the same timestamp — BQS replicas accept
        // whichever reaches them. Split the group in half.
        auto send_half = [&](const Bytes& v, std::size_t lo, std::size_t hi) {
          auto sig = signer_.sign(
              bqs_value_statement(op.object, t, crypto::sha256(v)));
          if (!sig.is_ok()) return;
          const BqsWriteReq w{op.object, v, t, id_, std::move(sig).take()};
          const rpc::Envelope env = envelope(
              rpc::MsgType::kBqsWrite, next_rpc_id_++, signer_.principal(),
              to_wire(w));
          for (std::size_t i = lo; i < hi; ++i)
            transport_.send(replica_nodes_[i], env);
        };
        const std::size_t half = replica_nodes_.size() / 2;
        send_half(v1, 0, half);
        send_half(v2, half, replica_nodes_.size());
        finish(op, done);
      });
}

}  // namespace bftbc::baselines

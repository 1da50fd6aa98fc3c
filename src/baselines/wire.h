// Wire vocabulary the baseline protocols (BQS, Phalanx, SBQ-L) share.
//
// Each message is a plain struct with `put(Writer&)` / `get(Reader&)`;
// `to_wire` and `from_wire` frame it as a whole envelope body, and
// `from_wire` rejects truncation and trailing bytes. The shapes here are
// unauthenticated; BQS's signed replies, Phalanx's echo and SBQ-L's
// forward stay local to their protocols.
#pragma once

#include <optional>

#include "crypto/nonce.h"
#include "quorum/config.h"
#include "quorum/statements.h"
#include "quorum/timestamp.h"
#include "rpc/message.h"
#include "util/codec.h"

namespace bftbc::baselines {

using quorum::ClientId;
using quorum::ObjectId;
using quorum::ReplicaId;
using quorum::Timestamp;

template <typename Msg>
Bytes to_wire(const Msg& msg) {
  Writer w;
  msg.put(w);
  return std::move(w).take();
}

template <typename Msg>
std::optional<Msg> from_wire(BytesView body) {
  Reader r(body);
  Msg msg;
  msg.get(r);
  if (!r.done()) return std::nullopt;
  return msg;
}

inline rpc::Envelope envelope(rpc::MsgType type, std::uint64_t rpc_id,
                              crypto::PrincipalId sender, Bytes body = {}) {
  rpc::Envelope env;
  env.type = type;
  env.rpc_id = rpc_id;
  env.sender = sender;
  env.body = std::move(body);
  return env;
}

// READ-TS and READ requests: the object and a fresh nonce.
struct ObjectNonce {
  ObjectId object = 0;
  crypto::Nonce nonce;

  void put(Writer& w) const {
    w.put_u64(object);
    nonce.encode(w);
  }
  void get(Reader& r) {
    object = r.get_u64();
    nonce = crypto::Nonce::decode(r);
  }
  friend bool operator==(const ObjectNonce&, const ObjectNonce&) = default;
};

// READ-TS reply: the replica's current timestamp for the object.
struct TsReply {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Timestamp ts;
  ReplicaId replica = 0;

  void put(Writer& w) const {
    w.put_u64(object);
    nonce.encode(w);
    ts.encode(w);
    w.put_u32(replica);
  }
  void get(Reader& r) {
    object = r.get_u64();
    nonce = crypto::Nonce::decode(r);
    ts = Timestamp::decode(r);
    replica = r.get_u32();
  }
  friend bool operator==(const TsReply&, const TsReply&) = default;
};

// WRITE reply: the replica received the write at `ts`.
struct Ack {
  ObjectId object = 0;
  Timestamp ts;
  ReplicaId replica = 0;

  void put(Writer& w) const {
    w.put_u64(object);
    ts.encode(w);
    w.put_u32(replica);
  }
  void get(Reader& r) {
    object = r.get_u64();
    ts = Timestamp::decode(r);
    replica = r.get_u32();
  }
  friend bool operator==(const Ack&, const Ack&) = default;
};

// READ reply: the replica's current 〈value, ts〉 for the object.
struct ValueReply {
  ObjectId object = 0;
  crypto::Nonce nonce;
  Bytes value;
  Timestamp ts;
  ReplicaId replica = 0;

  void put(Writer& w) const {
    w.put_u64(object);
    nonce.encode(w);
    w.put_bytes(value);
    ts.encode(w);
    w.put_u32(replica);
  }
  void get(Reader& r) {
    object = r.get_u64();
    nonce = crypto::Nonce::decode(r);
    value = r.get_bytes();
    ts = Timestamp::decode(r);
    replica = r.get_u32();
  }
  friend bool operator==(const ValueReply&, const ValueReply&) = default;
};

}  // namespace bftbc::baselines

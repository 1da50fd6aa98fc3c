// The skeleton the baseline protocols (BQS, Phalanx, SBQ-L) share.
//
//   Node          what every baseline replica and client holds: config,
//                 id, signing key, transport and counters; inbound
//                 envelopes arrive at on_envelope
//   QuorumClient  the client plumbing: the op table, one QuorumCall per
//                 phase with reply routing, op retirement, and the
//                 two-phase write Phalanx and SBQ-L run unchanged
//
// Each protocol keeps only its own phases and its read rule.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "baselines/wire.h"
#include "rpc/quorum_call.h"
#include "rpc/transport.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bftbc::baselines {

class Node {
 public:
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint32_t id() const { return id_; }
  const Counters& metrics() const { return metrics_; }

 protected:
  // `self` is the principal the node signs and sends as.
  Node(const quorum::QuorumConfig& config, std::uint32_t id,
       crypto::PrincipalId self, crypto::Keystore& keystore,
       rpc::Transport& transport);
  virtual ~Node() = default;

  virtual void on_envelope(sim::NodeId from, const rpc::Envelope& env) = 0;
  // Answers `request` (received from `to`) with `body`.
  void reply(sim::NodeId to, const rpc::Envelope& request, rpc::MsgType type,
             Bytes body);

  quorum::QuorumConfig config_;
  std::uint32_t id_;
  crypto::Keystore& keystore_;
  crypto::Signer signer_;
  rpc::Transport& transport_;
  Counters metrics_;
};

class QuorumClient : public Node {
 public:
  struct WriteResult {
    Timestamp ts;
    int phases = 0;
  };
  using WriteCallback = std::function<void(Result<WriteResult>)>;

  QuorumClient(const quorum::QuorumConfig& config, ClientId id,
               crypto::Keystore& keystore, rpc::Transport& transport,
               sim::Simulator& simulator,
               std::vector<sim::NodeId> replica_nodes, Rng rng);
  ~QuorumClient() override;

 protected:
  // One client operation. Writes use it as is; reads extend it.
  struct Op {
    virtual ~Op() = default;
    std::uint64_t op_id = 0;
    ObjectId object = 0;
    int phases = 0;  // quorum calls started so far
    Bytes value;
    crypto::Nonce nonce;
    Timestamp max_ts;
    WriteCallback wcb;
    std::unique_ptr<rpc::QuorumCall> call;
    sim::TimerId timer = 0;  // a pending retry, cancelled with the client
  };

  // The request and reply types of one protocol's two-phase write.
  struct WriteTypes {
    rpc::MsgType read_ts, read_ts_reply, write, write_reply;
  };

  void on_envelope(sim::NodeId from, const rpc::Envelope& env) override;

  template <typename T = Op>
  T& add_op(ObjectId object) {
    auto owned = std::make_unique<T>();
    T& op = *owned;
    op.op_id = next_op_id_++;
    op.object = object;
    ops_[op.op_id] = std::move(owned);
    return op;
  }

  template <typename T = Op>
  T* find(std::uint64_t op_id) {
    auto it = ops_.find(op_id);
    return it == ops_.end() ? nullptr : static_cast<T*>(it->second.get());
  }

  // Starts `op`'s next quorum phase: sends `body` as `type` to every
  // replica and counts a reply once it is a `reply_type` envelope that
  // `accept(op, replica, env)` takes. `done(op)` runs at a quorum.
  template <typename T, typename Accept, typename Done>
  void phase(T& op, rpc::MsgType type, Bytes body, rpc::MsgType reply_type,
             Accept accept, Done done) {
    const std::uint64_t op_id = op.op_id;
    ++op.phases;
    if (op.call) retired_.push_back(std::move(op.call));
    op.call = std::make_unique<rpc::QuorumCall>(
        sim_, transport_, replica_nodes_, config_.q,
        envelope(type, next_rpc_id_++, signer_.principal(), std::move(body)),
        [this, op_id, reply_type, accept = std::move(accept)](
            std::uint32_t idx, const rpc::Envelope& e) {
          T* op = find<T>(op_id);
          return op != nullptr && e.type == reply_type && accept(*op, idx, e);
        },
        [this, op_id, done = std::move(done)] {
          if (T* op = find<T>(op_id)) done(*op);
        });
  }

  // Decodes a reply that echoes `op`'s object and nonce and names the
  // replica it came from.
  template <typename Msg>
  static std::optional<Msg> echo_reply(const Op& op, std::uint32_t idx,
                                       const rpc::Envelope& e) {
    auto m = from_wire<Msg>(e.body);
    if (!m || m->object != op.object || m->nonce != op.nonce ||
        m->replica != idx) {
      return std::nullopt;
    }
    return m;
  }

  // Retires `op` (its call and its table entry), then fires `cb(args...)`;
  // `args` must not refer into `op`, which is gone by then.
  template <typename Callback, typename... Args>
  void finish(Op& op, Callback cb, Args&&... args) {
    const std::uint64_t op_id = op.op_id;
    retired_.push_back(std::move(op.call));
    ops_.erase(op_id);
    if (cb) cb(std::forward<Args>(args)...);
  }

  // A write that completed at `t`.
  void finish_write(Op& op, const Timestamp& t);

  // The two-phase write: READ-TS for the highest timestamp a quorum
  // reports, then a `WriteMsg` 〈value, succ(ts)〉 until a quorum acks.
  template <typename WriteMsg>
  void write_at_next_ts(ObjectId object, Bytes value, WriteCallback cb,
                        WriteTypes types) {
    Op& op = add_op(object);
    op.value = std::move(value);
    op.wcb = std::move(cb);
    op.nonce = nonces_.next();
    metrics_.inc("writes");
    phase(
        op, types.read_ts, to_wire(ObjectNonce{object, op.nonce}),
        types.read_ts_reply,
        [](Op& op, std::uint32_t idx, const rpc::Envelope& e) {
          auto m = echo_reply<TsReply>(op, idx, e);
          if (m && m->ts > op.max_ts) op.max_ts = m->ts;
          return m.has_value();
        },
        [this, types](Op& op) {
          WriteMsg msg;
          msg.object = op.object;
          msg.value = op.value;
          msg.ts = op.max_ts.succ(id_);
          const Timestamp t = msg.ts;
          phase(
              op, types.write, to_wire(msg), types.write_reply,
              [t](Op&, std::uint32_t idx, const rpc::Envelope& e) {
                auto m = from_wire<Ack>(e.body);
                return m && m->ts == t && m->replica == idx;
              },
              [this, t](Op& op) { finish_write(op, t); });
        });
  }

  sim::Simulator& sim_;
  std::vector<sim::NodeId> replica_nodes_;
  crypto::NonceGenerator nonces_;
  std::map<std::uint64_t, std::unique_ptr<Op>> ops_;
  std::vector<std::unique_ptr<rpc::QuorumCall>> retired_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t next_rpc_id_ = 1;
};

}  // namespace bftbc::baselines

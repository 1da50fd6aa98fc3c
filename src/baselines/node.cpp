#include "baselines/node.h"

namespace bftbc::baselines {

Node::Node(const quorum::QuorumConfig& config, std::uint32_t id,
           crypto::PrincipalId self, crypto::Keystore& keystore,
           rpc::Transport& transport)
    : config_(config),
      id_(id),
      keystore_(keystore),
      signer_(keystore.register_principal(self)),
      transport_(transport) {
  transport_.set_receiver([this](sim::NodeId from, const rpc::Envelope& env) {
    on_envelope(from, env);
  });
}

void Node::reply(sim::NodeId to, const rpc::Envelope& request,
                 rpc::MsgType type, Bytes body) {
  transport_.send(to, envelope(type, request.rpc_id, signer_.principal(),
                               std::move(body)));
}

QuorumClient::QuorumClient(const quorum::QuorumConfig& config, ClientId id,
                           crypto::Keystore& keystore,
                           rpc::Transport& transport,
                           sim::Simulator& simulator,
                           std::vector<sim::NodeId> replica_nodes, Rng rng)
    : Node(config, id, quorum::client_principal(id), keystore, transport),
      sim_(simulator),
      replica_nodes_(std::move(replica_nodes)),
      nonces_(id, rng) {}

QuorumClient::~QuorumClient() {
  for (auto& [op_id, op] : ops_) sim_.cancel(op->timer);
}

void QuorumClient::on_envelope(sim::NodeId from, const rpc::Envelope& env) {
  retired_.clear();
  for (auto& [op_id, op] : ops_) {
    if (op->call && op->call->on_reply(from, env)) return;
  }
}

void QuorumClient::finish_write(Op& op, const Timestamp& t) {
  metrics_.inc("write_phases", static_cast<std::uint64_t>(op.phases));
  finish(op, std::move(op.wcb), Result<WriteResult>(WriteResult{t, op.phases}));
}

}  // namespace bftbc::baselines

// Self-tests for the benchmark's tracing layer: the decorators and the
// socket-call wrappers must forward every call and callback unchanged.
//
//   python3 livebench/run.py --selftest   (builds and runs this binary)
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "net/event_loop.h"
#include "net/udp_transport.h"
#include "trace.h"

namespace {

using bftbc::rpc::Envelope;
using bftbc::rpc::MsgType;
using bftbc::rpc::Transport;
using bftbc::sim::NodeId;

// Records what reaches it; lets the test play the network.
class FakeTransport final : public Transport {
 public:
  NodeId node_id() const override { return 7; }
  void send(NodeId to, const Envelope& env) override {
    sent.push_back({to, env});
  }
  void set_receiver(Receiver r) override { receiver = std::move(r); }

  std::vector<std::pair<NodeId, Envelope>> sent;
  Receiver receiver;
};

Envelope make_envelope(MsgType type, std::uint64_t rpc_id, bftbc::Bytes body) {
  Envelope env;
  env.type = type;
  env.sender = 3;
  env.rpc_id = rpc_id;
  env.body = std::move(body);
  return env;
}

TEST(TimedTransport, ForwardsSendsAndIdentity) {
  FakeTransport inner;
  livebench::TimedTransport timed(inner, "t", nullptr);
  EXPECT_EQ(timed.node_id(), 7u);
  const Envelope env = make_envelope(MsgType::kRead, 11, {1, 2, 3});
  timed.send(4, env);
  timed.send(5, env);
  ASSERT_EQ(inner.sent.size(), 2u);
  EXPECT_EQ(inner.sent[0].first, 4u);
  EXPECT_EQ(inner.sent[1].first, 5u);
  EXPECT_EQ(inner.sent[0].second.type, MsgType::kRead);
  EXPECT_EQ(inner.sent[0].second.rpc_id, 11u);
  EXPECT_EQ(inner.sent[0].second.body, (bftbc::Bytes{1, 2, 3}));
}

TEST(TimedTransport, ForwardsEveryDeliveryUnchangedAndTimesIt) {
  FakeTransport inner;
  livebench::SpanLog log(8);
  std::uint64_t op = 42;
  livebench::TimedTransport timed(inner, "client.handler", &log, &op);
  std::vector<std::pair<NodeId, Envelope>> got;
  timed.set_receiver(
      [&](NodeId from, const Envelope& env) { got.push_back({from, env}); });
  ASSERT_TRUE(inner.receiver);
  inner.receiver(2, make_envelope(MsgType::kReadReply, 9, {4, 5}));
  op = 43;
  inner.receiver(1, make_envelope(MsgType::kWriteReply, 10, {}));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 2u);
  EXPECT_EQ(got[0].second.type, MsgType::kReadReply);
  EXPECT_EQ(got[0].second.rpc_id, 9u);
  EXPECT_EQ(got[0].second.body, (bftbc::Bytes{4, 5}));
  EXPECT_EQ(got[1].first, 1u);
  EXPECT_EQ(timed.deliveries().count, 2u);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].key, 42u);
  EXPECT_EQ(log.spans()[1].key, 43u);
  EXPECT_EQ(log.spans()[1].type,
            static_cast<std::uint32_t>(MsgType::kWriteReply));
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[0].end_ns);
}

TEST(TimedTransport, ReplicaSpansCarryTheSender) {
  FakeTransport inner;
  livebench::SpanLog log(8);
  livebench::TimedTransport timed(inner, "replica.deliver", &log);
  timed.set_receiver([](NodeId, const Envelope&) {});
  inner.receiver(0x10002, make_envelope(MsgType::kPrepare, 1, {}));
  ASSERT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(log.spans()[0].key, 0x10002u);
  EXPECT_EQ(log.spans()[0].type,
            static_cast<std::uint32_t>(MsgType::kPrepare));
}

TEST(SpanLog, KeepsCapacityAndCountsTheRest) {
  livebench::SpanLog log(2);
  for (int i = 0; i < 5; ++i) log.add({"x", 1, 2, 0, 0});
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.overflow(), 3u);
}

TEST(TimedScheduler, ForwardsScheduleCancelAndNow) {
  bftbc::sim::Simulator sim;
  livebench::TimedScheduler timed(sim, "p", nullptr);
  std::vector<int> fired;
  timed.schedule(5, [&] { fired.push_back(1); });
  const auto cancelled = timed.schedule(3, [&] { fired.push_back(2); });
  timed.schedule(1, [&] { fired.push_back(3); });
  EXPECT_NE(cancelled, 0u);
  timed.cancel(cancelled);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{3, 1}));
  EXPECT_EQ(timed.now(), sim.now());
  EXPECT_EQ(timed.now(), 5u);
  EXPECT_EQ(timed.callbacks().count, 2u);
}

TEST(TimedScheduler, CallbacksMayScheduleMore) {
  bftbc::sim::Simulator sim;
  livebench::TimedScheduler timed(sim, "p", nullptr);
  int runs = 0;
  std::function<void()> again = [&] {
    if (++runs < 3) timed.schedule(1, again);
  };
  timed.schedule(0, again);
  sim.run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(timed.callbacks().count, 3u);
}

// Two real UdpTransports on one loop: the linker-wrapped sendto/recvfrom
// and epoll_wait must pass datagrams through byte for byte and count them.
TEST(SocketWrappers, ForwardDatagramsAndCountCalls) {
  bftbc::net::EventLoop loop;
  auto any = bftbc::net::UdpEndpoint::parse("127.0.0.1", 0);
  bftbc::net::UdpTransport server(loop, 0, *any, {});
  ASSERT_TRUE(server.valid());
  auto server_ep = bftbc::net::UdpEndpoint::parse("127.0.0.1",
                                                  server.local_port());
  bftbc::net::UdpTransport client(loop, 0x10000, *any, {{0, *server_ep}});
  ASSERT_TRUE(client.valid());

  std::vector<Envelope> got;
  server.set_receiver([&](NodeId from, const Envelope& env) {
    EXPECT_EQ(from, 0x10000u);
    got.push_back(env);
  });
  livebench::set_socket_tracing(true);
  const auto before = livebench::socket_counters();
  bftbc::Bytes body(3000);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = i * 7;
  client.send(0, make_envelope(MsgType::kWrite, 77, body));
  ASSERT_TRUE(loop.run_until([&] { return !got.empty(); },
                             2 * bftbc::sim::kSecond));
  const auto d = livebench::socket_counters() - before;
  livebench::set_socket_tracing(false);

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, MsgType::kWrite);
  EXPECT_EQ(got[0].rpc_id, 77u);
  EXPECT_EQ(got[0].body, body);
  EXPECT_EQ(d.sendto.count, 1u);
  EXPECT_EQ(d.sendto_ok, 1u);
  EXPECT_EQ(d.recvfrom_ok, 1u);
  // The drain loop ends on the call that finds the socket empty.
  EXPECT_GE(d.recvfrom.count, 2u);
  EXPECT_GE(d.wait.count, 1u);
  EXPECT_EQ(client.counters().get("msgs_sent"), 1u);
  EXPECT_EQ(server.counters().get("msgs_delivered"), 1u);
}

TEST(SocketWrappers, OffMeansNotCounted) {
  livebench::set_socket_tracing(false);
  const auto before = livebench::socket_counters();
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  char buf[4];
  EXPECT_LT(::recvfrom(fd, buf, sizeof(buf), MSG_DONTWAIT, nullptr, nullptr),
            0);
  ::close(fd);
  const auto d = livebench::socket_counters() - before;
  EXPECT_EQ(d.recvfrom.count, 0u);
}

}  // namespace

// Tests for the SBQ-L baseline — including measurements of the two costs
// §8 attributes to its reliable-network assumption: unbounded
// retransmission buffers under a crashed replica, and readers slowed by
// concurrent writers.
#include <gtest/gtest.h>

#include "harness/baseline_cluster.h"

namespace bftbc {
namespace {

using harness::BaselineOptions;
using harness::SbqlCluster;

TEST(SbqlTest, WriteReadRoundtrip) {
  SbqlCluster cluster;
  auto& c = cluster.add_client(1);
  auto w = cluster.write(c, 1, to_bytes("hello"));
  ASSERT_TRUE(w.is_ok());
  EXPECT_EQ(w.value().phases, 2);
  cluster.run_for(sim::kSecond);  // let forwards settle

  auto r = cluster.read(cluster.add_client(2), 1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(to_string(r.value().value), "hello");
  EXPECT_EQ(r.value().rounds, 1);
}

TEST(SbqlTest, ForwardsReachAllReplicas) {
  SbqlCluster cluster;
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("v")).is_ok());
  cluster.run_for(sim::kSecond);
  for (quorum::ReplicaId r = 0; r < cluster.config().n; ++r) {
    const auto* st = cluster.replica(r).stored(1);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(to_string(st->value), "v") << "replica " << r;
  }
  // All forwards acked: buffers empty.
  EXPECT_EQ(cluster.total_outbox_bytes(), 0u);
}

TEST(SbqlTest, SequentialWritesLinearize) {
  SbqlCluster cluster;
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.write(c, 1, to_bytes("v" + std::to_string(i))).is_ok());
    cluster.run_for(200 * sim::kMillisecond);
    auto r = cluster.read(c, 1);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(to_string(r.value().value), "v" + std::to_string(i));
  }
}

TEST(SbqlTest, CrashedReplicaGrowsBuffersWithoutBound) {
  // §8: "the failure of a single replica (which might just have crashed)
  // causes all messages from that point on to be remembered and
  // retransmitted."
  SbqlCluster cluster;
  cluster.net().crash(3);
  auto& c = cluster.add_client(1);

  std::vector<std::size_t> samples;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.write(c, 1, to_bytes("w" + std::to_string(i))).is_ok());
    cluster.run_for(100 * sim::kMillisecond);
    samples.push_back(cluster.total_outbox_bytes());
  }
  // Strictly growing: every write adds buffered forwards for the dead
  // peer that can never be acked.
  EXPECT_GT(samples.front(), 0u);
  EXPECT_GT(samples.back(), samples.front());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i], samples[i - 1]);
  }

  // Contrast is measured in the bench: BFT-BC has NO server-to-server
  // traffic, so a crashed replica costs correct replicas nothing.
}

TEST(SbqlTest, BuffersDrainAfterRecovery) {
  SbqlCluster cluster;
  cluster.net().crash(3);
  auto& c = cluster.add_client(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.write(c, 1, to_bytes("w" + std::to_string(i))).is_ok());
  }
  cluster.run_for(100 * sim::kMillisecond);
  EXPECT_GT(cluster.total_outbox_bytes(), 0u);

  cluster.net().recover(3);
  cluster.run_for(2 * sim::kSecond);  // retransmissions land and get acked
  EXPECT_EQ(cluster.total_outbox_bytes(), 0u);
  // The recovered replica caught up through the reliable channel.
  const auto* st = cluster.replica(3).stored(1);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(to_string(st->value), "w4");
}

TEST(SbqlTest, ConcurrentWriterSlowsReader) {
  // §8: "In this protocol concurrent writers can slow down readers."
  // With a writer continuously installing new values, the reader's
  // demand for 2f+1 IDENTICAL replies keeps failing during propagation
  // windows; measure reads needing > 1 round across seeds. (BFT-BC reads
  // are 1-2 phases regardless — E3.)
  int multi_round_reads = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    BaselineOptions o;
    o.seed = seed;
    o.link.jitter_mean = 3 * sim::kMillisecond;  // slow, spread forwards
    SbqlCluster cluster(o);
    auto& writer = cluster.add_client(1);
    auto& reader = cluster.add_client(2);
    ASSERT_TRUE(cluster.write(writer, 1, to_bytes("base")).is_ok());
    cluster.run_for(sim::kSecond);

    // Continuous write chain.
    std::function<void(int)> churn = [&](int i) {
      if (i >= 30) return;
      writer.write(1, to_bytes("c" + std::to_string(i)),
                   [&churn, i](Result<baselines::SbqlClient::WriteResult>) {
                     churn(i + 1);
                   });
    };
    churn(0);

    auto r = cluster.read(reader, 1);
    ASSERT_TRUE(r.is_ok()) << "seed " << seed;
    if (r.value().rounds > 1) ++multi_round_reads;
    cluster.run_for(sim::kSecond);
  }
  EXPECT_GT(multi_round_reads, 0)
      << "expected concurrent writes to force some multi-round reads";
}

// Wire-cost pin: one write and one read at the default seed, with the
// forwards and their acks counted. The exact figures guard the SBQ-L
// encodings: any byte added to or dropped from a message shows up here.
TEST(SbqlTest, WireCostPinned) {
  SbqlCluster cluster;
  auto& c = cluster.add_client(1);
  ASSERT_TRUE(cluster.write(c, 1, to_bytes("pin")).is_ok());
  ASSERT_TRUE(cluster.read(c, 1).is_ok());
  cluster.run_for(sim::kSecond);
  EXPECT_EQ(cluster.net().counters().get("msgs_sent"), 48u);
  EXPECT_EQ(cluster.net().counters().get("bytes_sent"), 1888u);
}

}  // namespace
}  // namespace bftbc

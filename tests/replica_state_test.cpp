// Unit tests for the ObjectState rules (Figure 2's Plist/optlist logic) —
// the invariants Lemma 1 rests on, tested without any networking.
#include <gtest/gtest.h>

#include "bftbc/replica_state.h"

namespace bftbc::core {
namespace {

crypto::Digest h(const char* s) { return crypto::sha256(as_bytes_view(s)); }

PrepareCertificate cert_for(ObjectId obj, Timestamp ts, const char* value) {
  // State-level tests don't validate signatures, so an unsigned
  // certificate shell carrying (ts, hash) suffices.
  return PrepareCertificate(obj, ts, h(value), {});
}

TEST(ObjectStateTest, InitialStateIsGenesis) {
  ObjectState s(3);
  EXPECT_TRUE(s.data().empty());
  EXPECT_TRUE(s.pcert().is_genesis());
  EXPECT_TRUE(s.write_ts().is_zero());
  EXPECT_TRUE(s.plist().empty());
  EXPECT_TRUE(s.optlist().empty());
}

TEST(ObjectStateTest, PrepareAdmitsFreshEntry) {
  ObjectState s(1);
  EXPECT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  ASSERT_EQ(s.plist().size(), 1u);
  EXPECT_EQ(s.plist().at(7).t, (Timestamp{1, 7}));
}

TEST(ObjectStateTest, PrepareIdempotentForSameEntry) {
  ObjectState s(1);
  EXPECT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  EXPECT_TRUE(s.try_prepare(7, {1, 7}, h("a")));  // retransmission
  EXPECT_EQ(s.plist().size(), 1u);
}

TEST(ObjectStateTest, PrepareConflictOnDifferentTimestamp) {
  // Figure 2 phase 2 step 3: a client gets ONE slot; a different t for
  // the same client is discarded. This is the wall against stockpiling
  // prepared writes (§3.2 attack 4).
  ObjectState s(1);
  EXPECT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  EXPECT_FALSE(s.try_prepare(7, {2, 7}, h("a")));
  EXPECT_EQ(s.plist().size(), 1u);
}

TEST(ObjectStateTest, PrepareConflictOnDifferentHash) {
  // Same timestamp, different value — the equivocation attack (§3.2
  // attack 1).
  ObjectState s(1);
  EXPECT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  EXPECT_FALSE(s.try_prepare(7, {1, 7}, h("b")));
}

TEST(ObjectStateTest, DifferentClientsGetIndependentSlots) {
  ObjectState s(1);
  EXPECT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  EXPECT_TRUE(s.try_prepare(8, {1, 8}, h("b")));
  EXPECT_EQ(s.plist().size(), 2u);
}

TEST(ObjectStateTest, StalePrepareNotAddedButReplied) {
  ObjectState s(1);
  s.absorb_write_certificate({5, 3});
  // t <= write_ts: harmless, replica replies but does not store.
  EXPECT_TRUE(s.try_prepare(7, {4, 7}, h("a")));
  EXPECT_TRUE(s.plist().empty());
}

TEST(ObjectStateTest, WriteCertificateGarbageCollectsPlist) {
  ObjectState s(1);
  ASSERT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  ASSERT_TRUE(s.try_prepare(8, {2, 8}, h("b")));
  ASSERT_TRUE(s.try_prepare(9, {3, 9}, h("c")));

  s.absorb_write_certificate({2, 8});
  // Entries with t <= <2,8> removed; client 9's survives.
  EXPECT_EQ(s.plist().size(), 1u);
  EXPECT_EQ(s.plist().count(9), 1u);

  // Client 7 can now prepare again (liveness: its old entry is gone).
  EXPECT_TRUE(s.try_prepare(7, {3, 7}, h("d")));
  EXPECT_EQ(s.plist().size(), 2u);
}

TEST(ObjectStateTest, WriteTsOnlyAdvances) {
  ObjectState s(1);
  s.absorb_write_certificate({5, 1});
  EXPECT_EQ(s.write_ts(), (Timestamp{5, 1}));
  s.absorb_write_certificate({3, 2});  // older cert: no regression
  EXPECT_EQ(s.write_ts(), (Timestamp{5, 1}));
  s.absorb_write_certificate({6, 1});
  EXPECT_EQ(s.write_ts(), (Timestamp{6, 1}));
}

TEST(ObjectStateTest, ApplyWriteOverwritesNewerOnly) {
  ObjectState s(1);
  EXPECT_TRUE(s.apply_write(to_bytes("v1"), cert_for(1, {1, 1}, "v1"), false));
  EXPECT_EQ(to_string(s.data()), "v1");
  EXPECT_EQ(s.pcert().ts(), (Timestamp{1, 1}));

  // Older write arrives late: state unchanged, reply still happens.
  EXPECT_FALSE(s.apply_write(to_bytes("v0"), cert_for(1, {0, 1}, "v0"), false));
  EXPECT_EQ(to_string(s.data()), "v1");

  EXPECT_TRUE(s.apply_write(to_bytes("v2"), cert_for(1, {2, 2}, "v2"), false));
  EXPECT_EQ(to_string(s.data()), "v2");
}

TEST(ObjectStateTest, EqualTimestampIgnoredInBaseMode) {
  ObjectState s(1);
  ASSERT_TRUE(s.apply_write(to_bytes("aaa"), cert_for(1, {1, 1}, "aaa"), false));
  EXPECT_FALSE(
      s.apply_write(to_bytes("zzz"), cert_for(1, {1, 1}, "zzz"), false));
  EXPECT_EQ(to_string(s.data()), "aaa");
}

TEST(ObjectStateTest, EqualTimestampLargerHashWinsInOptimizedMode) {
  // §6.2 phase 3: same timestamp, keep the larger hash — deterministic on
  // every replica, so replicas converge no matter the arrival order.
  ObjectState s1(1), s2(1);
  const char* a = "aaa";
  const char* b = "zzz";
  const bool a_bigger = crypto::compare_digests(h(a), h(b)) > 0;
  const char* small = a_bigger ? b : a;
  const char* big = a_bigger ? a : b;

  // Order 1: small then big.
  EXPECT_TRUE(s1.apply_write(to_bytes(small), cert_for(1, {1, 1}, small), true));
  EXPECT_TRUE(s1.apply_write(to_bytes(big), cert_for(1, {1, 1}, big), true));
  // Order 2: big then small.
  EXPECT_TRUE(s2.apply_write(to_bytes(big), cert_for(1, {1, 1}, big), true));
  EXPECT_FALSE(s2.apply_write(to_bytes(small), cert_for(1, {1, 1}, small), true));

  EXPECT_EQ(s1.data(), s2.data());
  EXPECT_EQ(to_string(s1.data()), big);
}

// ------------------------------------------------------------- optlist

TEST(ObjectStateTest, OptPrepareUsesSuccOfCurrentCert) {
  ObjectState s(1);
  auto t = s.try_opt_prepare(7, h("a"));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, (Timestamp{1, 7}));  // succ of genesis for client 7
  EXPECT_EQ(s.optlist().size(), 1u);
}

TEST(ObjectStateTest, OptPrepareIdempotent) {
  ObjectState s(1);
  auto t1 = s.try_opt_prepare(7, h("a"));
  auto t2 = s.try_opt_prepare(7, h("a"));
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(*t1, *t2);
  EXPECT_EQ(s.optlist().size(), 1u);
}

TEST(ObjectStateTest, OptPrepareRejectsSecondHash) {
  ObjectState s(1);
  ASSERT_TRUE(s.try_opt_prepare(7, h("a")).has_value());
  EXPECT_FALSE(s.try_opt_prepare(7, h("b")).has_value());
}

TEST(ObjectStateTest, OptPrepareRejectsWhenNormalEntryDiffers) {
  // One slot per list, and the two entries must not contradict (§6.1).
  ObjectState s(1);
  ASSERT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  // Prediction would be <1,7> with hash "b": conflicts with plist entry.
  EXPECT_FALSE(s.try_opt_prepare(7, h("b")).has_value());
  // Same (t, h) as the plist entry is fine.
  EXPECT_TRUE(s.try_opt_prepare(7, h("a")).has_value());
}

TEST(ObjectStateTest, OptPrepareRefusedWhileDifferentPlistEntryHeld) {
  // §6.2: the replica prepares on the client's behalf "unless the client
  // already has an entry in either prepare list for a different
  // timestamp or hash" — an old normal-list entry blocks the optimistic
  // path (the client must fall back to phase 2).
  ObjectState s(1);
  ASSERT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  ASSERT_TRUE(s.apply_write(to_bytes("x"), cert_for(1, {5, 2}, "x"), false));
  EXPECT_FALSE(s.try_opt_prepare(7, h("b")).has_value());
}

TEST(ObjectStateTest, ClientMayHoldOneEntryPerListViaFallback) {
  // The two-entry state of §6.1 arises the other way around: an
  // optimistic prepare lands in optlist, the fast path fails, and the
  // client's fallback phase 2 — which ignores the optlist — adds a
  // (possibly different) entry to the normal list. This is exactly the
  // window that makes two lurking writes possible (§6.3).
  ObjectState s(1);
  auto t_opt = s.try_opt_prepare(7, h("a"));
  ASSERT_TRUE(t_opt.has_value());
  ASSERT_TRUE(s.try_prepare(7, {4, 7}, h("b")));
  EXPECT_EQ(s.plist().size(), 1u);
  EXPECT_EQ(s.optlist().size(), 1u);
  EXPECT_NE(s.plist().at(7), s.optlist().at(7));
}

TEST(ObjectStateTest, OptPrepareFailsWhenCertLagsWriteTs) {
  // Replica knows (via a write certificate) that <5,2> committed but its
  // own pcert is older: a prediction from stale state is refused.
  ObjectState s(1);
  s.absorb_write_certificate({5, 2});
  EXPECT_FALSE(s.try_opt_prepare(7, h("a")).has_value());
}

TEST(ObjectStateTest, WriteCertificateGarbageCollectsOptlist) {
  ObjectState s(1);
  ASSERT_TRUE(s.try_opt_prepare(7, h("a")).has_value());  // t = <1,7>
  ASSERT_TRUE(s.try_prepare(8, {2, 8}, h("b")));
  s.absorb_write_certificate({1, 7});
  EXPECT_TRUE(s.optlist().empty());
  EXPECT_EQ(s.plist().size(), 1u);  // <2,8> survives
}

TEST(ObjectStateTest, HasEntryChecksBothLists) {
  ObjectState s(1);
  EXPECT_FALSE(s.has_entry(7));
  ASSERT_TRUE(s.try_prepare(7, {1, 7}, h("a")));
  EXPECT_TRUE(s.has_entry(7));
  ObjectState s2(1);
  ASSERT_TRUE(s2.try_opt_prepare(7, h("a")).has_value());
  EXPECT_TRUE(s2.has_entry(7));
}

TEST(ObjectStateTest, StateBytesGrowsWithPlist) {
  ObjectState s(1);
  const std::size_t empty = s.state_bytes();
  for (ClientId c = 1; c <= 10; ++c) {
    ASSERT_TRUE(s.try_prepare(c, {1, c}, h("x")));
  }
  const std::size_t full = s.state_bytes();
  EXPECT_GT(full, empty);
  // O(#writers): linear growth, one fixed-size entry per client.
  EXPECT_EQ((full - empty) % 10, 0u);
}

// Property sweep: prepare-list size never exceeds the number of distinct
// clients, no matter the operation mix (the §3.3.1 state bound).
class PlistBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlistBoundTest, PlistBoundedByClients) {
  Rng rng(GetParam());
  ObjectState s(1);
  constexpr ClientId kClients = 8;
  Timestamp committed;
  for (int step = 0; step < 300; ++step) {
    const ClientId c = 1 + static_cast<ClientId>(rng.next_below(kClients));
    switch (rng.next_below(4)) {
      case 0:
        (void)s.try_prepare(c, s.pcert().ts().succ(c),
                            h(std::to_string(step).c_str()));
        break;
      case 1:
        (void)s.try_opt_prepare(c, h(std::to_string(step).c_str()));
        break;
      case 2: {
        const Timestamp t = s.pcert().ts().succ(c);
        const std::string v = "v" + std::to_string(step);
        (void)s.apply_write(to_bytes(v), cert_for(1, t, v.c_str()), true);
        break;
      }
      case 3:
        committed = s.pcert().ts();
        s.absorb_write_certificate(committed);
        break;
    }
    EXPECT_LE(s.plist().size(), kClients);
    EXPECT_LE(s.optlist().size(), kClients);
    // GC invariant: no surviving entry is at or below write_ts.
    for (const auto& [client, entry] : s.plist()) {
      EXPECT_GT(entry.t, s.write_ts());
    }
    for (const auto& [client, entry] : s.optlist()) {
      EXPECT_GT(entry.t, s.write_ts());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlistBoundTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 42, 99));

// ---- crash recovery: ObjectState::recover merge rules ------------------

// Build a peer snapshot holding a written value at `ts` plus optional
// plist entries.
ObjectState peer_with_write(ObjectId obj, Timestamp ts, const char* value) {
  ObjectState s(obj);
  EXPECT_TRUE(s.apply_write(to_bytes(value), cert_for(obj, ts, value),
                            /*optimized_tiebreak=*/false));
  s.absorb_write_certificate(ts);
  return s;
}

TEST(ObjectStateRecoverTest, HighestCertifiedValueWins) {
  std::vector<ObjectState> peers;
  peers.push_back(peer_with_write(1, {3, 2}, "newest"));
  peers.push_back(peer_with_write(1, {1, 1}, "oldest"));
  peers.push_back(peer_with_write(1, {2, 1}, "middle"));
  const ObjectState r = ObjectState::recover(1, peers, /*f=*/1);
  EXPECT_EQ(r.pcert().ts(), (Timestamp{3, 2}));
  EXPECT_EQ(r.data(), to_bytes("newest"));
}

TEST(ObjectStateRecoverTest, PlistIsUnionOfSnapshots) {
  // Lemma 1 only guarantees a certified prepare appears in >=1 of any
  // 2f+1 snapshots, so recovery must union the lists: a threshold above
  // one would forget a real lurking prepare and break the bound.
  ObjectState a(1), b(1), c(1);
  EXPECT_TRUE(a.try_prepare(7, {1, 7}, h("x")));
  EXPECT_TRUE(b.try_prepare(9, {1, 9}, h("y")));
  const ObjectState r = ObjectState::recover(1, {a, b, c}, /*f=*/1);
  EXPECT_EQ(r.plist().size(), 2u);
  EXPECT_EQ(r.plist().at(7).t, (Timestamp{1, 7}));
  EXPECT_EQ(r.plist().at(9).t, (Timestamp{1, 9}));
}

TEST(ObjectStateRecoverTest, FirstClaimPerClientWinsInPeerOrder) {
  // Two snapshots claim different entries for the same client (one of
  // them is lying or stale). Peers are passed in replica-index order, so
  // the earlier snapshot's claim is adopted deterministically.
  ObjectState a(1), b(1);
  EXPECT_TRUE(a.try_prepare(7, {2, 7}, h("a-claim")));
  EXPECT_TRUE(b.try_prepare(7, {3, 7}, h("b-claim")));
  const ObjectState r = ObjectState::recover(1, {a, b}, /*f=*/0);
  ASSERT_EQ(r.plist().size(), 1u);
  EXPECT_EQ(r.plist().at(7).t, (Timestamp{2, 7}));
}

TEST(ObjectStateRecoverTest, WriteTsIsFPlusFirstLargestClaim) {
  // A faulty peer inflating write_ts must not drag the frontier past
  // what a correct peer vouches for: adopt the (f+1)-th largest claim.
  ObjectState honest1 = peer_with_write(1, {2, 1}, "v2");
  ObjectState honest2 = peer_with_write(1, {2, 1}, "v2");
  ObjectState liar = peer_with_write(1, {9, 6}, "forged-frontier");
  const ObjectState r =
      ObjectState::recover(1, {liar, honest1, honest2}, /*f=*/1);
  // Sorted claims: 9, 2, 2 -> claims[1] = 2. The liar's inflated
  // frontier is ignored; the value merge still prefers its (validated
  // by the caller in production) higher cert, which is one-sided safe.
  EXPECT_EQ(r.write_ts(), (Timestamp{2, 1}));
}

TEST(ObjectStateRecoverTest, AdoptedFrontierGarbageCollectsStalePrepares) {
  // A prepare at or below the adopted write frontier is dead (its write
  // completed or was superseded); recovery GCs it exactly as absorbing a
  // live write certificate would.
  ObjectState a = peer_with_write(1, {3, 1}, "current");
  ObjectState b(1);
  EXPECT_TRUE(b.try_prepare(7, {2, 7}, h("stale")));   // below frontier
  EXPECT_TRUE(b.try_prepare(9, {4, 9}, h("alive")));   // above frontier
  ObjectState c = peer_with_write(1, {3, 1}, "current");
  const ObjectState r = ObjectState::recover(1, {a, b, c}, /*f=*/1);
  EXPECT_EQ(r.write_ts(), (Timestamp{3, 1}));
  EXPECT_EQ(r.plist().count(7), 0u);
  ASSERT_EQ(r.plist().count(9), 1u);
  EXPECT_EQ(r.plist().at(9).t, (Timestamp{4, 9}));
}

TEST(ObjectStateRecoverTest, EmptyPeerSetYieldsGenesis) {
  const ObjectState r = ObjectState::recover(5, {}, /*f=*/1);
  EXPECT_TRUE(r.pcert().is_genesis());
  EXPECT_TRUE(r.data().empty());
  EXPECT_TRUE(r.plist().empty());
  EXPECT_TRUE(r.write_ts().is_zero());
}

// ---- value-digest invariant: sha256(data()) == pcert().hash() ----------
//
// The replica authenticates READ-REPLY with pcert().hash() instead of
// hashing the stored value, so every way state can change must keep the
// value and its certificate's digest in step.

void expect_value_matches_cert(const ObjectState& s) {
  EXPECT_EQ(crypto::sha256(s.data()), s.pcert().hash());
}

TEST(ObjectStateValueDigestTest, HoldsAtGenesis) {
  expect_value_matches_cert(ObjectState(1));
}

TEST(ObjectStateValueDigestTest, HoldsAfterApplyWrite) {
  ObjectState s(1);
  ASSERT_TRUE(s.apply_write(to_bytes("v2"), cert_for(1, {2, 1}, "v2"), false));
  expect_value_matches_cert(s);
  // A stale write is refused and leaves the pair intact.
  ASSERT_FALSE(s.apply_write(to_bytes("v1"), cert_for(1, {1, 1}, "v1"), false));
  EXPECT_EQ(s.data(), to_bytes("v2"));
  expect_value_matches_cert(s);
}

TEST(ObjectStateValueDigestTest, HoldsAfterOptimizedTiebreakOverwrite) {
  const char* a = "aaa";
  const char* b = "zzz";
  const bool a_bigger = crypto::compare_digests(h(a), h(b)) > 0;
  const char* small = a_bigger ? b : a;
  const char* big = a_bigger ? a : b;
  ObjectState s(1);
  ASSERT_TRUE(s.apply_write(to_bytes(small), cert_for(1, {1, 1}, small), true));
  // Same timestamp, larger hash: the tiebreak overwrites value and cert
  // together.
  ASSERT_TRUE(s.apply_write(to_bytes(big), cert_for(1, {1, 1}, big), true));
  EXPECT_EQ(to_string(s.data()), big);
  expect_value_matches_cert(s);
}

TEST(ObjectStateValueDigestTest, HoldsAfterRecoverAndReload) {
  std::vector<ObjectState> peers;
  peers.push_back(peer_with_write(1, {1, 1}, "oldest"));
  peers.push_back(peer_with_write(1, {3, 2}, "newest"));
  peers.push_back(ObjectState(1));
  const ObjectState r = ObjectState::recover(1, peers, /*f=*/1);
  EXPECT_EQ(r.data(), to_bytes("newest"));
  expect_value_matches_cert(r);
  expect_value_matches_cert(ObjectState::recover(1, {}, /*f=*/1));

  // The encoded form is both the state-transfer blob and the cold-store
  // entry an evicted object reloads from.
  Writer w;
  r.encode(w);
  Reader rd(w.data());
  const std::optional<ObjectState> back = ObjectState::decode(rd);
  ASSERT_TRUE(back.has_value());
  expect_value_matches_cert(*back);
}

}  // namespace
}  // namespace bftbc::core

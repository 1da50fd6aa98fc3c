// Per-object replica state and the Plist rules (paper §3.2, Figure 2).
//
// Factored out of the message-handling Replica so the state-machine rules
// — the part all of Lemma 1 rests on — are directly unit-testable:
//   - a replica never admits two different prepares for one client
//   - entries are garbage-collected only by write certificates
//   - write_ts only advances
//
// The same struct serves base, optimized and strong modes; optimized adds
// the second prepare list (optlist, §6.1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "quorum/certificate.h"

namespace bftbc::core {

using quorum::ClientId;
using quorum::ObjectId;
using quorum::PrepareCertificate;
using quorum::Timestamp;
using quorum::WriteCertificate;

struct PlistEntry {
  Timestamp t;
  crypto::Digest h{};

  friend bool operator==(const PlistEntry& a, const PlistEntry& b) {
    return a.t == b.t && a.h == b.h;
  }
};

class ObjectState {
 public:
  explicit ObjectState(ObjectId object)
      : object_(object), pcert_(PrepareCertificate::genesis(object)) {}

  ObjectId object() const { return object_; }

  // Invariant: sha256(data()) == pcert().hash(). Genesis pairs the empty
  // value with the empty value's hash, apply_write's caller checks the
  // hash first, and state transfer adopts only hash-checked snapshots.
  // The read path relies on it to authenticate a reply without hashing
  // the stored value again.
  const Bytes& data() const { return data_; }
  const PrepareCertificate& pcert() const { return pcert_; }
  const Timestamp& write_ts() const { return write_ts_; }
  const std::map<ClientId, PlistEntry>& plist() const { return plist_; }
  const std::map<ClientId, PlistEntry>& optlist() const { return optlist_; }

  // Figure 2, phase 2, step 2: absorb a write certificate — bump
  // write_ts and garbage-collect both prepare lists. Returns the number
  // of list entries reclaimed (the replica's "gc_reclaimed" counter).
  std::size_t absorb_write_certificate(const Timestamp& wcert_ts);

  // Figure 2, phase 2, steps 3–4 for the NORMAL prepare list.
  // Returns false if the request must be discarded (conflicting entry for
  // this client); on true the entry was added if admissible (t > write_ts
  // and not already present) and the replica should send PREPARE-REPLY.
  [[nodiscard]] bool try_prepare(ClientId c, const Timestamp& t,
                                 const crypto::Digest& h);

  // Optimized protocol (§6.2 phase 1): attempt the prepare on the
  // client's behalf for the predicted timestamp succ(pcert.ts, c).
  // Fails (returns nullopt → caller sends a plain phase-1 reply) when the
  // client already has an entry in either list with a different (t, h).
  [[nodiscard]] std::optional<Timestamp> try_opt_prepare(
      ClientId c, const crypto::Digest& h);

  // Figure 2, phase 3, step 2 — plus the optimized tiebreak (§6.2
  // phase 3): equal timestamps resolve toward the larger hash.
  // Returns true if the state was overwritten. The caller has checked
  // that sha256(value) == cert.hash().
  [[nodiscard]] bool apply_write(const Bytes& value,
                                 const PrepareCertificate& cert,
                                 bool optimized_tiebreak);

  // True if c currently occupies a slot in either prepare list.
  bool has_entry(ClientId c) const {
    return plist_.count(c) != 0 || optlist_.count(c) != 0;
  }

  // Approximate in-memory footprint, for the state-size experiment (E5).
  std::size_t state_bytes() const;

  // Releases slack capacity held by the value buffer (a prior larger
  // write leaves its allocation behind). Protocol-invisible.
  void compact();

  // Full-fidelity serialization for cold-object eviction: every field
  // the protocol can later consult — value, pcert, BOTH prepare lists,
  // write_ts — round-trips, so an evicted-and-reloaded object is
  // indistinguishable from a resident one (Lemma 1 needs the lists to
  // survive: a lurking prepare must not vanish with an eviction).
  void encode(Writer& w) const;
  static std::optional<ObjectState> decode(Reader& r);

  // Crash recovery (state transfer): rebuild one object's state from a
  // quorum of peer snapshots whose prepare certificates the CALLER has
  // already validated (cert verifies, object matches, hash covers the
  // value). The merge is Byzantine-tolerant by one-sidedness:
  //   - value + pcert: highest validated certificate wins — a faulty
  //     peer cannot fabricate a cert, only withhold a recent one, and
  //     withholding loses to any honest peer's higher cert.
  //   - prepare lists: UNION of all snapshots, first claim per client
  //     in `peers` order (pass snapshots in replica-index order for
  //     determinism). Lemma 1 only guarantees a certified prepare
  //     appears in ≥1 of any 2f+1 snapshots, so any threshold above 1
  //     forgets real prepares and breaks the lurking-write bound;
  //     fabricated entries merely make this replica refuse
  //     conservatively, which is safe.
  //   - write_ts: the (f+1)-th largest claim — at least one correct
  //     peer vouches for it, so the GC it triggers cannot erase a
  //     prepare that is still below the true completed-write frontier.
  static ObjectState recover(ObjectId object,
                             const std::vector<ObjectState>& peers,
                             std::uint32_t f);

 private:
  // Shared step-3/4 logic for one list.
  enum class ListOutcome { kConflict, kAdmitted, kAlreadyPresent, kStale };
  ListOutcome admit(std::map<ClientId, PlistEntry>& list, ClientId c,
                    const Timestamp& t, const crypto::Digest& h);

  ObjectId object_;
  Bytes data_;
  PrepareCertificate pcert_;
  std::map<ClientId, PlistEntry> plist_;
  std::map<ClientId, PlistEntry> optlist_;
  Timestamp write_ts_;
};

}  // namespace bftbc::core

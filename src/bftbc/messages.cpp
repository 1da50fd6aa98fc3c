#include "bftbc/messages.h"

namespace bftbc::core {

namespace {

// Encode a certificate into a length-prefixed blob so decoders can skip
// or isolate it.
template <typename Cert>
void put_cert(Writer& w, const Cert& cert) {
  Writer inner;
  cert.encode(inner);
  w.put_bytes(inner.data());
}

template <typename Cert>
Cert get_cert(Reader& r) {
  const Bytes blob = r.get_bytes();
  Reader inner(blob);
  Cert cert = Cert::decode(inner);
  // The inner decode's verdict must reach the outer message parse: a
  // truncated blob or one with trailing garbage is a malformed message,
  // not a default-initialized certificate.
  if (!inner.done()) r.fail();
  return cert;
}

void put_digest(Writer& w, const crypto::Digest& d) {
  w.put_raw(crypto::digest_view(d));
}

crypto::Digest get_digest(Reader& r) {
  crypto::Digest d{};
  crypto::digest_from_bytes(r.get_raw(crypto::kDigestSize), d);
  return d;
}

}  // namespace

void encode_optional_wcert(Writer& w,
                           const std::optional<WriteCertificate>& c) {
  w.put_bool(c.has_value());
  if (c.has_value()) put_cert(w, *c);
}

std::optional<WriteCertificate> decode_optional_wcert(Reader& r) {
  if (!r.get_bool()) return std::nullopt;
  return get_cert<WriteCertificate>(r);
}

// ----------------------------------------------------------- READ-TS

Bytes ReadTsRequest::encode() const {
  Writer w;
  w.put_u64(object);
  nonce.encode(w);
  return std::move(w).take();
}

std::optional<ReadTsRequest> ReadTsRequest::decode(BytesView b) {
  Reader r(b);
  ReadTsRequest m;
  m.object = r.get_u64();
  m.nonce = crypto::Nonce::decode(r);
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes ReadTsReply::signing_payload() const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kReadTsReply));
  w.put_u64(object);
  nonce.encode(w);
  put_cert(w, pcert);
  w.put_bytes(strong_write_sig);
  return std::move(w).take();
}

Bytes ReadTsReply::encode() const {
  Writer w;
  w.put_u64(object);
  nonce.encode(w);
  put_cert(w, pcert);
  w.put_bytes(strong_write_sig);
  w.put_u32(replica);
  w.put_bytes(auth);
  return std::move(w).take();
}

std::optional<ReadTsReply> ReadTsReply::decode(BytesView b) {
  Reader r(b);
  ReadTsReply m;
  m.object = r.get_u64();
  m.nonce = crypto::Nonce::decode(r);
  m.pcert = get_cert<PrepareCertificate>(r);
  m.strong_write_sig = r.get_bytes();
  m.replica = r.get_u32();
  m.auth = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// ----------------------------------------------------------- PREPARE

Bytes PrepareRequest::signing_payload() const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kPrepare));
  w.put_u64(object);
  t.encode(w);
  put_digest(w, hash);
  put_cert(w, prep_cert);
  encode_optional_wcert(w, write_cert);
  w.put_u32(client);
  return std::move(w).take();
}

Bytes PrepareRequest::encode() const {
  Writer w;
  w.put_u64(object);
  t.encode(w);
  put_digest(w, hash);
  put_cert(w, prep_cert);
  encode_optional_wcert(w, write_cert);
  w.put_u32(client);
  w.put_bytes(sig);
  return std::move(w).take();
}

std::optional<PrepareRequest> PrepareRequest::decode(BytesView b) {
  Reader r(b);
  PrepareRequest m;
  m.object = r.get_u64();
  m.t = Timestamp::decode(r);
  m.hash = get_digest(r);
  m.prep_cert = get_cert<PrepareCertificate>(r);
  m.write_cert = decode_optional_wcert(r);
  m.client = r.get_u32();
  m.sig = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes PrepareReply::encode() const {
  Writer w;
  w.put_u64(object);
  t.encode(w);
  put_digest(w, hash);
  w.put_u32(replica);
  w.put_bytes(sig);
  return std::move(w).take();
}

std::optional<PrepareReply> PrepareReply::decode(BytesView b) {
  Reader r(b);
  PrepareReply m;
  m.object = r.get_u64();
  m.t = Timestamp::decode(r);
  m.hash = get_digest(r);
  m.replica = r.get_u32();
  m.sig = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// ----------------------------------------------------------- WRITE

Bytes WriteRequest::signing_payload(const crypto::Digest& value_hash) const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kWrite));
  w.put_u64(object);
  // Sign the digest, not the value: identical security (the certificate
  // already binds the digest) and keeps signing cost value-size-free.
  put_digest(w, value_hash);
  put_cert(w, prep_cert);
  w.put_u32(client);
  return std::move(w).take();
}

Bytes WriteRequest::encode() const {
  Writer w;
  w.put_u64(object);
  w.put_bytes(value);
  put_cert(w, prep_cert);
  w.put_u32(client);
  w.put_bytes(sig);
  return std::move(w).take();
}

std::optional<WriteRequest> WriteRequest::decode(BytesView b) {
  Reader r(b);
  WriteRequest m;
  m.object = r.get_u64();
  m.value = r.get_bytes();
  m.prep_cert = get_cert<PrepareCertificate>(r);
  m.client = r.get_u32();
  m.sig = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes WriteReply::encode() const {
  Writer w;
  w.put_u64(object);
  ts.encode(w);
  w.put_u32(replica);
  w.put_bytes(sig);
  return std::move(w).take();
}

std::optional<WriteReply> WriteReply::decode(BytesView b) {
  Reader r(b);
  WriteReply m;
  m.object = r.get_u64();
  m.ts = Timestamp::decode(r);
  m.replica = r.get_u32();
  m.sig = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// ----------------------------------------------------------- READ

Bytes ReadRequest::encode() const {
  Writer w;
  w.put_u64(object);
  nonce.encode(w);
  encode_optional_wcert(w, write_cert);
  return std::move(w).take();
}

std::optional<ReadRequest> ReadRequest::decode(BytesView b) {
  Reader r(b);
  ReadRequest m;
  m.object = r.get_u64();
  m.nonce = crypto::Nonce::decode(r);
  m.write_cert = decode_optional_wcert(r);
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes ReadReply::signing_payload(const crypto::Digest& value_hash) const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kReadReply));
  w.put_u64(object);
  nonce.encode(w);
  put_digest(w, value_hash);
  put_cert(w, pcert);
  return std::move(w).take();
}

Bytes ReadReply::encode() const {
  Writer w;
  w.put_u64(object);
  w.put_bytes(value);
  put_cert(w, pcert);
  nonce.encode(w);
  w.put_u32(replica);
  w.put_bytes(auth);
  return std::move(w).take();
}

std::optional<ReadReply> ReadReply::decode(BytesView b) {
  Reader r(b);
  ReadReply m;
  m.object = r.get_u64();
  m.value = r.get_bytes();
  m.pcert = get_cert<PrepareCertificate>(r);
  m.nonce = crypto::Nonce::decode(r);
  m.replica = r.get_u32();
  m.auth = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// ----------------------------------------------------------- READ-TS-PREP

Bytes ReadTsPrepRequest::signing_payload() const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kReadTsPrep));
  w.put_u64(object);
  put_digest(w, hash);
  encode_optional_wcert(w, write_cert);
  w.put_u32(client);
  return std::move(w).take();
}

Bytes ReadTsPrepRequest::encode() const {
  Writer w;
  w.put_u64(object);
  put_digest(w, hash);
  encode_optional_wcert(w, write_cert);
  nonce.encode(w);
  w.put_u32(client);
  w.put_bytes(sig);
  return std::move(w).take();
}

std::optional<ReadTsPrepRequest> ReadTsPrepRequest::decode(BytesView b) {
  Reader r(b);
  ReadTsPrepRequest m;
  m.object = r.get_u64();
  m.hash = get_digest(r);
  m.write_cert = decode_optional_wcert(r);
  m.nonce = crypto::Nonce::decode(r);
  m.client = r.get_u32();
  m.sig = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes ReadTsPrepReply::signing_payload() const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kReadTsPrepReply));
  w.put_u64(object);
  nonce.encode(w);
  put_cert(w, pcert);
  w.put_bool(prepared);
  predicted_t.encode(w);
  put_digest(w, hash);
  w.put_bytes(prepare_sig);
  w.put_bytes(strong_write_sig);
  return std::move(w).take();
}

Bytes ReadTsPrepReply::encode() const {
  Writer w;
  w.put_u64(object);
  nonce.encode(w);
  put_cert(w, pcert);
  w.put_bool(prepared);
  predicted_t.encode(w);
  put_digest(w, hash);
  w.put_bytes(prepare_sig);
  w.put_bytes(strong_write_sig);
  w.put_u32(replica);
  w.put_bytes(auth);
  return std::move(w).take();
}

std::optional<ReadTsPrepReply> ReadTsPrepReply::decode(BytesView b) {
  Reader r(b);
  ReadTsPrepReply m;
  m.object = r.get_u64();
  m.nonce = crypto::Nonce::decode(r);
  m.pcert = get_cert<PrepareCertificate>(r);
  m.prepared = r.get_bool();
  m.predicted_t = Timestamp::decode(r);
  m.hash = get_digest(r);
  m.prepare_sig = r.get_bytes();
  m.strong_write_sig = r.get_bytes();
  m.replica = r.get_u32();
  m.auth = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// -------------------------------------------------------- REPLY-BATCH

Bytes ReplyBatch::signing_payload() const {
  Writer w;
  w.put_u8(static_cast<std::uint8_t>(AuthTag::kReplyBatch));
  w.put_u32(replica);
  w.put_u32(static_cast<std::uint32_t>(replies.size()));
  for (const Bytes& b : replies) w.put_bytes(b);
  return std::move(w).take();
}

Bytes ReplyBatch::encode() const {
  Writer w;
  w.put_u32(replica);
  w.put_u32(static_cast<std::uint32_t>(replies.size()));
  for (const Bytes& b : replies) w.put_bytes(b);
  w.put_bytes(auth);
  return std::move(w).take();
}

std::optional<ReplyBatch> ReplyBatch::decode(BytesView b) {
  Reader r(b);
  ReplyBatch m;
  m.replica = r.get_u32();
  const std::uint32_t count = r.get_u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    m.replies.push_back(r.get_bytes());
  }
  m.auth = r.get_bytes();
  if (!r.done()) return std::nullopt;
  return m;
}

// --------------------------------------------------------- STATE-XFER

Bytes StateXferRequest::encode() const {
  Writer w;
  w.put_u64(object);
  nonce.encode(w);
  return std::move(w).take();
}

std::optional<StateXferRequest> StateXferRequest::decode(BytesView b) {
  Reader r(b);
  StateXferRequest m;
  m.object = r.get_u64();
  m.nonce = crypto::Nonce::decode(r);
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes StateXferReply::encode() const {
  Writer w;
  w.put_u64(object);
  nonce.encode(w);
  w.put_bytes(state);
  w.put_u32(replica);
  return std::move(w).take();
}

std::optional<StateXferReply> StateXferReply::decode(BytesView b) {
  Reader r(b);
  StateXferReply m;
  m.object = r.get_u64();
  m.nonce = crypto::Nonce::decode(r);
  m.state = r.get_bytes();
  m.replica = r.get_u32();
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace bftbc::core

#include "src/net/cache_node.h"

#include <sstream>
#include <utility>

namespace flashps::net {

namespace {

// The admit policy is a precision *floor* expressed as the laxest mode:
// each mode admits its own dtypes plus everything more precise.
bool DtypeAdmitted(quant::PrecisionMode admit, quant::Dtype dtype) {
  switch (admit) {
    case quant::PrecisionMode::kLossless:
      return dtype == quant::Dtype::kF32;
    case quant::PrecisionMode::kF16:
      return dtype == quant::Dtype::kF32 || dtype == quant::Dtype::kF16;
    case quant::PrecisionMode::kStaged:
      return true;
  }
  return false;
}

}  // namespace

CacheNode::CacheNode(CacheNodeOptions options) : options_(options) {}

size_t CacheNode::Entry::StoredBytes() const {
  return body->size() - kMatrixHeaderBytes;
}

void CacheNode::Touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

void CacheNode::EvictToFit(size_t incoming) {
  if (options_.max_bytes == 0) {
    return;
  }
  while (!lru_.empty() && resident_bytes_ + incoming > options_.max_bytes) {
    const CacheKey victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.StoredBytes();
    entries_.erase(it);
    ++stats_.evictions;
  }
}

InlineReply CacheNode::Serve(const ParsedFrame& frame) {
  InlineReply reply;
  const uint64_t seq = frame.header.seq;
  switch (frame.type()) {
    case FrameType::kCacheFetch: {
      CacheFetchBody body;
      std::string error;
      if (!DecodeCacheFetch(frame, &body, &error)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.bad_frames;
        reply.frame = EncodeError(seq, WireError::kMalformedPayload, error);
        reply.close_connection = true;
        return reply;
      }
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(body.key);
      if (it == entries_.end()) {
        ++stats_.fetch_misses;
        reply.frame = EncodeCacheMiss(seq, body.key);
        return reply;
      }
      const Entry& entry = it->second;
      Touch(it->second);
      ++stats_.fetch_hits;
      stats_.bytes_served += entry.StoredBytes();
      // Served exactly as it rests: a 41-byte head, then the stored body
      // itself — no decode, no re-encode, no copy, and the entry's
      // checksum still attests the bytes end to end.
      reply.frame = EncodeCacheHitHead(seq, body.key, entry.checksum,
                                       entry.body->size());
      reply.body = entry.body;
      return reply;
    }
    case FrameType::kCachePut: {
      CacheBodyView body;
      std::string error;
      // ViewCachePut checks the body where it lies and verifies the
      // declared checksum against those bytes, so corruption in flight
      // never becomes a resident entry.
      if (!ViewCachePut(frame.payload.data(), frame.payload.size(), &body,
                        &error)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.bad_frames;
        reply.frame = EncodeError(seq, WireError::kMalformedPayload, error);
        reply.close_connection = true;
        return reply;
      }
      // The verified span, kept as it traveled in an exact-size buffer
      // (copied before the lock is taken); a later put of this key makes
      // a new one, so hits still queued keep sending these bytes.
      auto stored = std::make_shared<const std::vector<uint8_t>>(
          body.body, body.body + body.body_size);
      std::lock_guard<std::mutex> lock(mu_);
      if (!DtypeAdmitted(options_.admit, body.dtype)) {
        ++stats_.bad_frames;
        ++stats_.precision_rejects;
        reply.frame = EncodeError(
            seq, WireError::kMalformedPayload,
            "put dtype " + quant::ToString(body.dtype) +
                " not admitted by node precision policy (--cache-precision)");
        reply.close_connection = true;
        return reply;
      }
      const size_t incoming = body.StoredBytes();
      if (options_.max_bytes != 0 && incoming > options_.max_bytes) {
        // Evicting every resident entry still would not make room.
        ++stats_.bad_frames;
        ++stats_.oversized_puts;
        reply.frame = EncodeError(
            seq, WireError::kMalformedPayload,
            "put of " + std::to_string(incoming) +
                " bytes exceeds the node's byte cap (--max-bytes=" +
                std::to_string(options_.max_bytes) + ")");
        reply.close_connection = true;
        return reply;
      }
      auto it = entries_.find(body.key);
      if (it != entries_.end()) {
        ++stats_.put_overwrites;
        resident_bytes_ -= it->second.StoredBytes();
        lru_.erase(it->second.lru_it);
        entries_.erase(it);
      }
      EvictToFit(incoming);
      Entry entry;
      entry.checksum = body.checksum;
      entry.dtype = body.dtype;
      entry.body = std::move(stored);
      lru_.push_front(body.key);
      entry.lru_it = lru_.begin();
      resident_bytes_ += incoming;
      entries_.emplace(body.key, std::move(entry));
      ++stats_.puts;
      stats_.bytes_stored += incoming;
      // The ack echoing the key + the checksum now resident on the node.
      reply.frame = EncodeCachePutAck(seq, body.key, body.checksum);
      return reply;
    }
    case FrameType::kMetricsQuery: {
      reply.frame = EncodeMetricsReport(seq, MetricsJson());
      return reply;
    }
    default: {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.bad_frames;
      reply.frame = EncodeError(seq, WireError::kBadType,
                                "frame type not valid for a cache node");
      reply.close_connection = true;
      return reply;
    }
  }
}

InlineService CacheNode::Service() {
  return [this](const ParsedFrame& frame) { return Serve(frame); };
}

bool CacheNode::Contains(const CacheKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) > 0;
}

CacheNodeStats CacheNode::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheNodeStats out = stats_;
  out.entries = entries_.size();
  out.resident_bytes = resident_bytes_;
  for (const auto& [key, entry] : entries_) {
    switch (entry.dtype) {
      case quant::Dtype::kF32:
        ++out.entries_f32;
        break;
      case quant::Dtype::kF16:
        ++out.entries_f16;
        break;
      case quant::Dtype::kI8:
        ++out.entries_i8;
        break;
    }
  }
  return out;
}

std::string CacheNode::MetricsJson() const {
  const CacheNodeStats s = Stats();
  std::ostringstream os;
  os << "{\"cache_node\":{"
     << "\"fetch_hits\":" << s.fetch_hits
     << ",\"fetch_misses\":" << s.fetch_misses
     << ",\"puts\":" << s.puts
     << ",\"put_overwrites\":" << s.put_overwrites
     << ",\"bad_frames\":" << s.bad_frames
     << ",\"precision_rejects\":" << s.precision_rejects
     << ",\"oversized_puts\":" << s.oversized_puts
     << ",\"admit\":\"" << quant::ToString(options_.admit) << "\""
     << ",\"bytes_served\":" << s.bytes_served
     << ",\"bytes_stored\":" << s.bytes_stored
     << ",\"evictions\":" << s.evictions
     << ",\"entries\":" << s.entries
     << ",\"entries_f32\":" << s.entries_f32
     << ",\"entries_f16\":" << s.entries_f16
     << ",\"entries_i8\":" << s.entries_i8
     << ",\"resident_bytes\":" << s.resident_bytes << "}}";
  return os.str();
}

}  // namespace flashps::net

#include "src/net/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace flashps::net {

namespace {

// One recv takes up to this much: a fetched record arrives as ~30 KB
// frames, so a read takes whole frames, not slivers of one.
constexpr size_t kReadChunk = 64 * 1024;

bool IsReplyType(FrameType type) {
  switch (type) {
    case FrameType::kSubmitResult:
    case FrameType::kMetricsReport:
    case FrameType::kAuthOk:
    case FrameType::kCacheHit:
    case FrameType::kCacheMiss:
      return true;
    default:
      return false;
  }
}

}  // namespace

Client::Client(std::string host, uint16_t port, ClientOptions options)
    : host_(std::move(host)), port_(port), options_(std::move(options)) {}

Client::~Client() { Close(); }

bool Client::Connect() {
  if (connected()) {
    return true;
  }
  fd_ = ConnectTcpWithRetry(host_, port_, options_.connect_attempts,
                            options_.connect_backoff);
  if (!fd_.valid()) {
    return Fail(WireError::kConnectionClosed);
  }
  last_error_ = WireError::kOk;
  // A failed handshake has already closed the connection and named the
  // reason (e.g. kUnauthorized).
  return options_.auth_token.empty() || Authenticate();
}

bool Client::Authenticate() {
  const uint64_t seq = next_seq_++;
  return SendFrame(EncodeAuth(seq, options_.auth_token)) &&
         AwaitReply(seq, FrameType::kAuthOk, std::nullopt).has_value();
}

void Client::Close() {
  fd_.Reset();
  inbuf_.clear();
  // Submit replies already banked stay takeable; every other reply
  // belongs to a call that is over.
  std::erase_if(replies_, [](const auto& reply) {
    return reply.second.type() != FrameType::kSubmitResult;
  });
}

bool Client::Fail(WireError error) {
  last_error_ = error;
  Close();
  return false;
}

bool Client::SendFrame(const std::vector<uint8_t>& frame) {
  if (!connected() || !SendAll(fd_.get(), frame.data(), frame.size())) {
    return Fail(WireError::kConnectionClosed);
  }
  return true;
}

uint64_t Client::Send(const WireRequest& request) {
  const uint64_t seq = next_seq_++;
  if (!SendFrame(EncodeSubmit(seq, request))) {
    return 0;
  }
  return seq;
}

bool Client::PumpOnce(std::chrono::milliseconds budget) {
  if (!connected()) {
    return Fail(WireError::kConnectionClosed);
  }
  pollfd pfd{fd_.get(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, static_cast<int>(budget.count()));
  if (ready <= 0) {
    return true;  // Nothing arrived within the budget; not an error.
  }
  uint8_t chunk[kReadChunk];
  const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR)) {
    return Fail(WireError::kConnectionClosed);
  }
  if (n > 0) {
    inbuf_.insert(inbuf_.end(), chunk, chunk + n);
  }
  size_t offset = 0;
  for (;;) {
    ParsedFrame frame;
    size_t consumed = 0;
    const WireError err = TryParseFrame(inbuf_.data() + offset,
                                        inbuf_.size() - offset, &frame,
                                        &consumed);
    if (err == WireError::kNeedMore) {
      break;
    }
    if (err != WireError::kOk) {
      return Fail(err);
    }
    offset += consumed;
    if (frame.type() == FrameType::kError) {
      // The server names the reason and will close on us; surface the
      // distinct code to the caller.
      WireErrorBody body;
      return Fail(DecodeError(frame, &body)
                      ? static_cast<WireError>(body.code)
                      : WireError::kMalformedPayload);
    }
    if (!IsReplyType(frame.type())) {
      return Fail(WireError::kBadType);
    }
    // Payloads decode when their call takes them. The first reply under
    // a seq is the one its call sees; a duplicate still banked is dropped.
    replies_.try_emplace(frame.header.seq, std::move(frame));
  }
  if (offset > 0) {
    inbuf_.erase(inbuf_.begin(),
                 inbuf_.begin() + static_cast<ptrdiff_t>(offset));
  }
  return true;
}

bool Client::Wait(std::chrono::milliseconds timeout,
                  const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Fail(WireError::kTimeout);
    }
    const auto budget = std::min(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now),
        std::chrono::milliseconds(50));
    if (!PumpOnce(std::max(budget, std::chrono::milliseconds(1)))) {
      return false;
    }
  }
  return true;
}

void Client::Pump(std::chrono::milliseconds budget) { PumpOnce(budget); }

std::optional<ParsedFrame> Client::Take(uint64_t seq, FrameType type) {
  auto it = replies_.find(seq);
  if (it == replies_.end()) {
    return std::nullopt;
  }
  ParsedFrame frame = std::move(it->second);
  replies_.erase(it);
  if (frame.type() != type) {
    Fail(WireError::kBadType);
    return std::nullopt;
  }
  return frame;
}

std::optional<ParsedFrame> Client::AwaitReply(
    uint64_t seq, FrameType type,
    std::optional<std::chrono::milliseconds> timeout) {
  if (!Wait(timeout.value_or(options_.default_timeout),
            [&] { return replies_.count(seq) > 0; })) {
    return std::nullopt;
  }
  return Take(seq, type);
}

std::optional<WireResponse> Client::DecodeResponse(
    std::optional<ParsedFrame> frame) {
  WireResponse response;
  if (!frame.has_value()) {
    return std::nullopt;
  }
  if (!DecodeSubmitResult(*frame, &response)) {
    Fail(WireError::kMalformedPayload);
    return std::nullopt;
  }
  return response;
}

std::optional<WireResponse> Client::TryTake(uint64_t seq) {
  return DecodeResponse(Take(seq, FrameType::kSubmitResult));
}

std::optional<WireResponse> Client::Await(
    uint64_t seq, std::optional<std::chrono::milliseconds> timeout) {
  return DecodeResponse(AwaitReply(seq, FrameType::kSubmitResult, timeout));
}

std::optional<WireResponse> Client::Call(
    const WireRequest& request,
    std::optional<std::chrono::milliseconds> timeout) {
  const uint64_t seq = Send(request);
  if (seq == 0) {
    return std::nullopt;
  }
  return Await(seq, timeout);
}

std::optional<std::string> Client::QueryMetrics(
    std::optional<std::chrono::milliseconds> timeout) {
  if (!Connect()) {
    return std::nullopt;
  }
  const uint64_t seq = next_seq_++;
  if (!SendFrame(EncodeMetricsQuery(seq))) {
    return std::nullopt;
  }
  std::optional<ParsedFrame> report =
      AwaitReply(seq, FrameType::kMetricsReport, timeout);
  if (!report.has_value()) {
    return std::nullopt;
  }
  return std::string(report->payload.begin(), report->payload.end());
}

bool Client::AwaitCacheReplies(std::map<uint64_t, CacheOp> outstanding,
                               const CacheReplyFn& take) {
  const auto answers = [&take](const ParsedFrame& frame, const CacheOp& op) {
    if (frame.type() == FrameType::kCacheHit) {
      CacheHitBody hit;
      return DecodeCacheHit(frame, &hit, nullptr) && hit.key == op.key &&
             take(op, &hit);
    }
    CacheMissBody miss;
    return frame.type() == FrameType::kCacheMiss &&
           DecodeCacheMiss(frame, &miss) && miss.key == op.key &&
           take(op, nullptr);
  };
  bool refused = false;
  const bool answered = Wait(options_.default_timeout, [&] {
    // The bank holds only what arrived since the last pass: scan it, not
    // the (much larger) outstanding set.
    for (auto it = replies_.begin(); it != replies_.end() && !refused;) {
      auto op = outstanding.find(it->first);
      if (op == outstanding.end()) {
        ++it;
        continue;
      }
      refused = !answers(it->second, op->second);
      outstanding.erase(op);
      it = replies_.erase(it);
    }
    return refused || outstanding.empty();
  });
  return refused ? Fail(WireError::kMalformedPayload) : answered;
}

FetchRecordResult Client::FetchRecord(int template_id, int steps, int blocks,
                                      bool want_kv,
                                      const FirstStepFn& on_first_step) {
  FetchRecordResult result;
  if (!Connect()) {
    return result;
  }
  auto record = std::make_shared<model::ActivationRecord>();
  record->steps.resize(static_cast<size_t>(steps));
  for (auto& step : record->steps) {
    step.y.resize(static_cast<size_t>(blocks));
    if (want_kv) {
      step.k.resize(static_cast<size_t>(blocks));
      step.v.resize(static_cast<size_t>(blocks));
    }
  }
  record->stream = std::make_shared<model::StepStream>(steps);
  // Fire every fetch, in step order, in one write before awaiting any
  // reply.
  std::map<uint64_t, CacheOp> outstanding;
  std::vector<uint8_t> burst;
  const int kinds = want_kv ? 3 : 1;
  for (int step = 0; step < steps; ++step) {
    for (int block = 0; block < blocks; ++block) {
      for (int kind = 0; kind < kinds; ++kind) {
        const CacheKey key{template_id, step, block,
                           static_cast<uint8_t>(kind)};
        const uint64_t seq = next_seq_++;
        const std::vector<uint8_t> frame = EncodeCacheFetch(seq, key);
        burst.insert(burst.end(), frame.begin(), frame.end());
        outstanding.emplace(seq, CacheOp{key, 0});
      }
    }
  }
  // Matrices still owed per step; a step is resident once its count hits
  // zero and every earlier step's has.
  std::vector<int> owed(static_cast<size_t>(steps), blocks * kinds);
  int resident = 0;
  const bool answered =
      SendFrame(burst) &&
      AwaitCacheReplies(
          std::move(outstanding),
          [&](const CacheOp& op, const CacheHitBody* hit) {
            if (hit == nullptr) {
              ++result.misses;
              return true;
            }
            // Decode-on-fetch: the wire decoder already validated the
            // structure and checksum, so a failure here means a broken
            // encoder — treat it like any other malformed payload. A
            // fetch is never answered by a payload-less put ack.
            Matrix decoded;
            if (!hit->has_payload() ||
                !quant::Decode(hit->data, &decoded, nullptr)) {
              return false;
            }
            auto& acts = record->steps[static_cast<size_t>(op.key.step)];
            auto& slots = op.key.kind == kCacheKindY   ? acts.y
                          : op.key.kind == kCacheKindK ? acts.k
                                                       : acts.v;
            result.wire_bytes += hit->data.StoredBytes();
            result.bytes += decoded.bytes();
            slots[static_cast<size_t>(op.key.block)] = std::move(decoded);
            ++result.hits;
            if (--owed[static_cast<size_t>(op.key.step)] == 0) {
              const int before = resident;
              while (resident < steps &&
                     owed[static_cast<size_t>(resident)] == 0) {
                ++resident;
              }
              if (resident > before) {
                record->stream->Publish(resident);
                if (before == 0 && on_first_step) {
                  on_first_step(record);
                }
              }
            }
            return true;
          });
  result.transport_ok = answered;
  result.complete = answered && result.misses == 0;
  if (result.complete) {
    result.record = std::move(record);
  } else {
    record->stream->Fail();
  }
  return result;
}

PutRecordResult Client::PutRecord(int template_id,
                                  const model::ActivationRecord& record,
                                  quant::PrecisionMode precision) {
  PutRecordResult result;
  if (!Connect()) {
    return result;
  }
  const int num_steps = static_cast<int>(record.steps.size());
  std::map<uint64_t, CacheOp> outstanding;
  auto fire = [&](int step, int block, uint8_t kind,
                  const Matrix& m) -> bool {
    const CacheKey key{template_id, step, block, kind};
    const quant::EncodedMatrix encoded =
        quant::Encode(m, quant::DtypeForStep(precision, step, num_steps));
    // Refuse client-side before any of its bytes hit the socket: a frame
    // the node would reject as oversized can only desync the stream.
    if (CachePutPayloadBytes(encoded) > kMaxPayloadBytes) {
      return Fail(WireError::kOversizedFrame);
    }
    // The encoder's one hash serves the frame and the ack check.
    uint64_t checksum = 0;
    const uint64_t seq = next_seq_++;
    if (!SendFrame(EncodeCachePut(seq, key, encoded, &checksum))) {
      return false;
    }
    outstanding.emplace(seq, CacheOp{key, checksum});
    result.bytes += m.bytes();
    result.wire_bytes += encoded.StoredBytes();
    return true;
  };
  const bool has_kv = record.has_kv();
  for (int step = 0; step < num_steps; ++step) {
    const auto& acts = record.steps[static_cast<size_t>(step)];
    for (size_t block = 0; block < acts.y.size(); ++block) {
      const int b = static_cast<int>(block);
      if (!fire(step, b, kCacheKindY, acts.y[block]) ||
          (has_kv && (!fire(step, b, kCacheKindK, acts.k[block]) ||
                      !fire(step, b, kCacheKindV, acts.v[block])))) {
        return result;
      }
    }
  }
  // The ack must be a payload-less hit echoing the checksum of the bytes
  // we shipped; anything else means the entry did not land.
  result.transport_ok = AwaitCacheReplies(
      std::move(outstanding), [&](const CacheOp& op, const CacheHitBody* hit) {
        if (hit == nullptr || hit->has_payload() ||
            hit->checksum != op.checksum) {
          return false;
        }
        ++result.puts;
        return true;
      });
  return result;
}

ClientPool::ClientPool(std::string host, uint16_t port, ClientOptions options,
                       int size) {
  const int n = std::max(1, size);
  clients_.reserve(static_cast<size_t>(n));
  idle_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    clients_.push_back(std::make_unique<Client>(host, port, options));
    idle_.push_back(clients_.back().get());
  }
}

ClientPool::Lease ClientPool::Checkout() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !idle_.empty(); });
  Client* client = idle_.back();
  idle_.pop_back();
  return Lease(this, client);
}

void ClientPool::Return(Client* client) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(client);
  }
  cv_.notify_one();
}

}  // namespace flashps::net

#include "src/net/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>
#include <mutex>
#include <utility>

namespace flashps::net {

namespace {

// One recv has room for at least this much: a fetched record arrives as
// ~30 KB frames, so a read takes whole frames, not slivers of one.
constexpr size_t kReadChunk = 64 * 1024;

// Storage of fetched records whose last owner let them go. A fleet
// fetches records of one shape over and over, so the next fetch decodes
// into this storage (quant::DecodeFrom fills a same-shaped matrix in
// place) instead of allocating fresh pages that the kernel must fault in
// and zero, and that the heap hands back once a record dies. Shared by
// every client in the process — a record usually dies on another thread
// than the one that fetched it — and bounded to the matrices of the two
// largest records fetched so far. Never destroyed, so a record that
// outlives static destruction can still die.
class SpareMatrices {
 public:
  static SpareMatrices& Get() {
    static SpareMatrices* spares = new SpareMatrices;
    return *spares;
  }

  // Up to `n` spare matrices; raises the bound to two such records.
  std::vector<Matrix> Take(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    if (2 * n > cap_) {
      cap_ = 2 * n;
      spare_.reserve(cap_);  // Keep() never reallocates.
    }
    const size_t take = std::min(n, spare_.size());
    std::vector<Matrix> out(std::make_move_iterator(spare_.end() - take),
                            std::make_move_iterator(spare_.end()));
    spare_.resize(spare_.size() - take);
    return out;
  }

  // Keeps the matrices of a record that is being destroyed, up to the
  // bound.
  void Keep(model::ActivationRecord& record) {
    std::lock_guard<std::mutex> lock(mu_);
    for (model::StepActivations& step : record.steps) {
      for (std::vector<Matrix>* slots : {&step.y, &step.k, &step.v}) {
        for (Matrix& m : *slots) {
          if (spare_.size() == cap_) {
            return;
          }
          if (!m.empty()) {
            spare_.push_back(std::move(m));
          }
        }
      }
    }
  }

 private:
  std::mutex mu_;
  std::vector<Matrix> spare_;
  size_t cap_ = 0;
};

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
  inbuf_.Clear();
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
  const ssize_t n = inbuf_.ReadFrom(fd_.get(), kReadChunk);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR)) {
    return Fail(WireError::kConnectionClosed);
  }
  for (;;) {
    FrameHeader header;
    size_t consumed = 0;
    const WireError err =
        TryParseFrameHeader(inbuf_.data(), inbuf_.size(), &header, &consumed);
    if (err == WireError::kNeedMore) {
      break;
    }
    if (err != WireError::kOk) {
      return Fail(err);
    }
    const auto type = static_cast<FrameType>(header.type);
    const uint8_t* payload = inbuf_.data() + kFrameHeaderBytes;
    const size_t size = consumed - kFrameHeaderBytes;
    if (type == FrameType::kError) {
      // The server names the reason and will close on us; surface the
      // distinct code to the caller.
      ParsedFrame frame{header, std::vector<uint8_t>(payload, payload + size)};
      WireErrorBody body;
      return Fail(DecodeError(frame, &body)
                      ? static_cast<WireError>(body.code)
                      : WireError::kMalformedPayload);
    }
    if (!IsReplyType(type)) {
      return Fail(WireError::kBadType);
    }
    switch (AnswerCacheOp(header, payload, size)) {
      case CacheAnswer::kTaken:
        break;
      case CacheAnswer::kRefused:
        return Fail(WireError::kMalformedPayload);
      case CacheAnswer::kNotOurs:
        // Payloads decode when their call takes them. The first reply
        // under a seq is the one its call sees; a duplicate still banked
        // is dropped.
        if (replies_.count(header.seq) == 0) {
          replies_.emplace(
              header.seq,
              ParsedFrame{header, std::vector<uint8_t>(payload, payload + size)});
        }
        break;
    }
    inbuf_.Consume(consumed);
  }
  return true;
}

Client::CacheAnswer Client::AnswerCacheOp(const FrameHeader& header,
                                          const uint8_t* payload,
                                          size_t size) {
  if (cache_call_ == nullptr) {
    return CacheAnswer::kNotOurs;
  }
  auto it = cache_call_->outstanding.find(header.seq);
  if (it == cache_call_->outstanding.end()) {
    return CacheAnswer::kNotOurs;
  }
  const CacheOp op = it->second;
  cache_call_->outstanding.erase(it);
  bool answered = false;
  if (header.type == static_cast<uint16_t>(FrameType::kCacheHit)) {
    // Checked where it landed; a payload is decoded straight out of the
    // read buffer by `take`.
    CacheBodyView hit;
    answered = ViewCacheHit(payload, size, &hit, nullptr) &&
               hit.key == op.key && (*cache_call_->take)(op, &hit);
  } else if (header.type == static_cast<uint16_t>(FrameType::kCacheMiss)) {
    CacheMissBody miss;
    const ParsedFrame frame{header,
                            std::vector<uint8_t>(payload, payload + size)};
    answered = DecodeCacheMiss(frame, &miss) &&
               miss.key == op.key && (*cache_call_->take)(op, nullptr);
  }
  return answered ? CacheAnswer::kTaken : CacheAnswer::kRefused;
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
  CacheCall call{std::move(outstanding), &take};
  cache_call_ = &call;
  const bool answered = Wait(options_.default_timeout,
                             [&call] { return call.outstanding.empty(); });
  cache_call_ = nullptr;
  return answered;
}

FetchRecordResult Client::FetchRecord(int template_id, int steps, int blocks,
                                      bool want_kv,
                                      const FirstStepFn& on_first_step) {
  FetchRecordResult result;
  if (!Connect()) {
    return result;
  }
  // Dying, the record leaves its storage to later fetches.
  std::shared_ptr<model::ActivationRecord> record(
      new model::ActivationRecord, [](model::ActivationRecord* dead) {
        SpareMatrices::Get().Keep(*dead);
        delete dead;
      });
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
  std::vector<Matrix> spare =
      SpareMatrices::Get().Take(static_cast<size_t>(steps * blocks * kinds));
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
          [&](const CacheOp& op, const CacheBodyView* hit) {
            if (hit == nullptr) {
              ++result.misses;
              return true;
            }
            // A fetch is never answered by a payload-less put ack.
            if (!hit->has_payload()) {
              return false;
            }
            // The view is checked (structure and checksum) where it
            // landed; decoding it into its slot is the one copy.
            auto& acts = record->steps[static_cast<size_t>(op.key.step)];
            auto& slots = op.key.kind == kCacheKindY   ? acts.y
                          : op.key.kind == kCacheKindK ? acts.k
                                                       : acts.v;
            Matrix& decoded = slots[static_cast<size_t>(op.key.block)];
            if (!spare.empty()) {
              decoded = std::move(spare.back());
              spare.pop_back();
            }
            DecodeBody(*hit, &decoded);
            result.wire_bytes += hit->StoredBytes();
            result.bytes += decoded.bytes();
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
    const quant::Dtype dtype =
        quant::DtypeForStep(precision, step, num_steps);
    // Refuse client-side before any of its bytes hit the socket: a frame
    // the node would reject as oversized can only desync the stream.
    const size_t payload_bytes =
        CachePutPayloadBytes(m.rows(), m.cols(), dtype);
    if (payload_bytes > kMaxPayloadBytes) {
      return Fail(WireError::kOversizedFrame);
    }
    // Encoded straight into the frame; the encoder's one hash serves the
    // frame and the ack check.
    uint64_t checksum = 0;
    const uint64_t seq = next_seq_++;
    if (!SendFrame(EncodeCachePut(seq, key, m, dtype, &checksum))) {
      return false;
    }
    outstanding.emplace(seq, CacheOp{key, checksum});
    result.bytes += m.bytes();
    result.wire_bytes += quant::ScaleCount(dtype, m.rows()) * sizeof(float) +
                         m.size() * quant::DtypeBytes(dtype);
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
      std::move(outstanding), [&](const CacheOp& op, const CacheBodyView* hit) {
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

// Client for the FlashPS wire protocol, in both of its roles: submits,
// metrics queries and heartbeats against a serving daemon, and whole
// activation records against a flashps_cached node.
//
// Single-threaded by design: one blocking socket, one read buffer, and
// one bank of replies keyed by correlation id. Pipelining falls out of
// that — Send() fires any number of requests down the connection
// without waiting, the server replies in completion order, and every
// call waits in one loop that pumps the socket until its replies (which
// may arrive after others) show up or the per-call deadline lapses.
// Instances are not thread-safe; drive one client per thread, or lease
// them from a ClientPool.
//
// A record of S steps x B blocks is S*B cache fetches (3x that with
// K/V), all fired in one write before the first reply is awaited, so a
// whole-record fetch costs one round trip plus the transfer, not S*B
// round trips. The record streams: each step is published on its
// StepStream as that step's last frame decodes, so a caller can hand it
// on while later steps are still on the wire.
// Every payload that arrives is checksum-verified by the wire decoder and
// must name the key its seq asked for before it is placed into the
// record, and every put acknowledgement is checked against the checksum
// of the bytes that were sent — a corrupted matrix can neither enter a
// record nor be believed stored.
//
// Bytes are received straight into one reusable buffer (RecvBuffer) and
// framed where they land. A cache reply is handed to its call in place:
// a hit's XXH64 is checked over the bytes in the buffer and the matrix
// decoded from there into its slot of the record, so the hit costs one
// copy. That slot reuses the storage of an earlier fetched record that
// has died (bounded to two records, process-wide), so a steady fleet's
// fetches neither allocate nor fault in fresh pages. A put frame is
// encoded whole into one buffer, the matrix straight from the record
// (EncodeCachePut). Other replies are banked as frames.
//
// Every failed call — a lapsed deadline, a dead socket, an error frame,
// a reply that does not decode as what its seq asked for — leaves a typed
// last_error() and closes the connection, so no late reply is ever banked
// under a seq that no caller will ask for. QueryMetrics(), FetchRecord()
// and PutRecord() connect first, so their next call reconnects; Send()
// needs Connect() again. Close() keeps the submit replies already banked
// for TryTake().
//
// Connect() retries with exponential backoff (connect_attempts /
// connect_backoff), so a client can be started before its daemon and
// still win the race.
#ifndef FLASHPS_SRC_NET_CLIENT_H_
#define FLASHPS_SRC_NET_CLIENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/model/diffusion_model.h"
#include "src/net/socket_util.h"
#include "src/net/wire.h"

namespace flashps::net {

struct ClientOptions {
  int connect_attempts = 1;
  // First retry delay; doubles per attempt (50, 100, 200, ... ms).
  std::chrono::milliseconds connect_backoff{50};
  // Deadline of a call given no timeout of its own, and of one whole
  // record fetch or put (all frames + all replies).
  std::chrono::milliseconds default_timeout{30000};
  // When non-empty, Connect() opens every session with a kAuth handshake
  // carrying this token and fails unless the daemon acknowledges it.
  std::string auth_token;
};

// Outcome of one whole-record fetch. `transport_ok` distinguishes "the
// node answered" from "the socket/protocol died mid-call": misses with a
// healthy transport mean the record simply is not resident yet, while a
// dead transport means the caller should count a fallback and consider
// the node unreachable.
struct FetchRecordResult {
  bool transport_ok = false;
  bool complete = false;  // Every key hit; `record` holds the whole record.
  std::shared_ptr<model::ActivationRecord> record;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes = 0;       // Decoded fp32 bytes placed into the record.
  uint64_t wire_bytes = 0;  // Encoded bytes received in hits (post-codec).
};

struct PutRecordResult {
  bool transport_ok = false;  // Every matrix acked with a matching checksum.
  uint64_t puts = 0;
  uint64_t bytes = 0;       // Decoded fp32 bytes the record holds.
  uint64_t wire_bytes = 0;  // Encoded bytes shipped (post-codec).
};

class Client {
 public:
  Client(std::string host, uint16_t port, ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects (with backoff retries). True when the socket is up.
  bool Connect();
  void Close();
  bool connected() const { return fd_.valid(); }

  // Pipelined fire-and-forget submit. Returns the correlation id to pass
  // to Await()/TryTake(), or 0 on failure (see last_error()).
  uint64_t Send(const WireRequest& request);

  // Blocks until the reply for `seq` arrives or `timeout` lapses (the
  // Options default when omitted). Pumps the socket, so replies for other
  // sequences are banked for their own Await() calls.
  std::optional<WireResponse> Await(
      uint64_t seq, std::optional<std::chrono::milliseconds> timeout = {});

  // Send + Await in one call.
  std::optional<WireResponse> Call(
      const WireRequest& request,
      std::optional<std::chrono::milliseconds> timeout = {});

  // Connects if needed and fetches the daemon's MetricsJson() via a
  // metrics frame. Doubles as a liveness probe with a short timeout.
  std::optional<std::string> QueryMetrics(
      std::optional<std::chrono::milliseconds> timeout = {});

  // Runs on the fetching thread once step 0 of a record is resident
  // (already published on its stream), with the record being filled.
  using FirstStepFn =
      std::function<void(const std::shared_ptr<model::ActivationRecord>&)>;

  // Fetches every matrix of one template's record from a cache node:
  // `steps` x `blocks` Y matrices, plus K and V when `want_kv`.
  // Pipelined; blocks until every reply lands or the call deadline
  // lapses. Payloads arrive encoded (self-describing dtype) and are
  // decoded into the record here. The record carries a StepStream from
  // the start: steps are published in order as they complete, and the
  // stream is failed when the fetch ends without every key, so whoever
  // `on_first_step` handed the record to never waits on a step that will
  // not land.
  FetchRecordResult FetchRecord(int template_id, int steps, int blocks,
                                bool want_kv,
                                const FirstStepFn& on_first_step = {});

  // Stores every matrix of `record` under its content address, each step
  // encoded at the dtype `precision` assigns it (default: lossless f32).
  // Pipelined; blocks until every ack lands. A matrix whose encoded put
  // frame would exceed kMaxPayloadBytes fails the call with
  // kOversizedFrame *before* any of its bytes hit the socket.
  PutRecordResult PutRecord(
      int template_id, const model::ActivationRecord& record,
      quant::PrecisionMode precision = quant::PrecisionMode::kLossless);

  // Drains whatever the socket has ready, waiting at most `budget` for
  // the first byte. Use between open-loop sends to harvest replies early.
  void Pump(std::chrono::milliseconds budget);

  // Takes an already-received reply without touching the socket.
  std::optional<WireResponse> TryTake(uint64_t seq);

  WireError last_error() const { return last_error_; }
  // Replies received but not yet taken, of every type.
  size_t banked_responses() const { return replies_.size(); }

 private:
  // One cache frame awaiting its reply: the key the reply must name, and
  // for a put the checksum its ack must echo.
  struct CacheOp {
    CacheKey key;
    uint64_t checksum = 0;
  };
  // Handed each cache reply as it lands, checked where it lies in the
  // read buffer (`hit` is null for a miss); false refuses it and fails
  // the call.
  using CacheReplyFn =
      std::function<bool(const CacheOp& op, const CacheBodyView* hit)>;
  // The cache call in progress: its ops still owed a reply, and where
  // each reply goes.
  struct CacheCall {
    std::map<uint64_t, CacheOp> outstanding;
    const CacheReplyFn* take = nullptr;
  };
  enum class CacheAnswer { kNotOurs, kTaken, kRefused };

  // Records `error` and closes the connection. Always false.
  bool Fail(WireError error);
  // Reads once (bounded by `budget` waiting for readability) and frames
  // every complete reply where it landed: a reply to an op of the cache
  // call in progress goes to that call, any other is banked by seq. False
  // when the connection is gone, the stream is unframeable, the daemon
  // sent an error frame, or the cache call refused a reply.
  bool PumpOnce(std::chrono::milliseconds budget);
  // Hands a reply to the cache call in progress if it answers one of its
  // ops: kTaken when it names the op's key and the call takes it,
  // kRefused when it does not.
  CacheAnswer AnswerCacheOp(const FrameHeader& header, const uint8_t* payload,
                            size_t size);
  // The one deadline wait: pumps until `done` holds or `timeout` lapses.
  // A lapse records kTimeout and closes the connection.
  bool Wait(std::chrono::milliseconds timeout,
            const std::function<bool()>& done);
  // Waits for the reply to `seq` and takes it; it must be of `type`.
  std::optional<ParsedFrame> AwaitReply(
      uint64_t seq, FrameType type,
      std::optional<std::chrono::milliseconds> timeout);
  // Removes the reply banked under `seq`, if any. A reply of another type
  // fails the call with kBadType.
  std::optional<ParsedFrame> Take(uint64_t seq, FrameType type);
  // Decodes a taken submit result; one that does not decode fails the
  // call with kMalformedPayload.
  std::optional<WireResponse> DecodeResponse(std::optional<ParsedFrame> frame);
  // Waits until every op in `outstanding` is answered by a hit or a miss
  // naming its key, handing each to `take` as it is framed. A reply that
  // fails that check or that `take` refuses fails the call with
  // kMalformedPayload.
  bool AwaitCacheReplies(std::map<uint64_t, CacheOp> outstanding,
                         const CacheReplyFn& take);
  bool SendFrame(const std::vector<uint8_t>& frame);
  // Runs the kAuth handshake (options_.auth_token) to completion.
  bool Authenticate();

  std::string host_;
  uint16_t port_;
  ClientOptions options_;
  UniqueFd fd_;
  uint64_t next_seq_ = 1;
  RecvBuffer inbuf_;
  std::map<uint64_t, ParsedFrame> replies_;
  CacheCall* cache_call_ = nullptr;  // Set while AwaitCacheReplies waits.
  WireError last_error_ = WireError::kOk;
};

// A small pool of Client connections to one node, so concurrent
// whole-record transfers (foreground fetches, background prefetches)
// ride separate sockets instead of serializing behind one call. Each
// client is still single-threaded; the pool hands out exclusive leases.
// Checkout() blocks until a connection is free — the pool size is the
// concurrency cap, and pressure beyond it queues at the checkout.
class ClientPool {
 public:
  ClientPool(std::string host, uint16_t port, ClientOptions options,
             int size);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  // Exclusive lease on one pooled connection; returns it on destruction.
  class Lease {
   public:
    Lease(ClientPool* pool, Client* client) : pool_(pool), client_(client) {}
    ~Lease() {
      if (pool_ != nullptr) {
        pool_->Return(client_);
      }
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)),
          client_(std::exchange(o.client_, nullptr)) {}

    Client* operator->() const { return client_; }
    Client& operator*() const { return *client_; }

   private:
    ClientPool* pool_;
    Client* client_;
  };

  Lease Checkout();
  int size() const { return static_cast<int>(clients_.size()); }

 private:
  friend class Lease;
  void Return(Client* client);

  std::vector<std::unique_ptr<Client>> clients_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Client*> idle_;
};

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_CLIENT_H_

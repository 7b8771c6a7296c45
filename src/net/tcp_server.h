// TCP frontier for the FlashPS wire protocol, serving one of two backends:
//
//   gateway mode   (TcpServer(gateway, ...)) — the serving daemon: submit
//                  frames dispatch through gateway::Gateway and complete
//                  asynchronously; metrics queries return the gateway's
//                  registry JSON. This is flashps_served.
//   service mode   (TcpServer(service, ...)) — every valid client-to-server
//                  frame (cache fetch/put, metrics query, even submits) is
//                  answered *synchronously* on the poll thread by the
//                  pluggable InlineService. This is how flashps_cached
//                  reuses the whole server — poll loop, back-pressure,
//                  drain, error taxonomy — for the shared cache tier, whose
//                  handlers are memcpy-scale.
//
// Threading model: one poll thread (plus the backend's own). It owns the
// listener, every connection fd (all non-blocking) and every accepted
// request's pending completion, and it reads the wake pipe. Each pass
// reads, frames and validates incoming bytes, answers rejections and
// metrics queries (and, in service mode, every frame) inline, checks
// every pending completion's Ready(), encodes and queues each finished
// reply on its connection, and flushes the write buffers. While it
// answers a burst of buffered frames it also sends whatever is queued
// each time 64 KB wait, so the first replies of a long burst (a cache
// node serving a ~100-frame record fetch) leave while the rest are
// still being encoded. Between passes ppoll() sleeps, with no timeout
// outside a drain, until a socket is ready or the wake pipe is written:
// by Stop(), or by a backend through the request's `notify_ready` once a
// completion is Ready(), so a finished result is replied to at once and
// no completion is polled on a timer. The pipe is shared with every
// `notify_ready`, so a late notify after Stop() or after the server is
// gone writes into a pipe nobody reads.
//
// Socket I/O: bytes are received straight into each connection's
// RecvBuffer and framed where they land. A reply is queued as its
// encoded bytes plus, optionally, a shared immutable body (a cache
// node's stored record bytes, InlineReply::body); sendmsg() gathers both
// segments of up to 64 frames per call, so a stored body goes to the
// socket without a user-space copy and stays alive until its last byte
// is sent, whatever happens to the entry it came from.
//
// Back-pressure: each connection may have at most
// `max_inflight_per_conn` accepted requests outstanding. At the cap the
// poll loop stops reading that connection (its POLLIN interest is
// dropped and buffered frames stay unparsed), so pressure propagates to
// the client through TCP flow control instead of unbounded queueing.
//
// Failure policy: any malformed frame (bad magic/version/type, size cap,
// malformed payload) gets a kError frame naming the distinct WireError,
// then the connection closes after the write buffer flushes. A peer that
// disconnects mid-request never wedges the server: each of its in-flight
// completions is counted `orphaned_completions` when it resolves, and
// dropped.
//
// Stop() is a graceful drain: the listener closes, reading stops, and
// submits still buffered are answered kRejectedShutdown; accepted
// requests finish and their replies flush. The poll thread exits once
// nothing is in flight and every buffer is flushed, or at the
// `drain_timeout` deadline, where each completion still pending counts as
// orphaned; then every fd closes and Stop() returns.
#ifndef FLASHPS_SRC_NET_TCP_SERVER_H_
#define FLASHPS_SRC_NET_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/gateway/gateway.h"
#include "src/net/frontend.h"
#include "src/net/socket_util.h"
#include "src/net/wire.h"

namespace flashps::net {

struct TcpServerOptions {
  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port().
  int backlog = 64;
  // Bounded in-flight accepted requests per connection (back-pressure cap).
  int max_inflight_per_conn = 32;
  // Upper bound on Stop()'s wait for in-flight work and unflushed replies.
  std::chrono::milliseconds drain_timeout{10000};
  // When non-empty, every connection must open with a kAuth frame carrying
  // exactly this token before any other frame; violations get
  // kError(kUnauthorized) and the connection closes. Empty = open frontier
  // (kAuth frames are still acknowledged so clients can send one blindly).
  std::string auth_token;
};

// The synchronous reply of an InlineService to one frame: the encoded
// reply frame, plus whether the connection should close after it flushes
// (set for protocol errors, mirroring the gateway path's policy). When
// `body` is set, `frame` holds only the frame's first bytes and `body`
// the rest: shared, never written again, and sent without a copy.
struct InlineReply {
  std::vector<uint8_t> frame;
  bool close_connection = false;
  std::shared_ptr<const std::vector<uint8_t>> body = nullptr;
};

// A backend that answers each frame inline on the poll thread. Must be
// cheap (no blocking, no heavy compute) and thread-compatible with being
// called from exactly one thread.
using InlineService = std::function<InlineReply(const ParsedFrame&)>;

// Monotonic counters; every protocol failure mode is distinct.
struct TcpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  uint64_t submits_accepted = 0;
  uint64_t submits_rejected = 0;  // Valid frames the gateway turned away.
  uint64_t service_replies = 0;   // Frames answered by the InlineService.
  uint64_t bad_magic = 0;
  uint64_t bad_version = 0;
  uint64_t bad_type = 0;
  uint64_t oversized = 0;
  uint64_t malformed = 0;
  uint64_t truncated = 0;  // Peer closed with a partial frame buffered.
  uint64_t orphaned_completions = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t auth_ok = 0;        // Successful kAuth handshakes.
  uint64_t unauthorized = 0;   // Wrong token, or a frame before kAuth.
};

class TcpServer {
 public:
  // Gateway mode. The gateway must outlive the server. (Sugar for
  // frontend mode over an internally owned GatewayFrontend.)
  TcpServer(gateway::Gateway& gateway, TcpServerOptions options = {});
  // Frontend mode: submits dispatch through any WireFrontend — the local
  // gateway or the federated front tier. The frontend must outlive the
  // server.
  TcpServer(WireFrontend& frontend, TcpServerOptions options = {});
  // Service mode: `service` answers every valid frame inline on the poll
  // thread. Anything the service uses must outlive the server too.
  TcpServer(InlineService service, TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens, and spawns the poll thread. False if the port is taken.
  bool Start();
  // Graceful drain then full shutdown. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }
  TcpServerStats Stats() const;
  // Accepted requests whose replies have not been written out yet.
  uint64_t inflight() const { return total_inflight_.load(); }

 private:
  // One queued reply: its encoded bytes, then an optional shared body.
  struct OutFrame {
    std::vector<uint8_t> head;
    std::shared_ptr<const std::vector<uint8_t>> body;
    size_t size() const {
      return head.size() + (body != nullptr ? body->size() : 0);
    }
  };

  // Every field is the poll thread's alone.
  struct Conn {
    uint64_t id = 0;
    UniqueFd fd;
    RecvBuffer inbuf;
    // Reply frames, each whole, sent in order and freed once sent.
    // `out_sent` counts the bytes of the front frame already on the wire.
    std::deque<OutFrame> outbuf;
    size_t out_sent = 0;
    size_t out_queued = 0;  // Bytes of outbuf not yet on the wire.
    int inflight = 0;  // Accepted requests whose replies are still owed.
    bool read_closed = false;
    bool close_after_flush = false;
    bool stalled = false;  // At the in-flight cap (for stall accounting).
    bool authed = false;   // Completed the kAuth handshake.
  };

  struct PendingCompletion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::unique_ptr<WireCompletion> completion;
  };

  void PollLoop();
  // True once a drain may end: no completion pending, every buffer sent.
  bool Drained() const;
  void AcceptNewConnections();
  void HandleReadable(Conn& conn);
  void HandleWritable(Conn& conn);
  void ParseFrames(Conn& conn);
  void DispatchFrame(Conn& conn, const ParsedFrame& frame);
  // Auth gate: handles kAuth frames and rejects anything else on an
  // unauthenticated connection when a token is required. True if the
  // frame was consumed (handled or rejected) here.
  bool HandleAuthGate(Conn& conn, const ParsedFrame& frame);
  void HandleSubmit(Conn& conn, const ParsedFrame& frame);
  // Encodes and queues the reply of every pending completion that is
  // Ready(); a reply whose connection is gone counts as orphaned.
  void ReplyToReadyCompletions();
  void QueueFrame(Conn& conn, std::vector<uint8_t> frame,
                  std::shared_ptr<const std::vector<uint8_t>> body = nullptr);
  void CountWireError(WireError error);
  bool ShouldClose(const Conn& conn) const;

  // Exactly one backend is set: frontend mode (frontend_ != nullptr;
  // gateway mode is frontend mode over owned_frontend_) or service mode
  // (service_ is callable).
  WireFrontend* frontend_ = nullptr;
  std::unique_ptr<WireFrontend> owned_frontend_;
  InlineService service_;
  TcpServerOptions options_;
  uint16_t port_ = 0;

  UniqueFd listener_;
  // Shared with every accepted request's notify_ready, which may outlive
  // the server.
  std::shared_ptr<WakePipe> wake_ = std::make_shared<WakePipe>();

  // Poll-thread state.
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  std::vector<PendingCompletion> pending_;

  // pending_.size(), readable from any thread.
  std::atomic<uint64_t> total_inflight_{0};
  std::atomic<bool> running_{false};
  // Stop() writes drain_deadline_ and then sets draining_; the poll
  // thread reads the deadline only after it sees draining_.
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point drain_deadline_;
  std::mutex stop_mu_;
  bool stopped_ = false;

  mutable std::mutex stats_mu_;
  TcpServerStats stats_;

  // Declared last: it uses every member above.
  std::thread poll_thread_;
};

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_TCP_SERVER_H_

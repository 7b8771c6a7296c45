#include "src/net/tcp_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <optional>

#include "src/common/thread_name.h"

namespace flashps::net {

namespace {

// One recv has room for at least this much, so a ~30 KB cache put lands
// in one read.
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kMaxReadPerEvent = 256 * 1024;
constexpr size_t kMaxWritePerEvent = 256 * 1024;
// Queued frames handed to one sendmsg (two segments each at most): a
// burst of small acks leaves in one call and, with TCP_NODELAY, in as few
// segments as their bytes need.
constexpr size_t kMaxFramesPerSend = 64;
// Replies queued while a burst of frames is still being answered go out
// once this many bytes wait, so the first replies of a long burst (a
// record fetch is ~100 frames of ~28 KB) leave while the rest are still
// being encoded.
constexpr size_t kFlushBytes = 64 * 1024;
// Sentinel ids in the pollfd index for the two non-connection fds.
constexpr uint64_t kWakeId = 0;
constexpr uint64_t kListenerId = ~0ull;

}  // namespace

TcpServer::TcpServer(gateway::Gateway& gateway, TcpServerOptions options)
    : owned_frontend_(std::make_unique<GatewayFrontend>(gateway)),
      options_(options) {
  frontend_ = owned_frontend_.get();
}

TcpServer::TcpServer(WireFrontend& frontend, TcpServerOptions options)
    : frontend_(&frontend), options_(options) {}

TcpServer::TcpServer(InlineService service, TcpServerOptions options)
    : service_(std::move(service)), options_(options) {}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start() {
  listener_ = OpenListener(options_.port, options_.backlog, &port_);
  if (!listener_.valid() || !wake_->Open()) {
    return false;
  }
  running_.store(true);
  poll_thread_ = std::thread([this] {
    SetThreadName("tcp-poll");
    PollLoop();
  });
  return true;
}

TcpServerStats TcpServer::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void TcpServer::CountWireError(WireError error) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  switch (error) {
    case WireError::kBadMagic:
      ++stats_.bad_magic;
      break;
    case WireError::kBadVersion:
      ++stats_.bad_version;
      break;
    case WireError::kBadType:
      ++stats_.bad_type;
      break;
    case WireError::kOversizedFrame:
      ++stats_.oversized;
      break;
    case WireError::kMalformedPayload:
      ++stats_.malformed;
      break;
    case WireError::kTruncatedFrame:
      ++stats_.truncated;
      break;
    default:
      break;
  }
}

void TcpServer::QueueFrame(Conn& conn, std::vector<uint8_t> frame,
                           std::shared_ptr<const std::vector<uint8_t>> body) {
  OutFrame out{std::move(frame), std::move(body)};
  if (out.size() == 0) {
    return;  // Would hand sendmsg nothing to send.
  }
  conn.out_queued += out.size();
  conn.outbuf.push_back(std::move(out));
}

void TcpServer::AcceptNewConnections() {
  for (;;) {
    UniqueFd fd = AcceptTcp(listener_.get());
    if (!fd.valid()) {
      return;  // EAGAIN or a transient error; poll() will retry.
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(fd);
    conn->id = next_conn_id_++;
    conns_[conn->id] = std::move(conn);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.connections_accepted;
  }
}

void TcpServer::HandleReadable(Conn& conn) {
  size_t total = 0;
  while (total < kMaxReadPerEvent) {
    const ssize_t n = conn.inbuf.ReadFrom(conn.fd.get(), kReadChunk);
    if (n > 0) {
      total += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF or a hard error: no more bytes will ever arrive.
    conn.read_closed = true;
    break;
  }
  ParseFrames(conn);
}

void TcpServer::ParseFrames(Conn& conn) {
  bool partial = false;
  while (!conn.close_after_flush) {
    if (conn.inflight >= options_.max_inflight_per_conn) {
      // Back-pressure: stop consuming; POLLIN interest drops until some of
      // this connection's replies are queued.
      if (!conn.stalled) {
        conn.stalled = true;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.backpressure_stalls;
      }
      break;
    }
    conn.stalled = false;
    ParsedFrame frame;
    size_t consumed = 0;
    const WireError err = TryParseFrame(conn.inbuf.data(), conn.inbuf.size(),
                                        &frame, &consumed);
    if (err == WireError::kNeedMore) {
      partial = !conn.inbuf.empty();
      break;
    }
    if (err != WireError::kOk) {
      CountWireError(err);
      QueueFrame(conn, EncodeError(0, err, ToString(err)));
      conn.close_after_flush = true;
      // Whatever follows the bad bytes is unframeable; drop it.
      conn.inbuf.Clear();
      HandleWritable(conn);
      return;
    }
    conn.inbuf.Consume(consumed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_received;
    }
    DispatchFrame(conn, frame);
    if (conn.out_queued >= kFlushBytes) {
      HandleWritable(conn);
    }
  }
  if (conn.read_closed && partial) {
    // The peer closed with a frame prefix buffered: a truncated frame,
    // counted distinctly. Those bytes can never complete.
    CountWireError(WireError::kTruncatedFrame);
    conn.inbuf.Clear();
  }
  HandleWritable(conn);
}

bool TcpServer::HandleAuthGate(Conn& conn, const ParsedFrame& frame) {
  if (frame.type() == FrameType::kAuth) {
    AuthBody body;
    std::string error;
    if (!DecodeAuth(frame, &body, &error)) {
      CountWireError(WireError::kMalformedPayload);
      QueueFrame(conn, EncodeError(frame.header.seq,
                                   WireError::kMalformedPayload, error));
      conn.close_after_flush = true;
      return true;
    }
    if (!options_.auth_token.empty() && body.token != options_.auth_token) {
      QueueFrame(conn, EncodeError(frame.header.seq, WireError::kUnauthorized,
                                   "auth token rejected"));
      conn.close_after_flush = true;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.unauthorized;
      return true;
    }
    // Tokenless daemons still acknowledge so clients can handshake blindly.
    conn.authed = true;
    QueueFrame(conn, EncodeAuthOk(frame.header.seq));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.auth_ok;
    ++stats_.responses_sent;
    return true;
  }
  if (!options_.auth_token.empty() && !conn.authed) {
    QueueFrame(conn, EncodeError(frame.header.seq, WireError::kUnauthorized,
                                 "this daemon requires a kAuth handshake"));
    conn.close_after_flush = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.unauthorized;
    return true;
  }
  return false;
}

void TcpServer::DispatchFrame(Conn& conn, const ParsedFrame& frame) {
  // The auth gate sits in front of both backends: the cache daemon's
  // whole-activation records need the handshake as much as submits do.
  if (HandleAuthGate(conn, frame)) {
    return;
  }
  if (service_) {
    // Service mode: the backend answers every client-to-server frame
    // synchronously; its handlers are memcpy-scale.
    InlineReply reply = service_(frame);
    if (reply.close_connection) {
      // The service replies with a kError frame on protocol failures;
      // mirror the gateway path's malformed-payload accounting and policy.
      CountWireError(WireError::kMalformedPayload);
      conn.close_after_flush = true;
    }
    QueueFrame(conn, std::move(reply.frame), std::move(reply.body));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.service_replies;
    ++stats_.responses_sent;
    return;
  }
  switch (frame.type()) {
    case FrameType::kSubmit:
      HandleSubmit(conn, frame);
      return;
    case FrameType::kMetricsQuery: {
      QueueFrame(conn, EncodeMetricsReport(frame.header.seq,
                                           frontend_->MetricsJson()));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses_sent;
      return;
    }
    case FrameType::kCacheFetch:
    case FrameType::kCachePut: {
      // Structurally valid cache-tier frames sent to a serving daemon
      // that has no cache service behind it.
      CountWireError(WireError::kBadType);
      QueueFrame(conn,
                 EncodeError(frame.header.seq, WireError::kBadType,
                             "cache frame sent to a daemon with no cache "
                             "service"));
      conn.close_after_flush = true;
      return;
    }
    default: {
      // Structurally valid but not a client-to-server type.
      CountWireError(WireError::kBadType);
      QueueFrame(conn, EncodeError(frame.header.seq, WireError::kBadType,
                                   "frame type not valid for this direction"));
      conn.close_after_flush = true;
      return;
    }
  }
}

void TcpServer::HandleSubmit(Conn& conn, const ParsedFrame& frame) {
  WireRequest request;
  std::string error;
  if (!DecodeSubmit(frame, &request, &error)) {
    CountWireError(WireError::kMalformedPayload);
    QueueFrame(conn, EncodeError(frame.header.seq,
                                 WireError::kMalformedPayload, error));
    conn.close_after_flush = true;
    return;
  }
  // The poll thread both accepts submits and ends the drain, so a submit
  // is either accepted before the drain began (and the drain waits for
  // its reply) or answered kRejectedShutdown here.
  WireResponse rejection;
  if (draining_.load()) {
    rejection.status =
        static_cast<uint8_t>(gateway::SubmitStatus::kRejectedShutdown);
  } else {
    // The backend calls this once the completion is Ready(). The pipe is
    // shared, so a call after Stop() or after this server is gone lands
    // in a pipe nobody reads.
    request.notify_ready = [wake = wake_] { wake->Wake(); };
    WireSubmission sub = frontend_->Submit(std::move(request));
    if (sub.accepted()) {
      ++conn.inflight;
      pending_.push_back(
          {conn.id, frame.header.seq, std::move(sub.completion)});
      total_inflight_.fetch_add(1);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.submits_accepted;
      return;
    }
    rejection.status = static_cast<uint8_t>(sub.status);
    rejection.worker_id = sub.worker_id;
    rejection.estimated_wall_us = sub.estimated_wall_us;
  }
  QueueFrame(conn, EncodeSubmitResult(frame.header.seq, rejection));
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.submits_rejected;
  ++stats_.responses_sent;
}

void TcpServer::HandleWritable(Conn& conn) {
  size_t written = 0;
  while (written < kMaxWritePerEvent) {
    // Each frame is its encoded bytes plus, for a stored cache body, that
    // body sent from where it rests.
    iovec iov[2 * kMaxFramesPerSend];
    size_t segments = 0;
    size_t frames = 0;
    for (auto it = conn.outbuf.begin();
         it != conn.outbuf.end() && frames < kMaxFramesPerSend;
         ++it, ++frames) {
      size_t skip = frames == 0 ? conn.out_sent : 0;
      if (skip < it->head.size()) {
        iov[segments++] = {it->head.data() + skip, it->head.size() - skip};
        skip = 0;
      } else {
        skip -= it->head.size();
      }
      if (it->body != nullptr && skip < it->body->size()) {
        iov[segments++] = {const_cast<uint8_t*>(it->body->data()) + skip,
                           it->body->size() - skip};
      }
    }
    if (segments == 0) {
      return;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = segments;
    const ssize_t n = ::sendmsg(conn.fd.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Retire what went out; a frame (and its hold on a stored body) is
      // released the moment its last byte is sent.
      conn.out_queued -= static_cast<size_t>(n);
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        const size_t rest = conn.outbuf.front().size() - conn.out_sent;
        if (left < rest) {
          conn.out_sent += left;
          break;
        }
        left -= rest;
        conn.outbuf.pop_front();
        conn.out_sent = 0;
      }
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // Peer is gone; nothing queued can ever be delivered.
    conn.read_closed = true;
    conn.close_after_flush = true;
    conn.outbuf.clear();
    conn.out_sent = 0;
    conn.out_queued = 0;
    return;
  }
}

bool TcpServer::ShouldClose(const Conn& conn) const {
  if (conn.read_closed) {
    // EOF means the peer is gone — clients hold their socket open until
    // every reply lands and never half-close. Retire the connection now;
    // whatever it is still owed counts as orphaned when it resolves.
    return true;
  }
  return conn.close_after_flush && conn.inflight == 0 && conn.outbuf.empty();
}

bool TcpServer::Drained() const {
  if (!pending_.empty()) {
    return false;
  }
  for (const auto& [id, conn] : conns_) {
    if (!conn->outbuf.empty()) {
      return false;
    }
  }
  return true;
}

void TcpServer::ReplyToReadyCompletions() {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!it->completion->Ready()) {
      ++it;
      continue;
    }
    const WireResponse response = it->completion->Take();
    auto conn_it = conns_.find(it->conn_id);
    const bool delivered = conn_it != conns_.end();
    if (delivered) {
      --conn_it->second->inflight;
      QueueFrame(*conn_it->second, EncodeSubmitResult(it->seq, response));
    }
    it = pending_.erase(it);
    total_inflight_.fetch_sub(1);
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (delivered) {
      ++stats_.responses_sent;
    } else {
      ++stats_.orphaned_completions;
    }
  }
}

void TcpServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;
  for (;;) {
    // ppoll() sleeps until a socket, a completion's notify_ready or Stop()
    // wakes it; only a drain has a deadline to keep.
    std::optional<timespec> timeout;
    if (draining_.load()) {
      listener_.Reset();
      const std::chrono::nanoseconds left =
          drain_deadline_ - std::chrono::steady_clock::now();
      if (Drained() || left <= left.zero()) {
        break;
      }
      timeout = timespec{
          static_cast<time_t>(left.count() / 1000000000),
          static_cast<long>(left.count() % 1000000000)};
    }
    fds.clear();
    ids.clear();
    fds.push_back({wake_->read_end.get(), POLLIN, 0});
    ids.push_back(kWakeId);
    if (listener_.valid()) {
      fds.push_back({listener_.get(), POLLIN, 0});
      ids.push_back(kListenerId);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn->read_closed && !conn->close_after_flush &&
          !draining_.load() &&
          conn->inflight < options_.max_inflight_per_conn) {
        events |= POLLIN;
      }
      if (!conn->outbuf.empty()) {
        events |= POLLOUT;
      }
      fds.push_back({conn->fd.get(), events, 0});
      ids.push_back(id);
    }
    ::ppoll(fds.data(), fds.size(), timeout ? &*timeout : nullptr, nullptr);

    for (size_t i = 0; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) {
        continue;
      }
      if (ids[i] == kWakeId) {
        wake_->Drain();
        continue;
      }
      if (ids[i] == kListenerId) {
        if (!draining_.load()) {
          AcceptNewConnections();
        }
        continue;
      }
      auto it = conns_.find(ids[i]);
      if (it == conns_.end()) {
        continue;
      }
      Conn& conn = *it->second;
      if (revents & POLLERR) {
        conn.read_closed = true;
        conn.close_after_flush = true;
        conn.outbuf.clear();
        conn.out_sent = 0;
        conn.out_queued = 0;
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        HandleReadable(conn);
      }
      if (revents & POLLOUT) {
        HandleWritable(conn);
      }
    }

    // Queue every finished reply, re-parse buffered frames for connections
    // back under the in-flight cap, flush, and retire dead connections.
    ReplyToReadyCompletions();
    size_t closed = 0;
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& conn = *it->second;
      if (!conn.close_after_flush && !conn.inbuf.empty() &&
          conn.inflight < options_.max_inflight_per_conn) {
        ParseFrames(conn);
      }
      HandleWritable(conn);
      if (ShouldClose(conn)) {
        it = conns_.erase(it);
        ++closed;
      } else {
        ++it;
      }
    }
    if (closed > 0) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.connections_closed += closed;
    }
  }
  // The drain ended. Replies still owed past the deadline can never be
  // sent; close everything still open.
  total_inflight_.fetch_sub(pending_.size());
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.orphaned_completions += pending_.size();
  stats_.connections_closed += conns_.size();
  pending_.clear();
  conns_.clear();
}

void TcpServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) {
    return;
  }
  stopped_ = true;
  if (!running_.load()) {
    return;
  }
  drain_deadline_ = std::chrono::steady_clock::now() + options_.drain_timeout;
  draining_.store(true);
  wake_->Wake();
  if (poll_thread_.joinable()) {
    poll_thread_.join();
  }
  running_.store(false);
}

}  // namespace flashps::net

// Thin POSIX socket helpers shared by the TCP server and client: RAII fd
// ownership, listener/connect setup, and the self-pipe used to wake a
// poll() loop from another thread. Linux/POSIX only (the only platform the
// reproduction targets); nothing here knows about the wire protocol.
#ifndef FLASHPS_SRC_NET_SOCKET_UTIL_H_
#define FLASHPS_SRC_NET_SOCKET_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flashps::net {

// Owns one file descriptor; closes it on destruction. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& o) noexcept : fd_(o.Release()) {}
  UniqueFd& operator=(UniqueFd&& o) noexcept {
    if (this != &o) {
      Reset(o.Release());
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() { return std::exchange(fd_, -1); }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Opens a non-blocking listener on 127.0.0.1:`port` (0 = ephemeral) with
// SO_REUSEADDR. On success fills `*bound_port` with the actual port.
// Returns an invalid fd on failure.
UniqueFd OpenListener(uint16_t port, int backlog, uint16_t* bound_port);

// Blocking TCP connect to host:port (numeric IP or hostname). Returns an
// invalid fd on failure.
UniqueFd ConnectTcp(const std::string& host, uint16_t port);

// ConnectTcp with bounded retries: up to max(1, attempts) tries, sleeping
// `backoff` before the second try and doubling it per attempt (50, 100,
// 200, ... ms). The shared connect policy of every wire client — so a
// client started before its daemon can still win the race, and the retry
// shape cannot drift between client implementations.
UniqueFd ConnectTcpWithRetry(const std::string& host, uint16_t port,
                             int attempts, std::chrono::milliseconds backoff);

bool SetNonBlocking(int fd);

// Accepts one pending connection off a non-blocking listener and readies
// it for a poll() loop: non-blocking, with TCP_NODELAY so small replies
// (acks, metrics) leave at once instead of waiting on the peer's delayed
// ACK. Invalid when nothing is pending or the setup failed.
UniqueFd AcceptTcp(int listener_fd);

// A pipe whose read end a poll() loop watches; writing one byte wakes it.
struct WakePipe {
  UniqueFd read_end;
  UniqueFd write_end;

  bool Open();
  // Async-signal- and thread-safe wake; coalesces (a full pipe is fine).
  void Wake() const;
  // Drains pending wake bytes (called by the poll loop).
  void Drain() const;
};

// A socket's receive buffer that frames bytes where they land: recv()
// writes straight into its tail and framed bytes leave from its front by
// moving an offset, so a frame is never copied to be buffered or to be
// dropped. Storage is allocated once and reused; only the bytes of a
// frame still incomplete are moved, to the front, when the tail runs
// short of room for a read.
class RecvBuffer {
 public:
  // One recv() of up to the whole free tail (at least `chunk` bytes,
  // making room first): its result, as ::recv returns it.
  ssize_t ReadFrom(int fd, size_t chunk);
  const uint8_t* data() const { return buf_.data() + begin_; }
  size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  // Drops `n` framed bytes from the front.
  void Consume(size_t n) { begin_ += n; }
  void Clear() { begin_ = end_ = 0; }

 private:
  std::vector<uint8_t> buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

// Writes all of [data, data+size) to a blocking socket, retrying on EINTR
// and suppressing SIGPIPE. Returns false once the peer is gone.
bool SendAll(int fd, const void* data, size_t size);

// Counts open file descriptors of this process (via /proc/self/fd); -1 if
// unavailable. Used by tests to assert the server leaks no sockets.
int CountOpenFds();

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_SOCKET_UTIL_H_

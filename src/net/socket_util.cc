#include "src/net/socket_util.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

namespace flashps::net {

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  fd_ = fd;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

UniqueFd OpenListener(uint16_t port, int backlog, uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd.get(), backlog) != 0 || !SetNonBlocking(fd.get())) {
    return UniqueFd();
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return UniqueFd();
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

namespace {

bool SetNoDelay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

}  // namespace

UniqueFd AcceptTcp(int listener_fd) {
  UniqueFd fd(::accept(listener_fd, nullptr, nullptr));
  if (!fd.valid() || !SetNonBlocking(fd.get()) || !SetNoDelay(fd.get())) {
    return UniqueFd();
  }
  return fd;
}

UniqueFd ConnectTcp(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &result) != 0) {
    return UniqueFd();
  }
  UniqueFd fd;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    UniqueFd candidate(
        ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      continue;
    }
    if (::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
      SetNoDelay(candidate.get());
      fd = std::move(candidate);
      break;
    }
  }
  ::freeaddrinfo(result);
  return fd;
}

UniqueFd ConnectTcpWithRetry(const std::string& host, uint16_t port,
                             int attempts, std::chrono::milliseconds backoff) {
  for (int attempt = 0; attempt < std::max(1, attempts); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    UniqueFd fd = ConnectTcp(host, port);
    if (fd.valid()) {
      return fd;
    }
  }
  return UniqueFd();
}

bool WakePipe::Open() {
  int fds[2];
  if (::pipe(fds) != 0) {
    return false;
  }
  read_end.Reset(fds[0]);
  write_end.Reset(fds[1]);
  return SetNonBlocking(fds[0]) && SetNonBlocking(fds[1]);
}

void WakePipe::Wake() const {
  const char byte = 1;
  // Non-blocking: a full pipe already guarantees a pending wake-up.
  [[maybe_unused]] const ssize_t n = ::write(write_end.get(), &byte, 1);
}

void WakePipe::Drain() const {
  char buf[64];
  while (::read(read_end.get(), buf, sizeof(buf)) > 0) {
  }
}

ssize_t RecvBuffer::ReadFrom(int fd, size_t chunk) {
  if (begin_ == end_) {
    begin_ = end_ = 0;
  }
  if (buf_.size() - end_ < chunk) {
    if (begin_ > 0) {
      // Slide the incomplete frame to the front.
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < chunk) {
      buf_.resize(std::max(2 * buf_.size(), end_ + chunk));
    }
  }
  const ssize_t n = ::recv(fd, buf_.data() + end_, buf_.size() - end_, 0);
  if (n > 0) {
    end_ += static_cast<size_t>(n);
  }
  return n;
}

bool SendAll(int fd, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return -1;
  }
  int count = 0;
  while (::readdir(dir) != nullptr) {
    ++count;
  }
  ::closedir(dir);
  // Subtract ".", "..", and the DIR's own fd.
  return count - 3;
}

}  // namespace flashps::net

// Names the calling thread by its role, so per-thread tools (top -H,
// /proc/<pid>/task/*/comm, perf) can tell the serving stack's threads
// apart.
#ifndef FLASHPS_SRC_COMMON_THREAD_NAME_H_
#define FLASHPS_SRC_COMMON_THREAD_NAME_H_

#include <pthread.h>

#include <cstring>

namespace flashps {

// Sets the calling thread's name. The kernel keeps at most 15 characters
// (plus the terminator); longer names are cut to fit.
inline void SetThreadName(const char* name) {
  char buf[16];
  std::strncpy(buf, name, sizeof(buf) - 1);
  buf[sizeof(buf) - 1] = '\0';
  pthread_setname_np(pthread_self(), buf);
}

}  // namespace flashps

#endif  // FLASHPS_SRC_COMMON_THREAD_NAME_H_

// Shared helpers for the experiment-reproduction binaries: consistent table
// printing, paper-vs-measured reporting, interleaved min-of-N timing, and
// the host header a measured BENCH_*.json carries.
#ifndef FLASHPS_BENCH_BENCH_UTIL_H_
#define FLASHPS_BENCH_BENCH_UTIL_H_

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace flashps::bench {

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// Best-of timing for closures compared with each other: alternates them
// sample by sample and returns each one's fastest per-call milliseconds.
// Timing each side independently (each a median over its own window) lets
// a noisy neighbour on a time-shared core land on one side only and swing
// a ratio double-digit percent run to run; interleaving exposes every side
// to the same windows, and min-of-N recovers each side's unloaded floor.
// Batch sizes are calibrated per closure so every sample spans >= ~20 ms
// of wall clock.
inline std::vector<double> InterleavedMinMs(
    const std::vector<std::function<void()>>& fns, int samples = 9) {
  using Clock = std::chrono::steady_clock;
  auto time_batch = [](const std::function<void()>& fn, int iters) {
    const auto start = Clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const auto stop = Clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };
  std::vector<int> iters(fns.size(), 1);
  for (size_t f = 0; f < fns.size(); ++f) {
    double ms = time_batch(fns[f], 1);
    while (ms < 20.0 && iters[f] < (1 << 20)) {
      iters[f] *= 2;
      ms = time_batch(fns[f], iters[f]);
    }
  }
  std::vector<double> best(fns.size(), 1e300);
  for (int s = 0; s < samples; ++s) {
    for (size_t f = 0; f < fns.size(); ++f) {
      best[f] = std::min(best[f], time_batch(fns[f], iters[f]) / iters[f]);
    }
  }
  return best;
}

// The two-sided form: a speedup pair.
inline std::pair<double, double> InterleavedMinMs(
    const std::function<void()>& a, const std::function<void()>& b) {
  const std::vector<double> best = InterleavedMinMs({a, b});
  return {best[0], best[1]};
}

// The git commit of the working directory's checkout, or "unknown".
inline std::string GitCommit() {
  std::string commit;
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      commit = buf;
    }
    pclose(pipe);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

// The CPU model and its vector-ISA flags (AVX2, FMA, AVX-512*, AMX*) from
// /proc/cpuinfo.
inline std::pair<std::string, std::string> CpuModelAndFlags() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  std::string flags;
  bool have_model = false;
  bool have_flags = false;
  while (std::getline(cpuinfo, line) && !(have_model && have_flags)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (!have_model && line.rfind("model name", 0) == 0) {
      model = value;
      have_model = true;
    } else if (!have_flags && line.rfind("flags", 0) == 0) {
      std::istringstream in(value);
      std::string flag;
      while (in >> flag) {
        if (flag == "avx2" || flag == "fma" || flag.rfind("avx512", 0) == 0 ||
            flag.rfind("amx", 0) == 0) {
          flags += (flags.empty() ? "" : ",") + flag;
        }
      }
      have_flags = true;
    }
  }
  return {model, flags.empty() ? "none" : flags};
}

// CPUs' worth of time one spinning thread per schedulable CPU gets over
// 200 ms: the effective quota, which can be far below the CPU count.
inline double EffectiveCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int threads =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  auto thread_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
  };
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::milliseconds(200);
  std::vector<double> cpu(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      const double c0 = thread_cpu_s();
      volatile double sink = 0.0;
      while (std::chrono::steady_clock::now() < end) {
        sink = sink + 1.0;
      }
      cpu[static_cast<size_t>(i)] = thread_cpu_s() - c0;
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  double total = 0.0;
  for (const double c : cpu) {
    total += c;
  }
  return wall > 0.0 ? total / wall : 0.0;
}

// The JSON members every measured artifact opens with (no braces, one
// member per line, each followed by a comma): commit, CPU, ISA flags,
// schedulable and effective CPUs.
inline std::string HostHeaderJson() {
  const auto [model, flags] = CpuModelAndFlags();
  std::ostringstream out;
  out << "  \"commit\": \"" << GitCommit() << "\",\n"
      << "  \"cpu_model\": \"" << model << "\",\n"
      << "  \"cpu_flags\": \"" << flags << "\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"effective_cpus\": " << Fmt(EffectiveCpus(), 2) << ",\n";
  return out.str();
}

}  // namespace flashps::bench

#endif  // FLASHPS_BENCH_BENCH_UTIL_H_

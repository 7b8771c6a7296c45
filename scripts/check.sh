#!/usr/bin/env bash
# Tier-1 verification plus the concurrency and memory gauntlets:
#   1. configure + build + full ctest (the roadmap's tier-1 gate), then the
#      kernel suites again at every ISA level the CPU supports (the
#      FLASHPS_ISA pin; unpinned runs only ever exercise the widest);
#   2. emit BENCH_kernels.json from the kernel microbenchmarks;
#   3. rebuild the threaded suites under ThreadSanitizer and run them;
#   4. rebuild the kernel, net, client, runtime, gateway, activation-store,
#      cache-rpc, cache-ring, fed and codec suites under AddressSanitizer +
#      UndefinedBehaviorSanitizer
#      and run them (malformed-frame handling must be memory-clean, not
#      just not-crash, and so must the vector kernels' ragged-tail loads
#      and stores; any undefined-behaviour report fails the test).
# The client suites (Client*: deadline closes, mutated-reply fuzz) run in
# both sanitizer legs: the fuzz cases drive the client's read path with
# bytes no daemon sends, and every case starts and stops a server.
# The codec suites (Quant*, CodecQuality*) run in every leg: tier-1 via
# ctest, and again under both sanitizers — the decoder's malformed-frame
# rejection paths must be clean under ASan, and the codec is on the hot
# path of the threaded cache suites.
# Every ctest invocation carries a per-test timeout so a deadlocked
# thread (the failure mode the prefetch/serving tests exist to catch)
# fails the run instead of wedging it.
#
#   scripts/check.sh                    # everything
#   scripts/check.sh --fast             # tier-1 only: configure + build + ctest
#   scripts/check.sh --bench-smoke      # also run every bench binary with
#                                       # tiny iterations (numbers are not
#                                       # meaningful; catches bit-rot in the
#                                       # bench-only code paths)
#   scripts/check.sh --filter <regex>   # restrict every ctest leg to tests
#                                       # matching <regex> (replaces the
#                                       # sanitizer legs' default regexes)
#
# Run from anywhere; operates on the repo root it lives in.
set -euo pipefail

fast=0
filter=""
bench_smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) fast=1; shift ;;
    --bench-smoke) bench_smoke=1; shift ;;
    --filter)
      [[ $# -ge 2 ]] || { echo "--filter needs a regex" >&2; exit 2; }
      filter="$2"; shift 2 ;;
    --filter=*) filter="${1#--filter=}"; shift ;;
    *) echo "unknown argument: $1 (supported: --fast, --bench-smoke," \
            "--filter <regex>)" >&2
       exit 2 ;;
  esac
done

# Generous for one test (the slowest integration tests run ~5 s); fatal
# only for a hang.
test_timeout=120

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo}"

# The threaded suites the sanitizers exercise. Keep the two lists in sync
# with the build target lists below.
tsan_regex='^(ParallelFor|KernelEquivalence|Matrix|SparseCompute|ConcurrentQueue|ThreadPool|OnlineServer|Gateway|MetricsRegistry|StatAccumulator|Serde|Wire|TcpServer|NetIntegration|Client|CacheRpc|CacheRing|ActivationStore|Quant|CodecQuality|Fed)'
asan_regex='^(KernelEquivalence|ParallelFor|Matrix|SparseCompute|Serde|Wire|TcpServer|NetIntegration|Client|OnlineServer|Gateway|CacheRpc|CacheRing|ActivationStore|Quant|CodecQuality|Fed)'
# The suites that gate kernel bits, rerun once per ISA level: the GEMM's
# vector width and tile heights differ per level, so the sparse == dense
# gates and the golden hashes must hold at each (kernel_equivalence_test,
# tensor_test, sparse_compute_test, golden_bits_test).
kernel_regex='^((KernelEquivalence|ParallelFor|Matrix|GoldenBits)Test|SparseCompute[A-Za-z]*Test)\.'

# The FLASHPS_ISA levels this CPU can run, from its /proc/cpuinfo flags
# (the feature sets GCC's x86-64-v3 and x86-64-v4 require).
isa_levels() {
  local flags
  flags=" $(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true) "
  has() {
    local f
    for f in "$@"; do
      [[ "${flags}" == *" ${f} "* ]] || return 1
    done
  }
  echo generic
  local v3=(avx avx2 bmi1 bmi2 f16c fma abm movbe xsave)
  has "${v3[@]}" && echo v3
  has "${v3[@]}" avx512f avx512bw avx512cd avx512dq avx512vl && echo v4
  return 0
}

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null

echo "== docs: flags cross-check =="
"${repo}/scripts/check_docs.sh" "${repo}/build"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure -j "$(nproc)" \
  --timeout "${test_timeout}" \
  ${filter:+-R "${filter}"}

for isa in $(isa_levels); do
  echo "== tier-1: kernel suites at FLASHPS_ISA=${isa} =="
  FLASHPS_ISA="${isa}" ctest --test-dir build --output-on-failure \
    -j "$(nproc)" --timeout "${test_timeout}" \
    -R "${filter:-${kernel_regex}}"
done

# Opt-in smoke pass over every bench binary (~1 min): each one runs end to
# end with tiny iterations, from a scratch directory so the throwaway
# numbers never overwrite the recorded BENCH_*.json artifacts. Catches
# bench-only code paths (flag parsing, JSON dumps, the gathered-panel
# drivers) that ctest never executes.
if [[ "${bench_smoke}" -eq 1 ]]; then
  echo "== bench smoke: every bench binary, tiny iterations =="
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "${smoke_dir}"' EXIT
  for bin in "${repo}"/build/bench/bench_*; do
    name="$(basename "${bin}")"
    args=()
    case "${name}" in
      bench_hybrid_resolution|bench_gateway_slo) args=(--smoke) ;;
      bench_kernels) args=(--json-only) ;;
    esac
    echo "-- ${name} ${args[*]-}"
    (cd "${smoke_dir}" && "${bin}" ${args[@]+"${args[@]}"} >/dev/null)
  done
  echo "== bench smoke: all bench binaries ran clean =="
fi

if [[ "${fast}" -eq 1 ]]; then
  echo "== fast mode: tier-1 passed, skipping bench + sanitizers =="
  exit 0
fi

echo "== kernel bench: BENCH_kernels.json =="
cmake --build build -j --target bench_kernels >/dev/null
./build/bench/bench_kernels --json-only
echo "BENCH_kernels.json -> ${repo}/BENCH_kernels.json"

echo "== tsan: build threaded suites =="
cmake -B build-tsan -S . -DFLASHPS_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target \
  kernel_equivalence_test tensor_test sparse_compute_test runtime_test \
  gateway_test \
  common_test cache_test \
  net_test net_integration_test client_test tcp_server_fuzz_test \
  cache_rpc_test cache_rpc_fuzz_test cache_rpc_integration_test \
  cache_ring_test cache_ring_integration_test \
  fed_test fed_integration_test \
  quant_test codec_quality_test \
  >/dev/null

echo "== tsan: run threaded suites =="
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  --timeout "${test_timeout}" \
  -R "${filter:-${tsan_regex}}"

echo "== asan+ubsan: build kernel + net + client + runtime + gateway + cache-rpc + cache-ring suites =="
cmake -B build-asan -S . -DFLASHPS_SANITIZE=address >/dev/null
cmake --build build-asan -j --target \
  kernel_equivalence_test tensor_test sparse_compute_test \
  net_test net_integration_test client_test tcp_server_fuzz_test \
  runtime_test gateway_test cache_test cache_rpc_test \
  cache_rpc_fuzz_test cache_rpc_integration_test cache_ring_test \
  cache_ring_integration_test \
  fed_test fed_integration_test \
  quant_test codec_quality_test \
  >/dev/null

echo "== asan+ubsan: run kernel + net + client + runtime + gateway + cache-rpc + cache-ring suites =="
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" \
  --timeout "${test_timeout}" \
  -R "${filter:-${asan_regex}}"

echo "== all checks passed =="

#!/usr/bin/env bash
# Docs/flags cross-check: every daemon flag must be documented, and every
# documented flag must exist.
#
# Direction 1 (undocumented): each `--flag` the daemons' auto-generated
# `--help` output advertises (flashps_served, flashps_cached, flashps_fed)
# must be mentioned somewhere in README.md or DESIGN.md.
# Direction 2 (unknown): each `--flag` token mentioned in README.md or
# DESIGN.md must be a daemon flag or on the allowlist of non-daemon flags
# (ctest/check.sh/bench_net_loadgen options that have no --help to parse).
#
# Needs the tier-1 build (the daemon binaries) to exist; check.sh invokes
# this right after that build.
#
#   scripts/check_docs.sh [BUILD_DIR]   # default: <repo>/build
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-${repo}/build}"

daemons=(flashps_served flashps_cached flashps_fed)
docs=("${repo}/README.md" "${repo}/DESIGN.md")

# Flags documented for tools whose help output this script does not parse:
# check.sh itself, ctest invocations quoted in the README, and the bench
# binaries (bench_net_loadgen's client options; --smoke on
# bench_hybrid_resolution / bench_gateway_slo; --bench-smoke on check.sh).
allowlist=(
  --fast --filter --help --json-only
  --build --test-dir --output-on-failure --timeout
  --host --requests --rps
  --smoke --bench-smoke
)

for d in "${daemons[@]}"; do
  [[ -x "${build}/examples/${d}" ]] || {
    echo "check_docs: ${build}/examples/${d} missing; build tier-1 first" >&2
    exit 2
  }
done

# Union of the daemons' advertised flags, e.g. "--port" from
# "  --port=N  listen port ...".
daemon_flags="$(
  for d in "${daemons[@]}"; do
    "${build}/examples/${d}" --help
  done | grep -oE '^\s+--[a-z0-9][a-z0-9-]*' | tr -d ' ' | sort -u
)"

# Every --token the docs mention.
doc_flags="$(
  grep -hoE '\-\-[a-z0-9][a-z0-9-]*' "${docs[@]}" | sort -u
)"

fail=0

# Direction 1: daemon flag absent from the docs.
while IFS= read -r flag; do
  if ! grep -qF -- "${flag}" "${docs[@]}"; then
    echo "UNDOCUMENTED: daemon flag ${flag} appears in --help but not in" \
         "README.md/DESIGN.md" >&2
    fail=1
  fi
done <<< "${daemon_flags}"

# Direction 2: documented flag that no daemon (or allowlisted tool) has.
while IFS= read -r flag; do
  known=0
  grep -qxF -- "${flag}" <<< "${daemon_flags}" && known=1
  for a in "${allowlist[@]}"; do
    [[ "${flag}" == "${a}" ]] && known=1
  done
  # A longer daemon flag can embed a shorter token (--cache-nodes contains
  # --cache); only exact matches count, so no prefix special-casing.
  if [[ "${known}" -eq 0 ]]; then
    echo "UNKNOWN: docs mention ${flag} but no daemon --help advertises it" \
         "(add it to a daemon, fix the docs, or extend the allowlist)" >&2
    fail=1
  fi
done <<< "${doc_flags}"

if [[ "${fail}" -ne 0 ]]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: README/DESIGN flags match daemon --help (both directions)"

#!/usr/bin/env bash
# Which library functions does any program actually run?
#
# Builds a scratch tree at -O0 with -ffunction-sections and links every
# program with -Wl,--gc-sections, so each out-of-line function survives in
# a binary only if that binary can call it. Then it compares the `T`
# symbols in namespace bnf:: of libbilatnet.a with those left in the
# linked programs:
#
#   unreached    in the library, in no program
#   driver-only  in a bench/ program, not in `bilatnet`
#
# Usage: tools/reach_listing.sh [build-dir]   (default: build/reach)
# JOBS sets the build parallelism (default 2). Tests are not built.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build/reach}

cmake -S "$root" -B "$build" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
  -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
  -DBILATNET_BUILD_TESTS=OFF >/dev/null

programs=()
for source in "$root"/bench/*.cpp; do
  programs+=("$(basename "$source" .cpp)")
done
cmake --build "$build" --parallel "${JOBS:-2}" \
  --target bilatnet_cli "${programs[@]}" >/dev/null

# The bnf:: functions a file defines out of line, one demangled name a line.
defined() {
  nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T //p' | grep '^bnf::' |
    sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

defined "$build/libbilatnet.a" >"$tmp/library"
defined "$build/bilatnet" >"$tmp/cli"
defined "${programs[@]/#/$build/}" >"$tmp/standalone"
sort -u "$tmp/cli" "$tmp/standalone" >"$tmp/reached"

comm -23 "$tmp/library" "$tmp/reached" >"$tmp/unreached"
comm -23 "$tmp/standalone" "$tmp/cli" | comm -12 - "$tmp/library" \
  >"$tmp/driver_only"

echo "== unreached: in libbilatnet.a, in no program"
cat "$tmp/unreached"
echo
echo "== driver-only: in a bench/ program, not in bilatnet"
cat "$tmp/driver_only"
echo
echo "unreached: $(wc -l <"$tmp/unreached") of $(wc -l <"$tmp/library")"
echo "driver-only: $(wc -l <"$tmp/driver_only")"

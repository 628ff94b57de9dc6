#!/usr/bin/env bash
# Repro golden check.
#
# Every figure `repro` prints is priced from the energy ledger, and the
# ledger is bit-identical across engines, storage layouts and worker
# counts — so a host-side change (a faster engine, a different storage
# representation) must leave the output byte for byte what it was.
# This script makes that a standing gate instead of a manual `cmp`:
# it runs the full reproduction at scale 0.01 and diffs it against the
# committed golden.
#
# A change that moves a figure on purpose (a new charge class, a model
# recalibration) regenerates the golden in the same commit:
#   scripts/check_repro_golden.sh --bless
#
# Usage: scripts/check_repro_golden.sh [--bless]   (from anywhere)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
golden="$root/tests/golden/repro_0.01_all.txt"
cd "$root"

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
cargo run --release --quiet -p eco-bench --bin repro -- 0.01 all > "$out"

if [ "${1:-}" = "--bless" ]; then
  cp "$out" "$golden"
  echo "blessed $golden"
  exit 0
fi

if diff -u "$golden" "$out"; then
  echo "OK: repro 0.01 all matches $golden"
else
  echo "FAIL: repro 0.01 all differs from $golden (see diff above)"
  exit 1
fi

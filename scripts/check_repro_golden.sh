#!/usr/bin/env bash
# Repro golden check.
#
# Every figure `repro` prints is priced from the energy ledger, and the
# ledger is bit-identical across engines, storage layouts and worker
# counts — so a host-side change (a faster engine, a different storage
# representation) must leave the output byte for byte what it was.
# `tests/repro_golden.rs` renders the full reproduction at scale 0.01
# and compares it with the committed golden; `cargo test` runs it in
# debug, this script runs it optimised.
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

if [ "${1:-}" = "--bless" ]; then
  out="$(mktemp)"
  trap 'rm -f "$out"' EXIT
  cargo run --release --quiet --bin repro -- 0.01 all > "$out"
  cp "$out" "$golden"
  echo "blessed $golden"
  exit 0
fi

cargo test --release --quiet --test repro_golden

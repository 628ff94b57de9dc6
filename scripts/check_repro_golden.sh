#!/usr/bin/env bash
# Repro and ledger golden checks.
#
# Every figure `repro` prints is priced from the energy ledger, and the
# ledger is bit-identical across engines, storage layouts and worker
# counts — so a host-side change (a faster engine, a different storage
# representation) must leave the output byte for byte what it was.
# `tests/repro_golden.rs` renders the full reproduction at scale 0.01
# and compares it with tests/golden/repro_0.01_all.txt;
# `tests/ledger_golden.rs` prints the exact ledger and its exact price
# for a fixed set of statements (TPC-H Q1/Q3/Q5/Q6, compressed pricing,
# a QED batch, index probes, a group commit, a recovery) and compares it
# with tests/golden/ledgers_0.01.txt. `cargo test` runs both in debug,
# this script runs them optimised.
#
# A change that moves a figure, a count or a price on purpose (a new
# charge class, a model recalibration) regenerates both goldens in the
# same commit:
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
  cargo test --release --quiet --test ledger_golden -- --ignored bless_the_ledger_golden
  echo "blessed $root/tests/golden/ledgers_0.01.txt"
  exit 0
fi

cargo test --release --quiet --test repro_golden --test ledger_golden

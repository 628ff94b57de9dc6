#!/usr/bin/env bash
# Vendored-stub drift check.
#
# The repository builds without registry access, so three
# third-party crates are vendored as API-compatible stubs under
# `vendor/`. Each stub must carry exactly the name and version pinned
# in Cargo.lock — otherwise cargo resolves a different (missing)
# version and the build fails with confusing unrelated errors. This
# script makes that skew fail fast, with a message that says what
# drifted.
#
# Usage: scripts/check_vendor_stubs.sh   (from the repo root)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
lock="$root/Cargo.lock"
fail=0

[ -f "$lock" ] || { echo "FAIL: $lock missing"; exit 1; }

shopt -s nullglob
stubs=("$root"/vendor/*/Cargo.toml)
if [ "${#stubs[@]}" -eq 0 ]; then
  echo "FAIL: no vendored stubs found under vendor/"
  exit 1
fi

for manifest in "${stubs[@]}"; do
  dir="$(basename "$(dirname "$manifest")")"
  name="$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$manifest" | head -n1)"
  version="$(sed -n 's/^version *= *"\(.*\)"/\1/p' "$manifest" | head -n1)"

  if [ -z "$name" ] || [ -z "$version" ]; then
    echo "FAIL: vendor/$dir/Cargo.toml has no parseable name/version"
    fail=1
    continue
  fi
  if [ "$name" != "$dir" ]; then
    echo "FAIL: vendor/$dir contains crate \"$name\" (directory and crate name must match)"
    fail=1
  fi
  # The lock file must pin exactly this (name, version) pair.
  if ! grep -A1 "^name = \"$name\"$" "$lock" | grep -q "^version = \"$version\"$"; then
    locked="$(grep -A1 "^name = \"$name\"$" "$lock" | sed -n 's/^version = "\(.*\)"/\1/p' | head -n1)"
    echo "FAIL: vendor/$dir is $name@$version but Cargo.lock pins ${locked:-<absent>}"
    fail=1
  else
    echo "ok: vendor/$dir matches Cargo.lock ($name@$version)"
  fi
done

# And the reverse: every workspace member under vendor/ in the lock
# file must exist on disk (a deleted stub also skews the build).
while read -r name; do
  if [ ! -d "$root/vendor/$name" ]; then
    echo "FAIL: Cargo.lock references vendored crate \"$name\" but vendor/$name is missing"
    fail=1
  fi
done < <(sed -n 's/^name = "\(parking_lot\|proptest\|rand\)"$/\1/p' "$lock")

if [ "$fail" -ne 0 ]; then
  echo "vendored stub drift detected — align vendor/*/Cargo.toml with Cargo.lock"
  exit 1
fi
echo "all vendored stubs match Cargo.lock"

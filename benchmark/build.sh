#!/usr/bin/env bash
# Offline build of stackbench: direct rustc against tools/offline/stub_*.rs
# for exactly the 15 crates the daemon links, then the bench binary.
# No cargo, no network, no Cargo.lock; everything lands in benchmark/out/.
#
# Usage: benchmark/build.sh          (run from anywhere; paths are resolved)
set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
REPO="$(cd "$HERE/.." && pwd)"
OUT="$HERE/out"
LIB="$OUT/rlibs"
RUSTC="${RUSTC:-rustc}"
COMMON=(--edition 2021 -O -L "dependency=$LIB")

if [ ! -f "$REPO/crates/serve/src/lib.rs" ] || [ ! -f "$REPO/tools/offline/stub_rand.rs" ]; then
  echo "build.sh: $REPO holds no workspace sources (crates/, tools/offline/) to build" >&2
  exit 3
fi
mkdir -p "$LIB"

# name:source:deps — dependency order. Keep in step with the Cargo.toml
# of each crate; a missing --extern fails loudly at compile time.
STUBS=(
  "rand:tools/offline/stub_rand.rs:"
  "parking_lot:tools/offline/stub_parking_lot.rs:"
  "crossbeam:tools/offline/stub_crossbeam.rs:"
  "serde:tools/offline/stub_serde.rs:serde_derive"
  "serde_json:tools/offline/stub_serde_json.rs:serde"
)
CRATES=(
  "apec_gf:crates/gf/src/lib.rs:"
  "apec_bitmatrix:crates/bitmatrix/src/lib.rs:apec_gf"
  "apec_ec:crates/ec/src/lib.rs:apec_gf crossbeam parking_lot rand"
  "apec_rs:crates/rs/src/lib.rs:apec_gf apec_ec parking_lot"
  "apec_lrc:crates/lrc/src/lib.rs:apec_gf apec_ec apec_rs"
  "apec_xor:crates/xor/src/lib.rs:apec_gf apec_ec apec_bitmatrix parking_lot"
  "approx_code:crates/core/src/lib.rs:apec_gf apec_bitmatrix apec_ec apec_rs apec_lrc apec_xor parking_lot"
  "apec_video:crates/video/src/lib.rs:rand"
  "apec_recovery:crates/recovery/src/lib.rs:apec_video"
  "apec_analysis:crates/analysis/src/lib.rs:approx_code apec_ec rand"
  "apec_cluster:crates/cluster/src/lib.rs:apec_ec apec_rs apec_lrc apec_xor approx_code parking_lot rand"
  "apec_tier:crates/tier/src/lib.rs:apec_ec apec_rs apec_lrc approx_code apec_video apec_recovery apec_analysis apec_cluster rand serde serde_json"
  "apec_store:crates/store/src/lib.rs:apec_ec approx_code"
  "apec_maint:crates/maint/src/lib.rs:apec_ec apec_store apec_tier approx_code"
  "apec_serve:crates/serve/src/lib.rs:apec_ec apec_store apec_tier apec_maint"
)
BENCH_DEPS="apec_gf apec_ec approx_code apec_video apec_recovery apec_store apec_maint apec_serve"

externs_for() {
  for d in $1; do
    if [ "$d" = serde_derive ]; then
      printf -- '--extern %s=%s ' "$d" "$LIB/libserde_derive.so"
    else
      printf -- '--extern %s=%s ' "$d" "$LIB/lib$d.rlib"
    fi
  done
}

"$RUSTC" --edition 2021 -O --crate-name serde_derive --crate-type proc-macro \
  "$REPO/tools/offline/stub_serde_derive.rs" -o "$LIB/libserde_derive.so" --cap-lints allow
for entry in "${STUBS[@]}" "${CRATES[@]}"; do
  IFS=: read -r name src deps <<<"$entry"
  # shellcheck disable=SC2046
  "$RUSTC" "${COMMON[@]}" --crate-name "$name" --crate-type rlib --cap-lints allow \
    $(externs_for "$deps") "$REPO/$src" -o "$LIB/lib$name.rlib"
done

# The binary is written beside its final name and renamed, so a run
# never executes a half-written file.
# shellcheck disable=SC2046
STACKBENCH_RUSTC="$("$RUSTC" --version)" "$RUSTC" "${COMMON[@]}" --crate-name stackbench --crate-type bin \
  $(externs_for "$BENCH_DEPS") "$HERE/src/main.rs" -o "$OUT/stackbench.tmp"
mv "$OUT/stackbench.tmp" "$OUT/stackbench"
echo "build.sh: built $OUT/stackbench (build=offline-stubs, $("$RUSTC" --version))" >&2

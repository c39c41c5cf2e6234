#!/usr/bin/env bash
# Out-of-core smoke: stream the ×100 synthetic corpus (101,700 reports)
# through `spec-trends ingest` with a spill budget and assert the process
# peak RSS (VmHWM) stayed under the bound the segmented store promises.
#
#   ./scripts/rss_smoke.sh [scale] [max_resident_mb] [rss_limit_mib]
#
# Defaults: scale 100, 8 MiB budget, 48 MiB RSS ceiling — the shape of the
# repository benchmark's ingest_x100 workload. The budget covers the
# segment stores (sealed segments, open tails, one spill buffer); the rest
# of the ceiling is the base corpus and the batch in flight (~23 MiB).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-100}"
MAX_RESIDENT_MB="${2:-8}"
RSS_LIMIT_MIB="${3:-48}"

cargo build --release -p spec-trends

out="$(./target/release/spec-trends ingest --scale "$SCALE" \
        --max-resident-mb "$MAX_RESIDENT_MB" | tee /dev/stderr)"

# The expected cascade counts scale exactly (1017/960/676 per replica).
echo "$out" | grep -q "raw submissions.*$((1017 * SCALE))" || {
  echo "rss_smoke: raw count is not 1017×${SCALE}" >&2
  exit 1
}

peak_kb="$(echo "$out" | sed -n 's/^peak RSS: \([0-9.]*\) MiB (VmHWM)$/\1/p')"
if [ -z "$peak_kb" ]; then
  echo "rss_smoke: no 'peak RSS' line in ingest output" >&2
  exit 1
fi
# peak_kb is actually MiB (one decimal); compare integer MiB.
peak_mib="${peak_kb%.*}"
if [ "$peak_mib" -gt "$RSS_LIMIT_MIB" ]; then
  echo "rss_smoke: peak RSS ${peak_kb} MiB exceeds the ${RSS_LIMIT_MIB} MiB ceiling" >&2
  exit 1
fi

echo "rss_smoke: OK (×${SCALE}, peak RSS ${peak_kb} MiB <= ${RSS_LIMIT_MIB} MiB)"

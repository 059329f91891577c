#!/usr/bin/env bash
# Repeatability of the benchmark on one commit.
#
#   benchmark/repeat.sh [N=5] [workload ...]
#
# Runs two interleaved sets (A, B) of N untraced runs per workload, each
# run with another --seed (set A and set B use the same seeds), and prints
# for every end-to-end metric and workload: both medians, both
# interquartile spreads as a share of the median, how far B's median is
# worse than A's, and pass/fail against the metric's bound in
# BENCHMARK.json. Run it from the repository root.
set -euo pipefail

N="${1:-5}"
shift || true
WORKLOADS=("$@")
if [ "${#WORKLOADS[@]}" -eq 0 ]; then
  WORKLOADS=(cold-corpus warm-replay mixed-ir train-ppo)
fi

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/autophase-benchmark"
OUT="$CARGO_TARGET_DIR/out/repeat.jsonl"
mkdir -p "$(dirname "$OUT")"
: > "$OUT"

for workload in "${WORKLOADS[@]}"; do
  for seed in $(seq 1 "$N"); do
    for set in A B; do
      echo "repeat: $workload seed $seed set $set" >&2
      # The last line of stdout is the result object.
      line="$("$BIN" run --workload "$workload" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)"
      echo "{\"workload\":\"$workload\",\"set\":\"$set\",\"seed\":$seed,\"result\":$line}" >> "$OUT"
    done
  done
done

python3 - "$OUT" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(sys.argv[1])]
ok = all(r["result"]["correct"] for r in runs)

def spread(vals):
    if len(vals) < 2:
        return 0.0
    q = statistics.quantiles(vals, n=4)
    return (q[2] - q[0]) / statistics.median(vals)

print(f"{'workload':12} {'metric':24} {'median A':>12} {'median B':>12} "
      f"{'IQR/med A':>10} {'IQR/med B':>10} {'B worse by':>11} {'bound':>6}  verdict")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        vals = {s: [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if r["workload"] == w["name"] and r["set"] == s] for s in "AB"}
        if not vals["A"]:
            continue
        med = {s: statistics.median(v) for s, v in vals.items()}
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (med["B"] - med["A"]) / med["A"]
        spreads = {s: spread(v) for s, v in vals.items()}
        # setup_s is gated on its median only; every other metric also on
        # its spread, as the driver does.
        fits = worse <= m["bound"] and (
            m["name"] == "setup_s" or max(spreads.values()) <= m["bound"])
        ok &= fits
        print(f"{w['name']:12} {m['name']:24} {med['A']:12.4f} {med['B']:12.4f} "
              f"{spreads['A']:10.4f} {spreads['B']:10.4f} {worse:+11.4f} {m['bound']:6.2f}  "
              f"{'pass' if fits else 'FAIL'}")
print("repeatability:", "pass" if ok else "FAIL")
sys.exit(0 if ok else 1)
PY

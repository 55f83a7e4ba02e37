#!/usr/bin/env bash
# Run the full benchmark several times and say how far the runs agree.
#
#   benchmark/repeat.sh [k] [same|vary]
#
# k     number of full sets (default 2); every set is all six workloads,
#       untraced and traced, each in a process of its own
# same  (default) every set uses seed 1: prints, per end-to-end metric and
#       workload, the median, the largest relative deviation from it and
#       whether that is within the metric's bound in BENCHMARK.json, and
#       checks that the counted metrics are identical in every set
# vary  set i uses seed i: prints the spread the driver accepts the
#       benchmark by — the distance between the first and third quartile
#       (statistics.quantiles, n=4) as a share of the median (needs k >= 2;
#       the driver uses 10). A spread above the bound means the metric
#       cannot be judged at that bound on this box today: UNRESOLVED
#
# Every run measures for run_seconds of BENCHMARK.json, the length the
# bounds were set at. The last column is the largest quartile spread of the
# calibration times inside one run of the workload: above a few percent the
# machine's speed moved while a run was measuring (scaling corrects for that,
# but re-measure before believing a deviation from such a set).
# Exit status is non-zero when a run fails, a bound is exceeded (same) or a
# spread is above its bound (vary), or counted metrics differ (same).
set -euo pipefail
cd "$(dirname "$0")/.."

k=${1:-2}
mode=${2:-same}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/autograph-benchmark
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

status=0
for i in $(seq 1 "$k"); do
    seed=1
    [ "$mode" = vary ] && seed=$i
    for w in $workloads; do
        for trace in 0 1; do
            echo "set $i/$k: $w seed $seed trace $trace" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                | tail -n 1 >"$out/$i-$w-$trace.json" || status=1
            cp "benchmark/out/result-$w-trace$trace.json" "$out/$i-$w-$trace.result.json" || status=1
        done
    done
done

python3 - "$out" "$k" "$mode" <<'EOF' || status=1
import json, statistics, sys

out, k, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
# metrics that are counts of a deterministic program: no run may differ
COUNTED = ["allocs_per_op", "peak_tensor_bytes", "artifact_bytes", "pylang.tokens", "graph.nodes_after_opt"]
bad = 0

def values(workload, trace, name):
    runs = [json.load(open(f"{out}/{i}-{workload}-{trace}.json")) for i in range(1, k + 1)]
    if not all(r["correct"] for r in runs):
        raise SystemExit(f"{workload}: a run reported failed operations")
    return [r["metrics"][name]["value"] for r in runs]

def calibration_spread(workload):
    """Largest within-run quartile spread of the calibration times, untraced runs."""
    worst = 0.0
    for i in range(1, k + 1):
        blocks = json.load(open(f"{out}/{i}-{workload}-0.result.json"))["run_blocks_raw_p50_cal_before_cal_after_us"]
        cals = [c for b in blocks for c in b[1:]]
        q = statistics.quantiles(cals, n=4)
        worst = max(worst, (q[2] - q[0]) / statistics.median(cals))
    return worst

print(f"{'workload':18} {'metric':18} {'median':>14} {'unit':6} {'dev' if mode == 'same' else 'iqr':>7} {'bound':>6} {'cal':>6}")
for w in (w["name"] for w in spec["workloads"]):
    cal = calibration_spread(w)
    for m in spec["end_to_end"]:
        v = values(w, 0, m["name"])
        med = statistics.median(v)
        if mode == "same":
            stat = max(abs(x - med) for x in v) / med
        else:
            q = statistics.quantiles(v, n=4)
            stat = (q[2] - q[0]) / med
        # set-up time is bounded between medians, not by its spread
        ok = stat <= m["bound"] or (mode == "vary" and m["name"] == "setup_s")
        bad += not ok
        verdict = "" if ok else "EXCEEDED" if mode == "same" else "UNRESOLVED"
        print(f"{w:18} {m['name']:18} {med:14.4f} {m['unit']:6} {stat:7.2%} {m['bound']:6.0%} {cal:6.1%} {verdict}")
    if mode == "same":
        e2e = {m["name"] for m in spec["end_to_end"]}
        for name in COUNTED:
            v = values(w, 0 if name in e2e else 1, name)
            if len(set(v)) != 1:
                bad += 1
                print(f"{w:18} {name:18} differs between runs: {v}")
if mode == "same" and not bad:
    print("counted metrics identical in every run: " + ", ".join(COUNTED))
sys.exit(1 if bad else 0)
EOF
exit $status

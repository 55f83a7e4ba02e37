#!/usr/bin/env bash
# The benchmark's own gate: build, unit tests, a one-second smoke of every
# workload untraced and traced, and a check that what the program prints is
# what BENCHMARK.json declares. Run from anywhere; touches only benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path $manifest
cargo test --release --offline --quiet --manifest-path $manifest
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/autograph-benchmark

python3 - "$bin" <<'EOF'
import json, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, sorted(spec)
assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"])
for w in spec["workloads"]:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run = subprocess.run(
            [sys.argv[1], "--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True)
        assert run.returncode == 0, (w["name"], trace, run.stderr)
        last = json.loads(run.stdout.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}, sorted(last)
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, last
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {n: v["unit"] for n, v in last["metrics"].items()}
        assert printed == declared, (w["name"], key, set(printed) ^ set(declared))
        if trace == 0:
            zero = [n for n, v in last["metrics"].items() if v["value"] == 0]
            assert not zero, (w["name"], "end-to-end metrics must never be 0", zero)
        else:
            spans = json.load(open(f"benchmark/out/trace-{w['name']}.json"))["spans"]
            assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans)
        print(f"ok {w['name']} trace={trace} attempted={last['attempted']}")
EOF
echo "benchmark ci: ok"

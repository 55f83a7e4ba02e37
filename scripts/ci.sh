#!/usr/bin/env bash
# Local CI: what must be green before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# error paths must not panic: the fault-injection crate, the worker
# pool, the serving layer (which must turn every failure into a
# structured HTTP response, never an abort), and the plan store (a
# corrupt cache artifact must fall back to cold staging, never abort)
# ban unwrap/expect crate-wide; the graph executors (vm.rs and the
# reference interpreter exec.rs) carry the same module-level #![deny],
# which the workspace clippy pass above enforces
echo "== cargo clippy (no unwrap/expect in fault, executor & serving paths)"
cargo clippy -p autograph-faults -p autograph-par -p autograph-serve -p autograph-planstore --no-deps -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "== cargo build --release"
cargo build --release --workspace

# one pass: the thread count only decides whether kernels split, and the
# suites that care pin 1 and 4 themselves (determinism, differential,
# vm_differential, chaos, report_integration, tensor's fused_parallel)
# and assert the outputs are bitwise identical
echo "== cargo test"
cargo test -q --workspace

# chaos suite: deterministic fault injection over the differential corpus,
# two seed families (each test internally covers the VM at threads 1
# and 4, the reference interpreter, and a second derived seed) — every
# injected fault must surface as a structured Err, and non-faulted
# reruns must stay bitwise identical
for seed in 7 982451653; do
    echo "== cargo test chaos (AUTOGRAPH_CHAOS_SEED=$seed)"
    AUTOGRAPH_CHAOS_SEED=$seed cargo test -q --test chaos
done

# generative differential fuzzing: a bounded, fully deterministic seed
# range (same seeds -> same programs, bitwise) through every oracle —
# eager vs graph at threads 1 and 4, Lantern where the op set allows,
# bitwise determinism, restaging, and finite-difference gradient checks.
# Any divergence minimizes and fails the build; triaged reproducers live
# in tests/regressions/ and are replayed below.
echo "== genprog fuzz (seeds 0..500, all oracles)"
cargo run --release -q -p genprog -- fuzz --seeds 0..500

# committed reproducers replay clean at threads 1 and 4 (the regressions
# test also runs as part of the workspace suites above; this replay keeps
# the fuzzer's own CLI path exercised)
echo "== genprog replay (tests/regressions/)"
cargo run --release -q -p genprog -- replay tests/regressions/*.pylite

# explain gate: the provenance layer must attribute >=95% of executed
# node self-time back to source lines on all three example programs (a
# control-flow-heavy loop, a matmul-heavy MLP, and a fusion-heavy
# elementwise chain whose kernels the bytecode VM fuses — attribution
# must survive the fused-kernel cost splits), and emit parseable DOT.
# autograph-explain exits nonzero below --min-coverage.
echo "== explain gate (annotated source + DOT, >=95% attribution)"
cargo run --release -q -p autograph-explain -- examples/explain/rnn_loop.pylite \
    --feed x=vec:0.5,1.5,-0.25,2.0 \
    --min-coverage 95 --dot target/explain_rnn_loop.dot >/dev/null
cargo run --release -q -p autograph-explain -- examples/explain/fused_elementwise.pylite \
    --feed x=vec:0.5,1.5,-0.25,2.0 \
    --min-coverage 95 --dot target/explain_fused_elementwise.dot >/dev/null
cargo run --release -q -p autograph-explain -- examples/explain/mlp_matmul.pylite \
    --feed x=mat:4x4:1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16 \
    --feed w1=mat:4x4:0.1,0.2,0.1,0.0,0.3,0.1,0.2,0.1,0.0,0.1,0.3,0.2,0.1,0.0,0.1,0.2 \
    --feed w2=mat:4x4:0.2,0.1,0.0,0.1,0.1,0.2,0.1,0.0,0.0,0.1,0.2,0.1,0.1,0.0,0.1,0.2 \
    --min-coverage 95 --dot target/explain_mlp_matmul.dot >/dev/null
for dot in target/explain_rnn_loop.dot target/explain_fused_elementwise.dot \
           target/explain_mlp_matmul.dot; do
    head -1 "$dot" | grep -q '^digraph' || { echo "FAIL: $dot is not a digraph"; exit 1; }
done

echo "== bench artifacts (BENCH_table1.json + BENCH_report.json)"
cargo run --release -q -p autograph-bench --bin table1 -- \
    --runs 5 \
    --json-table BENCH_table1.json \
    --report BENCH_report.json

# Fusion gate: fused vs op-by-op kernel time on the RNN cell's tanh
# chain and the SGD update, measured in back-to-back pairs in one
# process — a same-run ratio, so it holds on a noisy shared box. The
# tanh chain's two sides are the same libm calls and differ by ~3 %,
# less than the noise of one pair, so the bin exits nonzero only when
# the fused side is the slower one in at least three quarters of the
# pairs: fusing may never lose to not fusing.
echo "== fusion gate (ablation fusion: fused vs op-by-op, paired)"
cargo run --release -q -p autograph-bench --bin ablation -- fusion --runs 15

# Stage bench: cold staging vs warm plan-cache restore on a fresh
# on-disk store. The bin itself is a gate: it exits nonzero unless the
# warm path skipped the staging pipeline entirely (asserted via obs
# spans), reproduced the cold results bitwise, and came in at least 5x
# faster; BENCH_stage.json additionally diffs against the committed
# baseline below.
echo "== stage bench (plan-cache cold vs warm -> BENCH_stage.json)"
rm -rf target/plan-cache-bench BENCH_stage.json
cargo run --release -q -p autograph-bench --bin stage_bench -- \
    --runs 5 --cache-dir target/plan-cache-bench --json BENCH_stage.json

# Serving bench: boot autograph-serve on an ephemeral port (the
# --addr-file handshake avoids port races), burst it with the load
# generator at 1 and 4 client threads into one BENCH_serve.json, then
# SIGTERM it — the server must drain cleanly (exit 0) or the gate fails.
# The server boots with trace sampling OFF (the default), so the
# throughput gate below also certifies the telemetry plane's
# sampling-off overhead against the pre-telemetry baselines. Each burst
# runs with --scrape-metrics: the loadgen scrapes GET /metrics before
# and after, validates the exposition with the strict Prometheus-text
# parser, asserts every required family is present and that counters
# never go backwards, and exits nonzero (failing CI) otherwise.
echo "== serve bench (autograph-serve + autograph-loadgen -> BENCH_serve.json)"
rm -f target/serve.addr BENCH_serve.json
target/release/autograph-serve --program examples/serve/mlp.pylite \
    --addr-file target/serve.addr --workers 2 --queue-depth 64 \
    --deadline-ms 5000 --batch-fns score --max-batch 8 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
target/release/autograph-loadgen --addr-file target/serve.addr \
    --function score --body '{"args":[0.5]}' \
    --threads 1 --requests 300 --deadline-ms 5000 \
    --scrape-metrics \
    --json BENCH_serve.json --key threads_1
target/release/autograph-loadgen --addr-file target/serve.addr \
    --function score --body '{"args":[0.5]}' \
    --threads 4 --requests 300 --deadline-ms 5000 \
    --scrape-metrics \
    --json BENCH_serve.json --key threads_4
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: autograph-serve did not drain cleanly"; exit 1; }
trap - EXIT

# Perf-regression gate: diff fresh bench results against the committed
# baselines. Tolerances are deliberately WIDE (rel 60%, and wider for the
# most timing-sensitive metrics): CI runs on shared, often single-CPU
# machines where run-to-run noise of 2x is routine. The gate exists to
# catch order-of-magnitude regressions and structural breaks (metric
# disappeared, determinism bit flipped, speedup collapsed), not 10%
# drifts. The serve latency tolerances are the widest: 300% relative on
# p50/p99 (up to 4x the baseline) plus a 5ms absolute floor — baseline
# percentiles are sub-millisecond, where a single scheduler hiccup on a
# busy 1-CPU runner is a four-digit relative "regression"; `all_ok`
# (every request answered, zero transport errors) and throughput_rps
# are the load-bearing serve gates. Regenerate baselines on a quiet
# machine with:
#   scripts/ci.sh --update-baselines   (or copy BENCH_*.json to baselines/)
GATED_BASELINES=(BENCH_table1.json BENCH_report.json BENCH_serve.json BENCH_stage.json)
if [[ "${1:-}" == "--update-baselines" ]]; then
    echo "== updating committed baselines (baselines/)"
    mkdir -p baselines
    for b in "${GATED_BASELINES[@]}"; do
        cp "$b" "baselines/$b"
    done
else
    # a gate that silently skips because its baseline vanished is no
    # gate at all: missing baselines fail loudly
    for b in "${GATED_BASELINES[@]}"; do
        [[ -f "baselines/$b" ]] || {
            echo "FAIL: gated baseline baselines/$b is missing —"
            echo "      regenerate with scripts/ci.sh --update-baselines on a quiet machine"
            exit 1
        }
    done
    echo "== perf-regression gate (autograph-report diff vs baselines/)"
    cargo run --release -q -p autograph-report --bin autograph-report -- \
        diff baselines/BENCH_table1.json BENCH_table1.json --tol-pct 60
    cargo run --release -q -p autograph-report --bin autograph-report -- \
        diff baselines/BENCH_report.json BENCH_report.json --tol-pct 60
    cargo run --release -q -p autograph-report --bin autograph-report -- \
        diff baselines/BENCH_serve.json BENCH_serve.json \
        --tol-pct 75 --abs 5 --tol p50_ms=300 --tol p99_ms=300 --tol mean_ms=300 \
        --tol throughput_rps=75
    # the load-bearing stage gates are the booleans (staging skipped,
    # bitwise identity) and warm_speedup; raw ms are noise-prone
    cargo run --release -q -p autograph-report --bin autograph-report -- \
        diff baselines/BENCH_stage.json BENCH_stage.json \
        --tol-pct 75 --abs 5 --tol warm_speedup=80 --tol cold_ms=300 --tol warm_ms=300
fi

echo "CI OK"

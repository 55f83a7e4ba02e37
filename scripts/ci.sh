#!/usr/bin/env bash
# Local CI: what must be green before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# error paths must not panic: the fault-injection crate, the worker
# pool, the recorders (reached from Span::drop, possibly mid-unwind,
# where a second panic aborts), the serving layer (which must turn every
# failure into a structured HTTP response, never an abort), the plan
# store (a corrupt cache artifact must fall back to cold staging, never
# abort), the PyLite lexer and parser, the dataflow analyses and
# conversion passes (which see every user program: bad source is a
# ParseError), the runtime (where a malformed call is a RuntimeError), the
# tensor crate (every backend's kernels, where bad operands are a
# TensorError) and the eager and Lantern backends (a failed kernel or
# gradient rule is an EagerError or a LanternError) ban unwrap/expect
# crate-wide; in the graph crate the executors (vm.rs and the reference
# interpreter exec.rs), their kernel table (ops.rs), the compiler
# (compile.rs) and the plan decoder (artifact.rs) carry the same
# module-level #![deny], which the workspace clippy pass above enforces.
echo "== cargo clippy (no unwrap/expect in fault, executor, frontend & serving paths)"
cargo clippy -p autograph-faults -p autograph-par -p autograph-obs -p autograph-serve \
    -p autograph-planstore -p autograph-pylang -p autograph-analysis \
    -p autograph-transforms -p autograph-runtime -p autograph-tensor -p autograph-lantern \
    -p autograph-eager \
    --no-deps -- \
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

# Table 3 smoke: the one table bin that drives both users of the
# autodiff tape (eager TreeLSTM training and Lantern's Engine::grad)
# end to end. It gates nothing on speed: any tape error panics the bin
# (`.expect("step")`) and fails the build by its exit code.
echo "== table3 smoke (eager and Lantern tapes, end to end)"
cargo run --release -q -p autograph-bench --bin table3 -- --runs 2

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

# Perf section: same-run ratios and must-hold booleans only, each bin
# gating itself by exit code. Absolute numbers are the repository
# benchmark's job (BENCHMARK.json; its structural check runs last).

# Fusion gate: fused vs op-by-op kernel time on the RNN cell's tanh
# chain and the SGD update, measured in back-to-back pairs in one
# process. The tanh chain's two sides are the same libm calls and differ
# by ~3 %, less than the noise of one pair, so the bin exits nonzero only
# when the fused side is the slower one in at least three quarters of the
# pairs: fusing may never lose to not fusing.
echo "== fusion gate (ablation fusion: fused vs op-by-op, paired)"
cargo run --release -q -p autograph-bench --bin ablation -- fusion --runs 15

# Matmul gate, paired the same way and failing on the same three-quarters
# rule: the tiled kernel against a copy of the i-k-j loop it replaced
# ([64,784]x[784,10], [16,128]x[128,128], [1,16]x[16,8]) and the
# transposed-operand entry points against transpose-then-multiply
# ([64,784]^T x [64,10], [64,10] x [784,10]^T, [1,8] x [16,8]^T), every
# pair of sides also asserted bit-equal. No benchmark workload is
# dominated by the m = 1 or B-transposed shapes; this is what keeps them
# from regressing.
echo "== matmul gate (ablation matmul: tiled vs i-k-j, in place vs transposed copy, paired)"
cargo run --release -q -p autograph-bench --bin ablation -- matmul --runs 15

# Stage bench: cold staging vs warm plan-cache restore on a fresh
# on-disk store. Exits nonzero unless the warm path skipped the staging
# pipeline entirely (asserted via obs spans), reproduced the cold results
# bitwise, and came in at least 2x faster.
echo "== stage bench (plan-cache cold vs warm)"
rm -rf target/plan-cache-bench
cargo run --release -q -p autograph-bench --bin stage_bench -- \
    --runs 5 --cache-dir target/plan-cache-bench

# Serving check: boot autograph-serve on an ephemeral port (the
# --addr-file handshake avoids port races), burst it with the load
# generator at 1 and 4 client threads, then SIGTERM it — the server must
# drain cleanly (exit 0). The loadgen exits nonzero on any 5xx, transport
# error or request-id mismatch; with --scrape-metrics it also scrapes
# GET /metrics before and after, validates the exposition with the strict
# Prometheus-text parser, and asserts every required family is present
# and that counters never go backwards.
echo "== serve check (autograph-serve + autograph-loadgen)"
rm -f target/serve.addr
target/release/autograph-serve --program examples/serve/mlp.pylite \
    --addr-file target/serve.addr --workers 2 --queue-depth 64 \
    --deadline-ms 5000 --batch-fns score --max-batch 8 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for threads in 1 4; do
    target/release/autograph-loadgen --addr-file target/serve.addr \
        --function score --body '{"args":[0.5]}' \
        --threads "$threads" --requests 300 --deadline-ms 5000 \
        --scrape-metrics
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: autograph-serve did not drain cleanly"; exit 1; }
trap - EXIT

# The repository benchmark's own gate: builds it, runs its unit tests,
# smokes all six workloads for one second each (every output correct, no
# failed operation) and checks that the metric names it prints are the
# ones BENCHMARK.json declares — a metric cannot silently disappear.
echo "== repository benchmark (benchmark/ci.sh)"
benchmark/ci.sh

echo "CI OK"

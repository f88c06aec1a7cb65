#!/usr/bin/env bash
# Hermetic CI gate for the protoacc workspace. No network access: every
# dependency is an in-workspace path crate, so `--offline` always works.
#
# Steps:
#   1. formatting           cargo fmt --check
#   2. lints                cargo clippy --all-targets -- -D warnings
#   3. tier-1 tests         cargo build --release && cargo test
#   4. full workspace tests cargo test --workspace
#   5. schema lint gate     protoacc-lint --format json protos/
#                           (fails on any deny-level diagnostic)
#   5b. descriptor ingestion protoacc-lint --descriptor-set protos/chain
#                           (binary FileDescriptorSet fixtures decoded by the
#                           in-tree fdset decoder; emits target/BENCH_lint.json
#                           with per-input wall time and finding counts), plus
#                           the text-vs-binary differential gate and the
#                           decoder robustness suite (truncation at every
#                           offset, seeded wire faults, descriptor depth bomb)
#   5c. translation validation protoacc-lint --verify --fail-on deny
#                           (PA016-PA020: the verifier re-proves slot-overlap
#                           freedom, dispatch totality, entry consistency,
#                           hw/sw ADT equivalence, and table memory bounds
#                           over the compiled artifacts of protos/ + chain),
#                           then bench_verify runs the seeded table/ADT
#                           mutation campaign (>=99% detection, clean
#                           schemas silent; emits target/BENCH_verify.json)
#   6. serve smoke+sanitize serve_tail_latency --smoke --sanitize
#                           (fails on queue-invariant violations,
#                           nondeterministic multi-instance replay, or any
#                           PA007/PA008/PA009 sanitizer finding: envelope
#                           violations, lifecycle reordering, arena aliasing)
#   7. fault smoke          serve_tail_latency --smoke --faults
#                           (every fault class — instance crash/hang/slow,
#                           memory ECC/stall, wire corruption — must serve
#                           100% of admitted load, deterministically, with
#                           watchdogs derived from the absint envelopes)
#   8. corruption diff      10k seeded corrupted inputs: accelerator and
#                           CPU reference must agree on every accept/reject
#                           verdict and error class
#   8b. fast-path gate      varint boundary sweep (scalar/SWAR/hw three-way),
#                           fastpath-vs-CPU differential suite, and
#                           bench_codec --smoke (fails on any byte or verdict
#                           divergence; emits target/BENCH_codec.json); then
#                           the perfbench package's own tests, a 1-second
#                           --trace 0 run of host-small and host-blob, and a
#                           1-second --trace 1 run of host-small (the traced
#                           host path the per-layer numbers come from); each
#                           run's byte-identity gate over the fixed host
#                           populations exits nonzero on any divergence
#   9. envelope soundness   cross-validation that measured deser/ser cycles
#                           stay inside the absint [lower, upper] envelopes
#  10. trace round trip     serve_tail_latency --smoke --trace emits a
#                           Chrome-trace JSON (tracing proven to be a pure
#                           observer, accounting audit exact, trace-derived
#                           sanitizer inputs match the live cluster), then
#                           profile_report --reparse re-parses the file and
#                           re-runs the accounting audit offline
#  11. rpc serving gate    serve_rpc --smoke sweeps offered load through 2x
#                           saturation under open- and closed-loop traffic
#                           (fails on an accounting leak — every offered
#                           request must land in exactly one of ok/fallback/
#                           rejected/failed/shed —, a queue-overflow drop,
#                           nondeterministic replay, goodput at 2x below 80%
#                           of peak, or an inert admission controller; emits
#                           target/BENCH_rpc.json), plus the frame-corruption
#                           corpus and the loop-discipline equivalence test
#  12. sharded engine gate  serve_tail_latency --smoke --shards 4 must print
#                           a fingerprint byte-identical to --shards 1 (the
#                           sequential reference); each invocation also
#                           self-checks 1-vs-N workers and audits the
#                           stitched multi-shard trace log. Then the
#                           equivalence suite (tests/serve_sharded.rs:
#                           clean / faulted / shed-heavy workloads at
#                           workers 1/2/4/8) and a short --bench-shards
#                           scaling run emitting target/BENCH_shard.json
#                           (fails if the sharded engine regresses below
#                           1.0x at the hardware's parallel width)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier-1: release build + root test suite =="
cargo build --offline --release
cargo test --offline -q

echo "== full workspace tests =="
cargo test --offline --workspace -q

echo "== protoacc-lint gate over protos/ =="
# Deny-level diagnostics exit 1 and fail CI; the JSON report is printed for
# the build log either way.
cargo run --offline -q -p protoacc-lint --bin protoacc-lint -- \
    --format json --fail-on deny protos/

echo "== descriptor-set ingestion gate (binary fixtures, bench, differential) =="
# The same gate over the binary descriptor-set corpus: schemas arrive through
# the runtime fdset decoder instead of the .proto parser. BENCH_lint.json
# records lint+absint wall time and finding counts per input.
cargo run --offline -q -p protoacc-lint --bin protoacc-lint -- \
    --format json --fail-on deny \
    --descriptor-set protos/chain --bench-out target/BENCH_lint.json
# Text and binary front-ends must produce byte-identical reports, the corpus
# must trip each of PA011-PA015, and the decoder must be total under
# truncation, seeded wire faults, and descriptor-shaped depth bombs.
cargo test --offline -q --test descriptor_ingestion --test descriptor_robustness

echo "== translation validation (PA016-PA020 verifier + mutation campaign) =="
# The verifier treats MessageLayouts / CompiledSchema / the hardware ADT
# image as untrusted compiler output and re-proves PA016-PA020 from the
# schema alone; any violation on the in-tree corpus denies.
cargo run --offline -q -p protoacc-lint --bin protoacc-lint -- \
    --format json --fail-on deny --verify \
    protos/ --descriptor-set protos/chain
# Mutation-proven detection: seeded corruptions of the compiled dispatch
# tables and ADT image must be flagged at >=99% while every clean workload
# verifies silently. BENCH_verify.json records per-workload wall time and
# the per-mutation detection tallies.
cargo run --offline -q --release -p protoacc-bench --bin bench_verify -- \
    --smoke --out target/BENCH_verify.json
cargo test --offline -q --test verify_mutation

echo "== serving-model smoke + sanitizer (invariants, determinism, PA007-PA009) =="
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- --smoke --sanitize

echo "== graceful-degradation smoke (fault classes x serve cluster) =="
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- --smoke --faults

echo "== corruption differential (accel vs CPU verdict parity) =="
cargo test --offline -q --test corruption_differential --test fault_matrix

echo "== fast-path codec gate (varint boundary, differential, smoke bench) =="
# Three-way varint end-of-buffer agreement (scalar / SWAR / hardware model),
# then the fastpath-vs-CPU differential: byte-identical encodes, identical
# verdicts under truncation and seeded mutation, over hyperbench and both
# protos/ ingestion paths.
cargo test --offline -q --test varint_boundary --test fastpath_differential
# Smoke bench doubles as a divergence gate: exits nonzero on any verdict or
# byte divergence and emits target/BENCH_codec.json next to BENCH_lint.json.
cargo run --offline -q --release -p protoacc-bench --bin bench_codec -- \
    --smoke --out target/BENCH_codec.json
# The benchmark's host correctness gate: every request of its fixed
# populations must encode byte-identically to reference::encode, round-trip
# through encode_decoded, and frame cleanly, or the run exits 1.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
for workload in host-small host-blob; do
    cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done
cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
    --workload host-small --seed 1 --seconds 1 --trace 1 > /dev/null

echo "== envelope soundness cross-validation =="
cargo test --offline -q --test envelope_soundness --test serve_sanitizer

echo "== trace round trip (emit, re-parse, accounting audit) =="
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --smoke --trace target/ci_trace.json
cargo run --offline -q --release -p protoacc-bench --bin profile_report -- \
    --reparse target/ci_trace.json
cargo test --offline -q --test trace_accounting

echo "== rpc serving gate (framing, admission shedding, loop disciplines) =="
cargo run --offline -q --release -p protoacc-bench --bin serve_rpc -- \
    --smoke --shards 2 --out target/BENCH_rpc.json
cargo test --offline -q --test rpc_frames --test rpc_loop_equivalence

echo "== sharded engine gate (parallel == sequential, bit-for-bit) =="
# Two separate invocations at different worker counts must print the same
# merged fingerprint; each one also self-checks its N-worker run against
# its own 1-worker reference and audits the stitched multi-shard trace.
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --smoke --shards 4 | tee target/shard_gate_4.txt
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --shards 1 | tee target/shard_gate_1.txt
# The diff below passes when neither file holds the line, so first require
# exactly one fingerprint line in each.
for n in 4 1; do
    lines=$(grep -c '^sharded fingerprint:' "target/shard_gate_$n.txt" || true)
    if [ "$lines" != 1 ]; then
        echo "shard gate: target/shard_gate_$n.txt holds $lines fingerprint line(s), want 1" >&2
        exit 1
    fi
done
diff <(grep '^sharded fingerprint:' target/shard_gate_4.txt) \
     <(grep '^sharded fingerprint:' target/shard_gate_1.txt)
cargo test --offline -q --release --test serve_sharded
# Short scaling run (the repo-root BENCH_shard.json records the full
# 10^6-command sweep); fails on nondeterminism across worker counts or a
# speedup regression below 1.0x at the hardware's parallel width.
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --bench-shards target/BENCH_shard.json --commands 60000

echo "CI OK"

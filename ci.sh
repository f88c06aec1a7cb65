#!/usr/bin/env bash
# Hermetic CI gate for the protoacc workspace. No network access: every
# dependency is an in-workspace path crate, so `--offline` always works.
#
# Steps:
#   1. formatting           cargo fmt --check
#   2. lints                cargo clippy --all-targets -- -D warnings
#   3. tier-1 tests         cargo build --release && cargo test
#   3b. paper studies       run_ae_full runs every paper table, figure,
#                           ablation, extension and serving study in
#                           process and writes each into an emptied
#                           artifacts/ (fails if any study panics: the
#                           serving scaling sweep on a queue-invariant
#                           violation, the fault sweep on a command that
#                           fails outright, a shed request or an admitted
#                           request left unserved, the RPC overload sweep
#                           on an accounting leak, a queue-overflow drop,
#                           goodput at 2x below 80% of peak or an open
#                           loop that sheds nothing at 2x), then fails if
#                           git status shows a file there changed, new or
#                           no longer written
#   3c. root examples       runs every examples/*.rs once in release; each
#                           asserts what it prints (lint_corpus: simulated
#                           cycles inside the static envelope, no spill)
#   4. full workspace tests cargo test --workspace (includes the serving
#                           model's replay determinism and accounting and
#                           the RPC sweep's replay,
#                           crates/bench/tests/serve_determinism.rs)
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
#   6. corruption diff      10k seeded corrupted inputs: accelerator and
#                           CPU reference must agree on every accept/reject
#                           verdict and error class
#   6b. fast-path gate      varint boundary sweep (scalar/SWAR/hw three-way),
#                           fastpath-vs-CPU differential suite, and
#                           bench_codec --smoke (fails on any byte or verdict
#                           divergence; emits target/BENCH_codec.json); then
#                           the perfbench package's own tests, a 1-second
#                           --trace 0 run of host-small, host-blob,
#                           sim-rpc-2x (the one workload where RpcServer
#                           drives FrameDecoder) and sim-sharded (the one
#                           workload on LLC-sliced memory, whose 2-worker
#                           run must match its 1-worker run), and a
#                           1-second --trace 1 run of host-small (the traced
#                           host path the per-layer numbers come from); each
#                           run's correctness gate (host byte identity, RPC
#                           framing and accounting, sharded equivalence)
#                           exits nonzero on any divergence
#   7. envelope soundness   cross-validation that measured deser/ser cycles
#                           stay inside the absint [lower, upper] envelopes,
#                           and the serve sanitizer (PA007/PA008/PA009:
#                           envelope violations, lifecycle reordering, arena
#                           aliasing) over the serving fleet mix at 1/2/4
#                           instances
#   8. trace round trip     serve_tail_latency --trace emits a Chrome-trace
#                           JSON, then profile_report --reparse re-parses
#                           the file and re-runs the accounting audit
#                           offline; tests/trace_accounting.rs checks that
#                           the same run's tracing is a pure observer, its
#                           audit is exact, its records rebuild from the
#                           trace, its mem_access events (the sanitizer's
#                           only footprint source) fold to every instance's
#                           live memory counters, and it sanitizes clean
#   9. rpc framing gate     the frame-corruption corpus and the
#                           loop-discipline equivalence test (the overload
#                           sweep itself is the serve_rpc study of step 3b)
#  10. sharded engine gate  the equivalence suite (tests/serve_sharded.rs:
#                           clean / faulted / shed-heavy workloads at
#                           workers 1/2/4/8 must equal the sequential
#                           1-worker run bit for bit, and each stitched
#                           multi-shard trace must pass the accounting
#                           audit) and a short --bench-shards scaling run
#                           emitting target/BENCH_shard.json (fails if the
#                           sharded engine regresses below 1.0x at the
#                           hardware's parallel width)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier-1: release build + root test suite =="
cargo build --offline --release
cargo test --offline -q

echo "== paper studies (run_ae_full) =="
# The committed artifacts are goldens: a change that moves a figure must
# re-commit the file and say why in EXPERIMENTS.md. Regenerating into an
# emptied directory makes a golden that no study writes any more show as
# deleted, and a new study's output as untracked.
if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "ci.sh: comparing artifacts/ with its goldens needs a git checkout" >&2
    exit 1
fi
rm -rf artifacts
cargo run --offline -q --release -p protoacc-bench --bin run_ae_full
artifact_changes=$(git status --porcelain -- artifacts/)
if [ -n "$artifact_changes" ]; then
    echo "artifacts/ differs from the committed goldens:" >&2
    echo "$artifact_changes" >&2
    git --no-pager diff --stat -- artifacts/ >&2
    exit 1
fi

echo "== root examples (each runs once; its asserts gate) =="
for example in examples/*.rs; do
    cargo run --offline -q --release --example "$(basename "$example" .rs)" > /dev/null
done

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
# through encode_decoded, and frame cleanly, or the run exits 1. sim-rpc-2x
# is the one workload where RpcServer drives FrameDecoder over connection
# byte streams; it exits 1 on any frame or header error, a request dropped,
# rejected or failed on clean traffic, or an accounting mismatch.
# sim-sharded runs its cells on LLC-sliced memory over 2 workers and exits 1
# unless that run matches the same cells run on 1 worker.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
for workload in host-small host-blob sim-rpc-2x sim-sharded; do
    cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done
cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
    --workload host-small --seed 1 --seconds 1 --trace 1 > /dev/null

echo "== envelope soundness cross-validation =="
cargo test --offline -q --test envelope_soundness --test serve_sanitizer

echo "== trace round trip (emit, re-parse, accounting audit) =="
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --trace target/ci_trace.json
cargo run --offline -q --release -p protoacc-bench --bin profile_report -- \
    --reparse target/ci_trace.json
cargo test --offline -q --test trace_accounting

echo "== rpc framing gate (frame corruption, loop disciplines) =="
cargo test --offline -q --test rpc_frames --test rpc_loop_equivalence

echo "== sharded engine gate (parallel == sequential, bit-for-bit) =="
cargo test --offline -q --release --test serve_sharded
# Short scaling run (the repo-root BENCH_shard.json records the full
# 10^6-command sweep); fails on nondeterminism across worker counts or a
# speedup regression below 1.0x at the hardware's parallel width.
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --bench-shards target/BENCH_shard.json --commands 60000

echo "CI OK"

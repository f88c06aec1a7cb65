#!/usr/bin/env bash
# Hermetic CI gate for the protoacc workspace. No network access: every
# dependency is an in-workspace path crate, so `--offline` always works.
#
# Steps:
#   1. formatting           cargo fmt --check
#   2. lints                cargo clippy --all-targets -- -D warnings
#   2b. docs                cargo doc --workspace --no-deps with rustdoc
#                           warnings denied (broken or ambiguous intra-doc
#                           links, public docs linking private items)
#   3. tier-1 tests         cargo build --release && cargo test: the root
#                           package's unit and doc tests and every
#                           tests/*.rs suite, each run once here and only
#                           here. Among them: descriptor ingestion and
#                           decoder robustness (truncation at every offset,
#                           seeded wire faults, descriptor depth bomb), the
#                           table/ADT mutation campaign (verify_mutation),
#                           the differential oracle's four-way judgements
#                           (accelerator, CPU and fast-path verdicts on two
#                           10k corruption sweeps, byte-identical re-encodes,
#                           trees and bytes against the reference:
#                           corruption_differential, fastpath_differential,
#                           accel_differential, random_accel,
#                           cross_system), the fault
#                           matrix, the varint boundary sweep, envelope
#                           soundness and the serve sanitizer
#                           (PA007/PA008/PA009 over the fleet mix
#                           at 1/2/4 instances), trace accounting (tracing
#                           is a pure observer, the audit is exact, records
#                           rebuild from the trace, mem_access events fold
#                           to every instance's live memory counters), the
#                           RPC frame-corruption corpus and loop-discipline
#                           equivalence, and the sharded engine's
#                           equivalence suite (workers 1/2/4/8 equal the
#                           sequential run bit for bit)
#   3b. paper studies       run_ae_full runs every paper table, figure,
#                           ablation, extension and serving study in
#                           process and writes each into an emptied
#                           artifacts/ (fails if any study panics: the
#                           serving scaling sweep on a queue-invariant
#                           violation, the fault sweep on a command that
#                           fails outright, a shed request or an admitted
#                           request left unserved, the RPC overload sweep
#                           on an accounting leak, any drop, goodput at 2x
#                           below 80% of peak or an open loop that sheds
#                           nothing at 2x), then fails if git status shows
#                           a file there changed, new or no longer written
#   3c. root examples       runs every examples/*.rs once in release; each
#                           asserts what it prints (lint_corpus: simulated
#                           cycles inside the static envelope, no spill)
#   4. crate tests          cargo test --workspace --exclude protoacc-suite:
#                           every member crate's own tests (includes the
#                           serving model's replay determinism and
#                           accounting and the RPC sweep's replay,
#                           crates/bench/tests/serve_determinism.rs); the
#                           root package ran in step 3
#   5. schema lint gate     protoacc-lint --format json protos/
#                           (fails on any deny-level diagnostic)
#   5b. descriptor ingestion protoacc-lint --descriptor-set protos/chain
#                           (binary FileDescriptorSet fixtures decoded by the
#                           in-tree fdset decoder; emits target/BENCH_lint.json
#                           with per-input wall time and finding counts)
#   5c. translation validation protoacc-lint --verify --fail-on deny
#                           (PA016-PA020: the verifier re-proves slot-overlap
#                           freedom, dispatch totality, entry consistency,
#                           hw/sw ADT equivalence, and table memory bounds
#                           over the compiled artifacts of protos/ + chain),
#                           then bench_verify runs the seeded table/ADT
#                           mutation campaign (>=99% detection, clean
#                           schemas silent; emits target/BENCH_verify.json)
#   6. fast-path gate       bench_codec --smoke, run from crates/bench so
#                           its corpus must load by the crate's own anchor
#                           rather than the working directory (fails on any
#                           divergence the differential oracle reports,
#                           including the re-encodes of every truncated or
#                           mutated input all three decoders accept, and
#                           panics on a missing chain fixture; emits
#                           target/BENCH_codec.json); then
#                           the perfbench package's own tests, a 1-second
#                           --trace 0 run of host-small, host-blob,
#                           sim-rpc-2x (the one workload where RpcServer
#                           drives FrameDecoder) and sim-sharded (the one
#                           workload on LLC-sliced memory, whose 2-worker
#                           run must match its 1-worker run), and a
#                           1-second --trace 1 run of host-small, of
#                           host-blob (the traced host paths the per-layer
#                           numbers come from, host-blob's through the
#                           encoder's long payloads) and of sim-rpc-2x
#                           (the traced RpcServer path: tracing must not
#                           change its fingerprint, and its trace must pass
#                           the audit); each
#                           run's correctness gate (host byte identity, RPC
#                           framing and accounting, sharded equivalence)
#                           exits nonzero on any divergence
#   7. trace round trip     serve_tail_latency --trace emits a Chrome-trace
#                           JSON, then profile_report --reparse re-parses
#                           the file and re-runs the accounting audit
#                           offline; profile_report --smoke traces
#                           standalone accelerators through their memory
#                           system and fails on any audit discrepancy
#   8. sharded scaling run  a short --bench-shards run emitting
#                           target/BENCH_shard.json (fails if the sharded
#                           engine regresses below 1.0x at the hardware's
#                           parallel width)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

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

echo "== member crate tests (the root package ran in tier-1) =="
cargo test --offline --workspace --exclude protoacc-suite -q

echo "== protoacc-lint gate over protos/ =="
# Deny-level diagnostics exit 1 and fail CI; the JSON report is printed for
# the build log either way.
cargo run --offline -q -p protoacc-lint --bin protoacc-lint -- \
    --format json --fail-on deny protos/

echo "== descriptor-set ingestion gate (binary fixtures, bench) =="
# The same gate over the binary descriptor-set corpus: schemas arrive through
# the runtime fdset decoder instead of the .proto parser. BENCH_lint.json
# records lint+absint wall time and finding counts per input.
cargo run --offline -q -p protoacc-lint --bin protoacc-lint -- \
    --format json --fail-on deny \
    --descriptor-set protos/chain --bench-out target/BENCH_lint.json

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

echo "== fast-path codec gate (smoke bench, perfbench) =="
# Smoke bench doubles as a divergence gate: exits nonzero on any divergence
# the differential oracle reports (re-encodes of accepted faulty inputs
# included) and emits target/BENCH_codec.json next to BENCH_lint.json. It
# runs from crates/bench so a corpus read relative to the working directory
# would fail here.
(cd crates/bench && cargo run --offline -q --release -p protoacc-bench --bin bench_codec -- \
    --smoke --out ../../target/BENCH_codec.json)
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
for workload in host-small host-blob sim-rpc-2x; do
    cargo run --offline -q --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 > /dev/null
done

echo "== trace round trip (emit, re-parse, accounting audit) =="
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --trace target/ci_trace.json
cargo run --offline -q --release -p protoacc-bench --bin profile_report -- \
    --reparse target/ci_trace.json
cargo run --offline -q --release -p protoacc-bench --bin profile_report -- \
    --smoke

echo "== sharded engine scaling run =="
# Short scaling run (the repo-root BENCH_shard.json records the full
# 10^6-command sweep); fails on nondeterminism across worker counts or a
# speedup regression below 1.0x at the hardware's parallel width.
cargo run --offline -q --release -p protoacc-bench --bin serve_tail_latency -- \
    --bench-shards target/BENCH_shard.json --commands 60000

echo "CI OK"

//! Determinism self-checks of the benchmark's workloads, at small sizes.
//!
//! Run with `cargo test --offline --manifest-path perfbench/Cargo.toml`.

use perfbench::host::{self, HostSetup};
use perfbench::sim::{run_rpc, run_sharded, RpcSetup, ShardSetup};
use perfbench::{percentile, Workload};

#[test]
fn same_seed_gives_bit_identical_sim_cycle_metrics() {
    let a = run_rpc(&RpcSetup::build(7, 400), false, false)
        .expect("rpc run")
        .0;
    let b = run_rpc(&RpcSetup::build(7, 400), false, false)
        .expect("rpc run")
        .0;
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.latency_from_due, b.latency_from_due);
    assert_eq!(a.in_budget, b.in_budget);
    assert_eq!(a.gbits.to_bits(), b.gbits.to_bits());

    let a = run_sharded(&ShardSetup::build(7, 120), 1, false);
    let b = run_sharded(&ShardSetup::build(7, 120), 1, false);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.latency_from_due, b.latency_from_due);
    assert_eq!(
        percentile(&a.latency_from_due, 99.0),
        percentile(&b.latency_from_due, 99.0)
    );
    assert_eq!(a.gbits.to_bits(), b.gbits.to_bits());
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    let a = HostSetup::build(Workload::HostSmall, 1, 8, 64);
    let b = HostSetup::build(Workload::HostSmall, 2, 8, 64);
    assert_ne!(a.sequence, b.sequence);

    let arrivals = |s: &RpcSetup| s.frames.iter().map(|f| f.arrival).collect::<Vec<_>>();
    assert_ne!(
        arrivals(&RpcSetup::build(1, 200)),
        arrivals(&RpcSetup::build(2, 200))
    );
    assert_ne!(
        ShardSetup::build(1, 50).cells[0].events,
        ShardSetup::build(2, 50).cells[0].events
    );
}

#[test]
fn sharded_two_workers_match_one_worker() {
    let setup = ShardSetup::build(3, 120);
    let one = run_sharded(&setup, 1, false);
    let two = run_sharded(&setup, 2, false);
    assert_eq!(one.fingerprint, two.fingerprint);
    assert!(one.problems().is_empty(), "{:?}", one.problems());
}

#[test]
fn tracing_is_a_pure_observer_and_the_audit_passes() {
    let setup = RpcSetup::build(5, 300);
    let plain = run_rpc(&setup, false, false).expect("rpc run").0;
    let traced = run_rpc(&setup, true, false).expect("rpc run").0;
    assert_eq!(plain.fingerprint, traced.fingerprint);
    assert!(protoacc_trace::audit(&traced.events, &traced.expected).ok());
    assert!(plain.problems().is_empty(), "{:?}", plain.problems());

    let setup = ShardSetup::build(5, 80);
    let plain = run_sharded(&setup, 1, false);
    let traced = run_sharded(&setup, 2, true);
    assert_eq!(plain.fingerprint, traced.fingerprint);
    assert!(protoacc_trace::audit(&traced.events, &traced.expected).ok());
}

#[test]
fn host_gate_is_clean_and_catches_a_wrong_response() {
    let mut setup = HostSetup::build(Workload::HostBlob, 9, 4, 16);
    assert!(host::check(&setup).is_empty());
    // An encode request whose expected bytes no longer match must fail.
    setup.suites[0].wires[0].push(0);
    assert!(!host::check(&setup).is_empty());
}

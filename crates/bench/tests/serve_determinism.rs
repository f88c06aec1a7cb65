//! End-to-end determinism of the serving model: the fleet traffic →
//! staging → multi-instance cluster pipeline, run through
//! `serving::run_cell`, must give the same `ShardedCluster::fingerprint`
//! when replayed with the same seeds, at every cluster width and dispatch
//! policy, and its queue accounting must balance. The RPC overload
//! study's sweep must replay cell for cell.

use protoacc::{DispatchPolicy, ShardedCluster};
use protoacc_bench::serving::{config, fleet_mix, one_cell, stream, Capture};
use protoacc_bench::studies::serve::rpc_sweep;

/// Requests offered per run.
const OFFERED: u64 = 64;

/// Runs one seeded stream through a fresh memory image and cluster. The
/// arrival gap is well under one instance's service time and the queue is
/// short, so a single instance falls behind and drops.
fn serve(instances: usize, policy: DispatchPolicy) -> ShardedCluster {
    let mix = fleet_mix(8);
    let events = stream(&mix, OFFERED as usize, 150.0);
    one_cell(
        &mix,
        config(instances, 16, policy),
        Capture::default(),
        |staging, _| (staging.requests(&events), Vec::new()),
    )
}

#[test]
fn multi_instance_serve_runs_are_byte_identical() {
    for instances in [1usize, 2, 4, 8] {
        for policy in [DispatchPolicy::Fifo, DispatchPolicy::RoundRobin] {
            let label = format!("n={instances} policy={}", policy.label());
            let a = serve(instances, policy);
            let b = serve(instances, policy);
            a.check_invariants()
                .unwrap_or_else(|e| panic!("{label}: invariant violated: {e}"));
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{label}: serving replay diverged"
            );
            assert_eq!(a.offered(), OFFERED, "{label}");
            assert_eq!(
                a.completed() as u64 + a.dropped(),
                OFFERED,
                "{label}: accounting leak"
            );
        }
    }
}

#[test]
fn single_and_multi_instance_complete_the_same_offered_work() {
    // Same stream, different cluster widths: the wider cluster must not
    // lose requests the narrow one served.
    let narrow = serve(1, DispatchPolicy::Fifo);
    let wide = serve(8, DispatchPolicy::Fifo);
    assert!(
        narrow.dropped() > 0,
        "the stream never overloads one instance"
    );
    assert!(wide.completed() >= narrow.completed());
}

#[test]
fn rpc_sweep_replays_identically() {
    // Every cell of the RPC overload study, calibration included, compared
    // by value against a second run.
    assert_eq!(rpc_sweep(), rpc_sweep(), "rpc sweep replay diverged");
}

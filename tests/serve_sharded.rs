//! Sharded-engine equivalence suite: the parallel sharded simulation must
//! be *bit-identical* to the sequential engine on the same inputs, for any
//! worker count, on every workload shape the serve layer models.
//!
//! The decomposition is fixed up front (8 independently seeded cells, each
//! with a private LLC slice), so worker count only changes the schedule:
//! fingerprints, merged `AccelStats`, and every latency percentile must
//! agree exactly between 1 worker (the sequential reference) and 2/4/8
//! workers, on
//!
//! * a **clean** workload (light load, nothing drops);
//! * a **faulted** workload (per-shard crash scripts with the software
//!   CPU fallback wired in — retries and fallbacks in play);
//! * a **shed-heavy** workload (~2x saturation with deadlines and cost
//!   estimates attached, so admission control sheds and the short queue
//!   drops).
//!
//! Each workload's stitched multi-shard trace log must also pass the
//! accounting audit: per-instance span sums equal the merged `AccelStats`
//! exactly, and no command span leaks across the shard boundaries.
//!
//! The single-cluster studies rest on one more property: a cluster run as
//! a one-cell decomposition reports exactly what the cluster itself does,
//! and the fingerprint sees every quantity those studies print.

use protoacc_suite::accel::{
    DispatchPolicy, InstanceFault, Request, ServeCluster, ServeConfig, ShardOutcome, ShardedCluster,
};
use protoacc_suite::bench::serving::{
    self, fleet_mix, Capture, Staging, ARENA_BASE, ARENA_STRIDE, FB_ARENA, FB_OUT, STREAM_SEED,
};
use protoacc_suite::faults::{random_script, InstanceFaultPlan, SoftwareFallback};
use protoacc_suite::fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_suite::mem::{Cycles, MemConfig, Memory};
use protoacc_suite::xrand::StdRng;

const FAULT_SEED: u64 = 0xFA_17;

/// Cells in the fixed decomposition (independent of worker count).
const CELLS: usize = 8;
/// Accelerator instances per cell (they share the cell's LLC slice).
const INSTANCES: usize = 2;
/// Commands per cell.
const PER_SHARD: usize = 32;

/// The workload shapes the equivalence must hold on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Clean,
    Faulted,
    ShedHeavy,
}

impl Workload {
    /// Mean arrival gap: light for clean/faulted, ~2x saturation for the
    /// shed-heavy cell (service runs in the thousands of cycles, so a
    /// 400-cycle gap over 2 instances is far past the knee).
    fn gap(self) -> f64 {
        match self {
            Workload::Clean => 4_000.0,
            Workload::Faulted => 3_000.0,
            Workload::ShedHeavy => 400.0,
        }
    }

    /// Short queue under overload so queue-full drops happen too.
    fn queue_depth(self) -> usize {
        match self {
            Workload::ShedHeavy => 8,
            _ => 32,
        }
    }
}

/// The serve configuration every cell of `workload` runs under.
fn config(workload: Workload) -> ServeConfig {
    ServeConfig {
        instances: INSTANCES,
        queue_depth: workload.queue_depth(),
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    }
}

/// The requests and instance-fault script of cell `shard` of `workload`.
fn cell_inputs(
    staging: &Staging,
    shard: usize,
    events: &[TrafficEvent],
    workload: Workload,
) -> (Vec<Request>, Vec<InstanceFault>) {
    let mut requests = staging.requests(events);
    if workload == Workload::ShedHeavy {
        // Each request carries an admission-cost estimate and an absolute
        // deadline with little slack over it: once the overload backlog
        // pushes an instance's free time a few thousand cycles past
        // arrival, the estimate blows the deadline and admission control
        // sheds pre-enqueue.
        for r in &mut requests {
            r.cost = Some(30_000);
            r.deadline = Some(r.arrival + 35_000);
        }
    }
    if workload != Workload::Faulted {
        return (requests, Vec::new());
    }
    // Per-shard crash script, replayable from (FAULT_SEED, shard) alone.
    let horizon: Cycles = events.last().map_or(1, |e| e.arrival.max(1));
    let mut frng = StdRng::seed_from_u64(FAULT_SEED ^ shard as u64);
    let plan = InstanceFaultPlan::crash_only(0.5);
    (
        requests,
        random_script(&plan, INSTANCES, horizon, &mut frng),
    )
}

/// What a cell of `workload` records: its trace log always, and for the
/// faulted workload the software CPU codec backstopping quarantined
/// instances.
fn capture(workload: Workload) -> Capture {
    Capture {
        trace: true,
        fallback: workload == Workload::Faulted,
    }
}

/// Runs one traced cell through the shared cell runner: private memory
/// system (its LLC slice), private staging, private cluster, private trace
/// log. A pure function of `(mix, shard, events, workload)` — the
/// determinism oracle rests on that.
fn run_cell(
    mix: &TrafficMix,
    shard: usize,
    events: &[TrafficEvent],
    workload: Workload,
) -> ShardOutcome {
    let mem = MemConfig::default().llc_slice(CELLS);
    serving::run_cell(
        shard,
        mix,
        mem,
        config(workload),
        capture(workload),
        |staging, _| cell_inputs(staging, shard, events, workload),
    )
}

/// Runs the fixed decomposition for `workload` on `workers` threads.
fn run_sharded(mix: &TrafficMix, workload: Workload, workers: usize) -> ShardedCluster {
    let streams = mix.shard_streams(STREAM_SEED, CELLS, PER_SHARD, workload.gap());
    ShardedCluster::run(&streams, workers, |shard, events| {
        run_cell(mix, shard, events, workload)
    })
}

/// The core property: for every worker count, the sharded run's
/// fingerprint, merged stats, and percentile set are bit-identical to the
/// 1-worker sequential reference; per-shard invariants hold; the stitched
/// multi-shard trace log passes the accounting audit.
fn assert_equivalent(workload: Workload) -> ShardedCluster {
    let mix = fleet_mix(8);
    let reference = run_sharded(&mix, workload, 1);
    reference
        .check_invariants()
        .expect("sequential reference violates queue invariants");
    for workers in [2usize, 4, 8] {
        let run = run_sharded(&mix, workload, workers);
        assert_eq!(
            reference.fingerprint(),
            run.fingerprint(),
            "{workload:?}: {workers}-worker run diverged from sequential"
        );
        assert_eq!(
            reference.merged_stats(),
            run.merged_stats(),
            "{workload:?}: merged AccelStats diverged at {workers} workers"
        );
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                reference.latency_percentile(p),
                run.latency_percentile(p),
                "{workload:?}: p{p} diverged at {workers} workers"
            );
        }
        run.check_invariants().expect("sharded invariants hold");
    }
    let report =
        protoacc_suite::trace::audit(&reference.stitched_events(), &reference.expected_stats());
    assert!(
        report.ok(),
        "{workload:?}: stitched trace audit failed: {:?}",
        report.problems
    );
    assert_eq!(
        report.per_instance.len(),
        CELLS * INSTANCES,
        "audit must see every shard's instances in the stitched log"
    );
    reference
}

#[test]
fn clean_workload_is_bit_identical_across_worker_counts() {
    let run = assert_equivalent(Workload::Clean);
    assert_eq!(run.offered(), (CELLS * PER_SHARD) as u64);
    assert_eq!(
        run.dropped() + run.shed(),
        0,
        "clean workload must not drop"
    );
    assert_eq!(run.completed() as u64, run.offered());
}

#[test]
fn faulted_workload_is_bit_identical_across_worker_counts() {
    let run = assert_equivalent(Workload::Faulted);
    // The crash scripts must actually bite (otherwise this test decays to
    // the clean case): some shard retried or fell back to the CPU.
    let (_, fallback, _, _, _) = run.status_counts();
    assert!(
        run.retries() + fallback > 0,
        "fault campaign never touched an in-flight command"
    );
}

#[test]
fn shed_heavy_workload_is_bit_identical_across_worker_counts() {
    let run = assert_equivalent(Workload::ShedHeavy);
    // 2x saturation with deadlines: admission control must shed (shed
    // commands still land a one-cycle pushback record, so the terminal
    // accounting identity is completed + dropped == offered).
    assert!(run.shed() > 0, "overload workload never shed");
    let (_, _, _, _, shed_status) = run.status_counts();
    assert_eq!(run.shed(), shed_status, "shed counter vs status bucket");
    assert_eq!(
        run.completed() as u64 + run.dropped(),
        run.offered(),
        "sharded accounting leak: completed {} + dropped {} != offered {}",
        run.completed(),
        run.dropped(),
        run.offered()
    );
}

/// Runs the inputs of cell `k` of `workload` directly on a `ServeCluster`
/// and as a one-cell decomposition, and checks every merged accessor
/// against the cluster's own.
fn assert_one_cell_equals_cluster(workload: Workload, k: usize) -> ShardedCluster {
    let mix = fleet_mix(8);
    let events = &mix.shard_streams(STREAM_SEED, CELLS, PER_SHARD, workload.gap())[k];
    let cfg = config(workload);
    let mem_cfg = MemConfig::default().llc_slice(CELLS);

    let mut mem = Memory::new(mem_cfg);
    let staging = Staging::new(&mix, &mut mem);
    let (requests, faults) = cell_inputs(&staging, k, events, workload);
    let mut fb = SoftwareFallback::new(
        &mix.schema,
        &staging.layouts,
        &staging.adts,
        FB_ARENA,
        FB_OUT,
    );
    let fb = (workload == Workload::Faulted).then_some(&mut fb as _);
    let mut cluster = ServeCluster::new(cfg, ARENA_BASE, ARENA_STRIDE);
    cluster
        .run_with(&mut mem, &requests, &faults, fb)
        .expect("serve run succeeds");

    let one = ShardedCluster::run(&[()], 1, |shard, ()| {
        serving::run_cell(
            shard,
            &mix,
            mem_cfg,
            cfg,
            capture(workload),
            |staging, _| cell_inputs(staging, k, events, workload),
        )
    });

    for p in [50.0, 95.0, 99.0, 99.9] {
        assert_eq!(
            one.latency_percentile(p),
            cluster.latency_percentile(p),
            "p{p}"
        );
    }
    assert_eq!(
        one.aggregate_gbits().to_bits(),
        cluster.throughput_gbits().to_bits()
    );
    assert_eq!(one.status_counts(), cluster.status_counts());
    assert_eq!(one.served(), cluster.served());
    assert_eq!(one.retries(), cluster.retries());
    assert_eq!(one.completed(), cluster.records().len());
    assert_eq!(one.dropped(), cluster.dropped());
    let expected = one.expected_stats();
    assert_eq!(expected.len(), cfg.instances);
    for (i, e) in expected.iter().enumerate() {
        let s = cluster.instance_stats(i);
        assert_eq!(
            (
                e.instance,
                e.deser_ops,
                e.deser_cycles,
                e.ser_ops,
                e.ser_cycles,
                e.saturated
            ),
            (
                i,
                s.deser_ops,
                s.deser_cycles,
                s.ser_ops,
                s.ser_cycles,
                s.saturated
            )
        );
        assert_eq!(
            one.outcomes()[0].mem_stats[i],
            cluster.instance_mem_stats(&mem, i)
        );
    }
    one
}

#[test]
fn a_one_cell_decomposition_reports_what_the_cluster_does() {
    let mut bitten = 0;
    for k in 0..CELLS {
        assert_one_cell_equals_cluster(Workload::Clean, k);
        let faulted = assert_one_cell_equals_cluster(Workload::Faulted, k);
        let (_, fallback, _, _, _) = faulted.status_counts();
        if faulted.retries() + fallback > 0 || !faulted.outcomes()[0].quarantined.is_empty() {
            bitten += 1;
        }
    }
    assert!(bitten > 0, "no crash script touched its cluster");
}

#[test]
fn the_fingerprint_sees_memory_attribution_and_service() {
    let one = assert_one_cell_equals_cluster(Workload::Clean, 0);
    let base = one.outcomes()[0].clone();
    let rerun = |edit: &dyn Fn(&mut ShardOutcome)| {
        let mut out = base.clone();
        edit(&mut out);
        ShardedCluster::run(&[()], 1, |_, ()| out.clone()).fingerprint()
    };
    assert_eq!(rerun(&|_| {}), one.fingerprint());
    assert_ne!(rerun(&|o| o.mem_stats[1].bytes += 1), one.fingerprint());
    assert_ne!(
        rerun(&|o| o.mem_stats[0].dram_accesses += 1),
        one.fingerprint()
    );
    assert_ne!(rerun(&|o| o.records[7].service += 1), one.fingerprint());
}

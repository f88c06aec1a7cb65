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

use protoacc_suite::accel::{
    DispatchPolicy, ServeCluster, ServeConfig, ShardOutcome, ShardedCluster,
};
use protoacc_suite::bench::serving::{Staging, ARENA_BASE, ARENA_STRIDE};
use protoacc_suite::faults::{random_script, InstanceFaultPlan, SoftwareFallback};
use protoacc_suite::fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_suite::mem::{Cycles, MemConfig, Memory};
use protoacc_suite::trace::TraceLog;
use protoacc_suite::xrand::StdRng;

const MIX_SEED: u64 = 0xF1EE7;
const STREAM_SEED: u64 = 0x10AD;
const FAULT_SEED: u64 = 0xFA_17;
const FB_ARENA: (u64, u64) = (0x4000_0000, 1 << 24);
const FB_OUT: u64 = 0x5000_0000;

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

/// Runs one cell end-to-end on the calling thread: private memory system
/// (its LLC slice), private staging, private cluster, private trace log.
/// A pure function of `(mix, shard, events, workload)` — the determinism
/// oracle rests on that.
fn run_cell(
    mix: &TrafficMix,
    shard: usize,
    events: &[TrafficEvent],
    workload: Workload,
) -> ShardOutcome {
    let mut mem = Memory::new(MemConfig::default().llc_slice(CELLS));
    let staging = Staging::new(mix, &mut mem);
    let mut requests = staging.requests(events);
    if workload == Workload::ShedHeavy {
        // Each request carries an admission-cost estimate and an absolute
        // deadline with little slack over it: once the overload backlog
        // pushes an instance's free time a few thousand cycles past arrival,
        // the estimate blows the deadline and admission control sheds
        // pre-enqueue.
        for r in &mut requests {
            r.cost = Some(30_000);
            r.deadline = Some(r.arrival + 35_000);
        }
    }
    let mut cluster = ServeCluster::new(
        ServeConfig {
            instances: INSTANCES,
            queue_depth: workload.queue_depth(),
            policy: DispatchPolicy::Fifo,
            ..ServeConfig::default()
        },
        ARENA_BASE,
        ARENA_STRIDE,
    );
    let log = TraceLog::shared();
    cluster.set_tracer(Some(log.clone()));
    if workload == Workload::Faulted {
        // Per-shard crash script, replayable from (FAULT_SEED, shard)
        // alone; the software CPU codec backstops quarantined instances.
        let horizon: Cycles = events.last().map_or(1, |e| e.arrival.max(1));
        let mut frng = StdRng::seed_from_u64(FAULT_SEED ^ shard as u64);
        let faults = random_script(
            &InstanceFaultPlan::crash_only(0.5),
            INSTANCES,
            horizon,
            &mut frng,
        );
        let mut fb = SoftwareFallback::new(
            &mix.schema,
            &staging.layouts,
            &staging.adts,
            FB_ARENA,
            FB_OUT,
        );
        cluster
            .run_with(&mut mem, &requests, &faults, Some(&mut fb))
            .expect("faulted serve run succeeds");
    } else {
        cluster
            .run(&mut mem, &requests)
            .expect("serve run succeeds");
    }
    cluster.set_tracer(None);
    let events = std::mem::take(&mut log.borrow_mut().events);
    ShardOutcome::capture(shard, &cluster, &mem, events)
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
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let mix = TrafficMix::build(&mut rng, 8);
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

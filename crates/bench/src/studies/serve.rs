//! The serving studies: tail latency and throughput scaling of N
//! accelerator instances behind one RoCC command queue, the degradation
//! ladder under injected faults, and overload of the framed RPC layer.
//!
//! All replay a fleet-distribution message mix ([`fleet_mix`]) against a
//! `ServeCluster`: N instances sharing one simulated LLC/DRAM, fed by a
//! bounded command queue with FIFO or round-robin dispatch. The first two
//! run each cluster as the one-cell decomposition ([`one_cell`]); the RPC
//! study drives it through the RPC server ([`open_loop`], [`closed_loop`]).

use std::fmt::{self, Write};

use protoacc::serve::{CommandRecord, CommandStatus};
use protoacc::{DispatchPolicy, InstanceFault, Request, RequestOp, ServeConfig, ShardedCluster};
use protoacc_absint::Envelope;
use protoacc_faults::memory::{arm_random_ecc, arm_random_stalls};
use protoacc_faults::wire::corrupt;
use protoacc_faults::WIRE_FAULTS;
use protoacc_faults::{random_script, InstanceFaultPlan};
use protoacc_fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_mem::{Cycles, Memory};
use protoacc_rpc::RpcServer;
use protoacc_runtime::reference;
use xrand::{Rng, StdRng};

use crate::serving::{
    calibrate, closed_loop, config, fleet_mix, one_cell, open_loop, stream, Capture, Staging,
    CORRUPT_BASE, RPC_INSTANCES,
};

/// Runs `events` through one fault-free cluster with nothing captured.
fn clean(mix: &TrafficMix, events: &[TrafficEvent], cfg: ServeConfig) -> ShardedCluster {
    one_cell(mix, cfg, Capture::default(), |staging, _| {
        (staging.requests(events), Vec::new())
    })
}

/// Throughput scaling vs instance count (N = 1, 2, 4, 8) under a
/// saturating offered load, sublinear once the shared memory hierarchy
/// contends; FIFO vs round-robin dispatch at N = 4; p50/p95/p99 latency
/// and queue drops across an offered-load sweep at N = 4 (the saturation
/// curve); and how the 8-way run's LLC/DRAM traffic divides across
/// instances.
///
/// # Panics
///
/// If a run of the scaling sweep violates a queue invariant.
pub fn serve_tail_latency(out: &mut String) -> fmt::Result {
    let mix = fleet_mix(32);
    writeln!(
        out,
        "Serving model: fleet-mix traffic ({} prototypes, mean {:.0} wire bytes, {:.0}% deser)",
        mix.prototypes.len(),
        mix.mean_encoded_size(),
        mix.deser_fraction * 100.0
    )?;

    // Calibrate mean service time on an uncontended single instance.
    let calib = clean(
        &mix,
        &stream(&mix, 128, 10_000_000.0),
        config(1, 64, DispatchPolicy::Fifo),
    );
    let calib = &calib.outcomes()[0];
    let service = calib.service_cycles() as f64 / calib.records.len().max(1) as f64;
    writeln!(
        out,
        "calibration: mean uncontended service = {service:.0} cycles\n"
    )?;

    // --- Throughput scaling vs instance count under saturating load. ---
    let saturating_gap = service / 16.0;
    writeln!(
        out,
        "Instance scaling (fifo queue, depth 64, saturating load: gap = service/16)"
    )?;
    writeln!(
        out,
        "{:<10} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14} {:>11}",
        "instances",
        "completed",
        "dropped",
        "p50 cyc",
        "p95 cyc",
        "p99 cyc",
        "Gbits/s",
        "efficiency"
    )?;
    let mut single = 0.0f64;
    let mut eight = None;
    for n in [1usize, 2, 4, 8] {
        let events = stream(&mix, 512, saturating_gap);
        let res = clean(&mix, &events, config(n, 64, DispatchPolicy::Fifo));
        if let Err(e) = res.check_invariants() {
            panic!("invariant violated at n={n}: {e}");
        }
        let gbits = res.aggregate_gbits();
        if n == 1 {
            single = gbits;
        }
        writeln!(
            out,
            "{n:<10} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14.3} {:>10.0}%",
            res.completed(),
            res.dropped(),
            res.latency_percentile(50.0),
            res.latency_percentile(95.0),
            res.latency_percentile(99.0),
            gbits,
            gbits / (single * n as f64) * 100.0
        )?;
        eight = Some(res);
    }
    writeln!(out)?;

    // --- Queue-policy comparison at n = 4. ---
    writeln!(
        out,
        "Dispatch policy at 4 instances (same stream, gap = service/8)"
    )?;
    writeln!(
        out,
        "{:<14} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "policy", "completed", "dropped", "p50 cyc", "p95 cyc", "p99 cyc", "Gbits/s"
    )?;
    for policy in [DispatchPolicy::Fifo, DispatchPolicy::RoundRobin] {
        let events = stream(&mix, 512, service / 8.0);
        let res = clean(&mix, &events, config(4, 64, policy));
        writeln!(
            out,
            "{:<14} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14.3}",
            policy.label(),
            res.completed(),
            res.dropped(),
            res.latency_percentile(50.0),
            res.latency_percentile(95.0),
            res.latency_percentile(99.0),
            res.aggregate_gbits()
        )?;
    }
    writeln!(out)?;

    // --- Offered-load saturation sweep at n = 4. ---
    writeln!(
        out,
        "Saturation sweep (4 instances, fifo): offered load rho = service / (gap * 4)"
    )?;
    writeln!(
        out,
        "{:<8} {:>12} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "rho", "gap cyc", "completed", "dropped", "p50 cyc", "p95 cyc", "p99 cyc", "Gbits/s"
    )?;
    for rho in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let gap = service / (4.0 * rho);
        let res = clean(
            &mix,
            &stream(&mix, 512, gap),
            config(4, 64, DispatchPolicy::Fifo),
        );
        writeln!(
            out,
            "{rho:<8} {:>12.0} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14.3}",
            gap,
            res.completed(),
            res.dropped(),
            res.latency_percentile(50.0),
            res.latency_percentile(95.0),
            res.latency_percentile(99.0),
            res.aggregate_gbits()
        )?;
    }
    writeln!(out)?;

    // --- Per-requester memory attribution from the saturated 8-way run. ---
    let eight = eight.expect("the scaling sweep ends at 8 instances");
    writeln!(out, "Per-instance memory traffic (8-way saturated run)")?;
    writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>10} {:>10}",
        "instance", "accesses", "bytes", "llc hits", "dram frac"
    )?;
    for (i, s) in eight.outcomes()[0].mem_stats.iter().enumerate() {
        writeln!(
            out,
            "{i:<10} {:>12} {:>14} {:>10} {:>10.4}",
            s.accesses,
            s.bytes,
            s.llc_hits,
            s.dram_fraction()
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "(sharers-aware streaming splits the outstanding-miss budget across busy\n\
         instances, so aggregate throughput scales sublinearly past the point the\n\
         shared LLC/DRAM path saturates — the serving-model analogue of Fig 13's\n\
         memory-bandwidth ceiling)"
    )
}

/// Seed for fault-injection schedules (instance scripts, armed memory
/// faults, wire corruption routing).
const FAULT_SEED: u64 = 0xFA_17;

/// The fault classes [`serve_faults`] injects, one per plane rung:
/// instance-plane crash/hang/slow scripts, memory-plane ECC and stall
/// arming, and wire-plane bit flips.
const FAULT_CLASSES: [&str; 6] = ["crash", "hang", "slow", "ecc", "stall", "flip"];

/// Wire-plane corruption routing: the per-prototype corrupted input copies
/// (`(addr, len)`), the fraction of deserializations routed at them, and
/// the seeded router.
type CorruptRouting<'a> = Option<(&'a [(u64, u64)], f64, &'a mut StdRng)>;

/// Gives every request the absint-derived watchdog ceiling
/// (`service_bounds(wire_len, instances).upper`): no correct command can
/// exceed it, so a hung or pathologically slow attempt is killed and retried
/// instead of wedging its instance. For the `flip` fault class, `corrupted`
/// routes a seeded fraction of deserializations to a bit-flipped copy of
/// their input.
fn to_requests_watchdogged(
    events: &[TrafficEvent],
    staging: &Staging,
    envs: &[(Envelope, Envelope)],
    instances: usize,
    mut corrupted: CorruptRouting<'_>,
) -> Vec<Request> {
    let mut requests = staging.requests(events);
    for (r, e) in requests.iter_mut().zip(events) {
        let (deser_env, ser_env) = &envs[e.prototype];
        let bounds = match &mut r.op {
            RequestOp::Deserialize {
                input_addr,
                input_len,
                ..
            } => {
                if let Some((copies, rate, rng)) = corrupted.as_mut() {
                    if rng.gen_bool(*rate) {
                        (*input_addr, *input_len) = copies[e.prototype];
                    }
                }
                deser_env.service_bounds((*input_len).max(1), instances)
            }
            RequestOp::Serialize { .. } => {
                ser_env.service_bounds(staging.protos[e.prototype].input_len, instances)
            }
        };
        r.watchdog = Some(bounds.upper);
    }
    requests
}

/// One cell of the fault sweep: stages a fresh memory image, injects
/// `class` at intensity `rate`, and replays `events` through an
/// `instances`-wide cluster with the software CPU fallback wired in.
///
/// `rate` is the kill-rate axis: the probability each instance is faulted
/// (instance plane), the fraction of deserializations fed corrupted bytes
/// (wire plane), or armed faults per offered request (memory plane). A
/// memory fault fires once, on the first stream that covers it, and is
/// then gone, so each staged prototype input costs at most one retry
/// however many faults are armed in it.
///
/// Note the records of a faulted run are *not* fed to the absint lifecycle
/// sanitizer: retried commands legitimately overlap their own earlier
/// attempts, so the sanitizer checks nominal runs only.
fn run_faulted(
    mix: &TrafficMix,
    events: &[TrafficEvent],
    instances: usize,
    class: &str,
    rate: f64,
) -> ShardedCluster {
    let capture = Capture {
        fallback: true,
        ..Capture::default()
    };
    one_cell(
        mix,
        config(instances, 256, DispatchPolicy::Fifo),
        capture,
        |staging, mem| faulted_inputs(mix, staging, mem, events, instances, class, rate),
    )
}

/// The requests and instance-fault script of one [`run_faulted`] cell;
/// arms its memory faults and stages its corrupted inputs in `mem`.
fn faulted_inputs(
    mix: &TrafficMix,
    staging: &Staging,
    mem: &mut Memory,
    events: &[TrafficEvent],
    instances: usize,
    class: &str,
    rate: f64,
) -> (Vec<Request>, Vec<InstanceFault>) {
    let envs = staging.envelopes(mix);
    // Mix the class name into the seed so each cell draws an independent
    // (but replayable) schedule.
    let class_hash = class
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    let mut frng = StdRng::seed_from_u64(FAULT_SEED ^ class_hash);

    // Wire plane: stage one corrupted copy per prototype (cycling through
    // the wire fault classes) and route a seeded `rate` fraction of
    // deserializations at them.
    let mut corrupt_cursor = CORRUPT_BASE;
    let copies: Vec<(u64, u64)> = mix
        .prototypes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let wire = reference::encode(&p.message, &mix.schema).expect("prototype encodes");
            let bad = corrupt(&wire, WIRE_FAULTS[i % WIRE_FAULTS.len()], &mut frng);
            let addr = corrupt_cursor;
            mem.data.write_bytes(addr, &bad);
            corrupt_cursor += bad.len() as u64 + 64;
            (addr, bad.len() as u64)
        })
        .collect();
    let routing = (class == "flip").then_some((copies.as_slice(), rate, &mut frng));
    let requests = to_requests_watchdogged(events, staging, &envs, instances, routing);

    // Memory plane: arm one-shot faults inside the staged wire inputs so
    // the deserializer's streaming reads trip them.
    let regions: Vec<(u64, u64)> = staging
        .protos
        .iter()
        .map(|s| (s.input_addr, s.input_len))
        .collect();
    let armed = ((events.len() as f64 * rate).round() as usize).max(1);
    match class {
        "ecc" => arm_random_ecc(&mut mem.system, &regions, armed, &mut frng),
        "stall" => arm_random_stalls(&mut mem.system, &regions, armed, 1 << 32, &mut frng),
        _ => {}
    }

    // Instance plane: a seeded crash/hang/slow script over the offered
    // window.
    let horizon: Cycles = events.last().map_or(1, |e| e.arrival.max(1));
    let plan = match class {
        "crash" => InstanceFaultPlan::crash_only(rate),
        "hang" => InstanceFaultPlan::hang_only(rate),
        "slow" => InstanceFaultPlan::slow_only(rate),
        _ => InstanceFaultPlan::nominal(),
    };
    (
        requests,
        random_script(&plan, instances, horizon, &mut frng),
    )
}

/// The graceful-degradation sweep: the `protoacc-faults` injection planes
/// (instance crash/hang/slow scripts, memory ECC/stall arming, wire bit
/// flips) across kill-rates on a 4-instance cluster, every request
/// carrying its statically derived watchdog ceiling and the software CPU
/// codec wired in as the last rung of the ladder. Reports how much of the
/// offered load was served (and on which rung), the retry bill, p99
/// latency, and goodput (completed wire bytes over the makespan; rejected
/// and failed commands move zero bytes).
///
/// # Panics
///
/// If any cell sheds a request, fails a command outright or leaves an
/// admitted request unserved: the ladder must have no hole.
pub fn serve_faults(out: &mut String) -> fmt::Result {
    let mix = fleet_mix(8);
    let instances = 4;
    let events = stream(&mix, 256, 2_000.0);
    writeln!(
        out,
        "Fault sweep: {} requests, {instances} instances, watchdog = absint upper bound",
        events.len()
    )?;
    writeln!(
        out,
        "{:<8} {:>6} {:>9} {:>8} {:>6} {:>9} {:>9} {:>7} {:>8} {:>6} {:>12} {:>10}",
        "class",
        "rate",
        "served%",
        "ok",
        "fb",
        "rejected",
        "failed",
        "drops",
        "retries",
        "quar",
        "p99 cyc",
        "Gbits/s"
    )?;
    let mut nominal_p99 = 0;
    for class in std::iter::once("none").chain(FAULT_CLASSES) {
        let rates: &[f64] = if class == "none" {
            &[0.0]
        } else {
            &[0.25, 0.5, 1.0]
        };
        for &rate in rates {
            let res = run_faulted(&mix, &events, instances, class, rate);
            let (served_ok, fallback, rejected, failed, _) = res.status_counts();
            let cell = format!("{class} at rate {rate}");
            assert_eq!(failed, 0, "{cell}: commands failed outright");
            assert_eq!(res.dropped(), 0, "{cell}: requests shed under faults");
            assert_eq!(
                res.served(),
                res.completed() as u64,
                "{cell}: admitted requests left unserved"
            );
            let p99 = res.latency_percentile(99.0);
            if class == "none" {
                nominal_p99 = p99;
            }
            writeln!(
                out,
                "{class:<8} {rate:>6.2} {:>8.1}% {:>8} {:>6} {:>9} {:>9} {:>7} {:>8} {:>6} {:>12} {:>10.3}",
                res.served() as f64 / res.completed().max(1) as f64 * 100.0,
                served_ok,
                fallback,
                rejected,
                failed,
                res.dropped(),
                res.retries(),
                res.outcomes()[0].quarantined.len(),
                p99,
                res.aggregate_gbits()
            )?;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "(nominal p99 = {nominal_p99} cycles; every row above must serve 100% of admitted load —\n\
         a Failed command means the degradation ladder has a hole)"
    )
}

/// Client deadline budget of the RPC sweep, as a multiple of the method's
/// admission cost: generous enough that nominal queueing fits, tight
/// enough that an unbounded overload backlog blows it.
const DEADLINE_SLACK: u64 = 4;
/// Offered-load grid of the RPC sweep, as a fraction of cluster saturation.
const RHOS: [f64; 3] = [0.5, 1.0, 2.0];
/// Requests offered per RPC sweep cell.
const RPC_REQUESTS: usize = 512;
/// Goodput at 2x overload must stay within this fraction of the
/// discipline's peak: the load-shedding acceptance floor.
const GOODPUT_FLOOR: f64 = 0.8;

/// What one cell of the RPC sweep reports.
#[derive(Debug, PartialEq)]
pub struct RpcCell {
    /// `"open"` or `"closed"` loop.
    pub discipline: &'static str,
    /// Offered load as a fraction of cluster saturation.
    pub rho: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests served by an accelerator.
    pub ok: u64,
    /// Requests served by the software fallback.
    pub fallback: u64,
    /// Requests the accelerator rejected.
    pub rejected: u64,
    /// Requests that failed outright.
    pub failed: u64,
    /// Requests admission control shed before enqueue.
    pub shed: u64,
    /// Requests dropped on a full queue.
    pub dropped: u64,
    /// Frames the server decoded.
    pub frames: u64,
    /// Frames that failed to decode.
    pub frame_errors: u64,
    /// Requests deferred by a closed credit window.
    pub deferred: u64,
    /// Goodput in Gbit/s.
    pub goodput: f64,
    /// Median latency of served requests, in cycles.
    pub p50: Cycles,
    /// 99th-percentile latency of served requests, in cycles.
    pub p99: Cycles,
}

/// Latency percentile over *served* commands only (ok + fallback). Shed
/// records complete in one cycle by construction and would drag the
/// distribution toward zero exactly when shedding matters most.
fn served_percentile(records: &[CommandRecord], p: f64) -> Cycles {
    let latencies: Vec<Cycles> = records
        .iter()
        .filter(|r| matches!(r.status, CommandStatus::Ok | CommandStatus::Fallback))
        .map(CommandRecord::latency)
        .collect();
    protoacc_trace::metrics::exact_percentile(&latencies, p)
}

fn rpc_cell(discipline: &'static str, rho: f64, srv: &RpcServer) -> RpcCell {
    let cluster = srv.cluster();
    let (ok, fallback, rejected, failed, shed) = cluster.status_counts();
    let stats = srv.stats();
    RpcCell {
        discipline,
        rho,
        offered: cluster.offered(),
        ok,
        fallback,
        rejected,
        failed,
        shed,
        dropped: cluster.dropped(),
        frames: stats.frames,
        frame_errors: stats.frame_errors,
        deferred: stats.deferred,
        goodput: cluster.throughput_gbits(),
        p50: served_percentile(cluster.records(), 50.0),
        p99: served_percentile(cluster.records(), 99.0),
    }
}

/// The RPC overload sweep: the mean uncontended service time, then one
/// open-loop and one closed-loop cell per offered load in `RHOS`, every
/// request carrying a `DEADLINE_SLACK` deadline.
#[must_use]
pub fn rpc_sweep() -> (f64, Vec<RpcCell>) {
    let mix = fleet_mix(8);
    let service = calibrate(&mix);
    let slack = Some(DEADLINE_SLACK);
    let cells = RHOS
        .iter()
        .flat_map(|&rho| {
            let gap = service / (RPC_INSTANCES as f64 * rho);
            let users = ((rho * RPC_INSTANCES as f64 * 2.0).round() as usize).max(1);
            let open = open_loop(&mix, RPC_REQUESTS, gap, slack);
            let closed = closed_loop(&mix, users, RPC_REQUESTS, service, slack);
            [
                rpc_cell("open", rho, &open),
                rpc_cell("closed", rho, &closed),
            ]
        })
        .collect();
    (service, cells)
}

/// Overload of the framed RPC layer: the fleet mix of 8 prototypes as an
/// RPC method table (admission costs from the absint envelopes) served by
/// [`RPC_INSTANCES`] instances, with offered load swept through and past
/// saturation under both loop disciplines. The open loop's Poisson
/// arrivals ignore what the server does, so past saturation only
/// admission control holds the backlog; the closed loop's users wait for
/// each response, so it throttles itself. Reports goodput and the
/// served / shed / rejected / failed breakdown with served-only p50/p99.
///
/// # Panics
///
/// If a cell leaks accounting (every offered request lands in exactly one
/// of ok / fallback / rejected / failed / shed / dropped), drops a request
/// on a full queue, or finishes 2x overload with goodput under
/// `GOODPUT_FLOOR` of its discipline's peak, or if the open loop sheds
/// nothing at 2x (the admission controller is inert).
pub fn serve_rpc(out: &mut String) -> fmt::Result {
    let (service, cells) = rpc_sweep();
    for c in &cells {
        let cell = format!("{} rho={}", c.discipline, c.rho);
        assert_eq!(
            c.ok + c.fallback + c.rejected + c.failed + c.shed + c.dropped,
            c.offered,
            "{cell}: accounting leak"
        );
        assert_eq!(
            c.dropped, 0,
            "{cell}: admission control must shed, not overflow"
        );
    }
    for discipline in ["open", "closed"] {
        let peak = cells
            .iter()
            .filter(|c| c.discipline == discipline)
            .map(|c| c.goodput)
            .fold(0.0f64, f64::max);
        let at_2x = cells
            .iter()
            .find(|c| c.discipline == discipline && c.rho == 2.0)
            .expect("2x cell exists");
        assert!(
            at_2x.goodput >= GOODPUT_FLOOR * peak,
            "{discipline} rho=2: goodput {} below {GOODPUT_FLOOR} x peak {peak}",
            at_2x.goodput
        );
        if discipline == "open" {
            assert!(at_2x.shed > 0, "open rho=2: 2x overload shed nothing");
        }
    }

    writeln!(
        out,
        "RPC overload sweep: {RPC_INSTANCES} instances, deadline = {DEADLINE_SLACK} x admission cost, \
         {RPC_REQUESTS} requests per cell"
    )?;
    writeln!(
        out,
        "calibration: mean uncontended service = {service:.0} cycles\n"
    )?;
    writeln!(
        out,
        "{:<10} {:>6} {:>8} {:>7} {:>4} {:>9} {:>7} {:>6} {:>9} {:>12} {:>12} {:>12}",
        "loop",
        "rho",
        "offered",
        "ok",
        "fb",
        "rejected",
        "failed",
        "shed",
        "deferred",
        "goodput",
        "p50 cyc",
        "p99 cyc"
    )?;
    for c in &cells {
        writeln!(
            out,
            "{:<10} {:>6.2} {:>8} {:>7} {:>4} {:>9} {:>7} {:>6} {:>9} {:>12.4} {:>12} {:>12}",
            c.discipline,
            c.rho,
            c.offered,
            c.ok,
            c.fallback,
            c.rejected,
            c.failed,
            c.shed,
            c.deferred,
            c.goodput,
            c.p50,
            c.p99
        )?;
    }
    Ok(())
}

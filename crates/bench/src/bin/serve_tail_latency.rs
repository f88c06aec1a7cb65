//! Serving-model study: tail latency and throughput scaling of a
//! multi-instance accelerator cluster behind a RoCC command queue.
//!
//! Replays a fleet-distribution message mix (`protoacc_fleet::traffic`)
//! against [`ServeCluster`]: N accelerator instances sharing one simulated
//! LLC/DRAM, fed by a bounded command queue with FIFO or round-robin
//! dispatch. Reports:
//!
//! * throughput scaling vs instance count (N = 1, 2, 4, 8) under a
//!   saturating offered load — sublinear once the shared memory hierarchy
//!   contends;
//! * p50/p95/p99 request latency and queue drops across an offered-load
//!   sweep at fixed N (the saturation curve);
//! * a per-requester memory breakdown showing how LLC/DRAM traffic divides
//!   across instances.
//!
//! `--smoke` runs a tiny grid twice and fails (non-zero exit) on any queue
//! invariant violation or nondeterminism between the two runs — the CI
//! gate for the serving model.
//!
//! `--sanitize` replays instrumented runs through the `protoacc-absint`
//! race/hazard sanitizer: command lifecycles must respect happens-before
//! (PA008), no two in-flight commands may touch overlapping arena bytes
//! with a writer (PA009), and every measured service time must sit inside
//! its statically derived `[lower, upper]` cycle envelope (PA007).
//! Violations are rendered through the `protoacc-lint` severity machinery
//! and fail the process. Combines with `--smoke` for the CI gate.
//!
//! `--faults` sweeps the `protoacc-faults` injection planes (instance
//! crash/hang/slow scripts, memory ECC/stall arming, wire bit flips)
//! across kill-rates, with every request carrying its statically derived
//! watchdog ceiling and the software CPU codec wired in as the last rung of
//! the degradation ladder. Reports p99, goodput, and where on the ladder
//! each cell's load landed. `--smoke --faults` is the CI variant: every
//! class must serve 100% of admitted load, twice, identically.

use std::process::ExitCode;
use std::time::Instant;

use protoacc::{DispatchPolicy, InstanceFault, Request, RequestOp, ServeConfig, ShardedCluster};
use protoacc_absint::{Envelope, ServiceBounds};
use protoacc_bench::cli::Args;
use protoacc_bench::serving::{run_cell, Capture, Staging, CORRUPT_BASE, DEST_BASE, DEST_LEN};
use protoacc_faults::memory::{arm_random_ecc, arm_random_stalls};
use protoacc_faults::wire::corrupt;
use protoacc_faults::WIRE_FAULTS;
use protoacc_faults::{random_script, InstanceFaultPlan};
use protoacc_fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_lint::{findings_to_diagnostics, LintConfig, LintReport};
use protoacc_mem::{Cycles, MemConfig, Memory};
use protoacc_runtime::{reference, BumpArena};
use protoacc_trace::json::{self, Json};
use xrand::{Rng, StdRng};

/// Seed for synthesizing the prototype population.
const MIX_SEED: u64 = 0xF1EE7;
/// Seed for the arrival process.
const STREAM_SEED: u64 = 0x10AD;

const USAGE: &str = "serve_tail_latency [--smoke] [--sanitize] [--faults] [--trace OUT.json] \
                     [--shards N] [--bench-shards OUT.json] [--commands N]";

/// The fleet mix of `prototypes` prototypes every mode replays.
fn fleet_mix(prototypes: usize) -> TrafficMix {
    TrafficMix::build(&mut StdRng::seed_from_u64(MIX_SEED), prototypes)
}

/// `n` arrivals at mean gap `gap`, drawn from [`STREAM_SEED`].
fn stream(mix: &TrafficMix, n: usize, gap: f64) -> Vec<TrafficEvent> {
    mix.stream(&mut StdRng::seed_from_u64(STREAM_SEED), n, gap)
}

fn config(instances: usize, queue_depth: usize, policy: DispatchPolicy) -> ServeConfig {
    ServeConfig {
        instances,
        queue_depth,
        policy,
        ..ServeConfig::default()
    }
}

/// Runs one cluster over the default memory as the one-cell decomposition.
fn one_cell(
    mix: &TrafficMix,
    cfg: ServeConfig,
    capture: Capture,
    build: impl Fn(&Staging, &mut Memory) -> (Vec<Request>, Vec<InstanceFault>) + Sync,
) -> ShardedCluster {
    ShardedCluster::run(&[()], 1, |shard, ()| {
        run_cell(shard, mix, MemConfig::default(), cfg, capture, &build)
    })
}

/// Runs `events` through one fault-free cluster with nothing captured.
fn clean(mix: &TrafficMix, events: &[TrafficEvent], cfg: ServeConfig) -> ShardedCluster {
    one_cell(mix, cfg, Capture::default(), |staging, _| {
        (staging.requests(events), Vec::new())
    })
}

/// Runs `events` with footprint capture on, optionally traced, giving
/// every deserialization its own destination object. The shared staging
/// reuses one slot per prototype, which is a genuine arena-aliasing hazard
/// (PA009) the moment two instances deserialize the same prototype
/// concurrently — acceptable for pure timing studies, but exactly what a
/// sanitized run must not do.
fn isolated(
    mix: &TrafficMix,
    events: &[TrafficEvent],
    cfg: ServeConfig,
    trace: bool,
) -> ShardedCluster {
    let capture = Capture {
        trace,
        footprints: true,
        fallback: false,
    };
    one_cell(mix, cfg, capture, |staging, _| {
        let mut dests = BumpArena::new(DEST_BASE, DEST_LEN);
        let mut requests = staging.requests(events);
        for (r, e) in requests.iter_mut().zip(events) {
            if let RequestOp::Deserialize { dest_obj, .. } = &mut r.op {
                let size = staging.protos[e.prototype].object_size;
                *dest_obj = dests.alloc(size, 8).expect("dest arena");
            }
        }
        (requests, Vec::new())
    })
}

/// `--sanitize`: instrumented replays through the absint race/hazard
/// sanitizer. Each cluster size runs a fresh memory image with footprint
/// tracing on and per-event destination objects; any PA007/PA008/PA009
/// finding fails the run through the lint severity machinery.
fn sanitize_mode() -> bool {
    let mix = fleet_mix(8);
    let envelopes = Staging::new(&mix, &mut Memory::new(MemConfig::default())).envelopes(&mix);
    let lint_cfg = LintConfig::default();
    let mut ok = true;
    for &instances in &[1usize, 2, 4] {
        let events = stream(&mix, 96, 2_000.0);
        let run = isolated(
            &mix,
            &events,
            config(instances, 32, DispatchPolicy::Fifo),
            false,
        );
        let cell = &run.outcomes()[0];
        let bounds: Vec<ServiceBounds> = cell
            .records
            .iter()
            .map(|r| {
                let (deser_env, ser_env) = &envelopes[events[r.seq].prototype];
                let env = if r.deser { deser_env } else { ser_env };
                let b = env.service_bounds(r.wire_bytes, r.sharers);
                ServiceBounds {
                    seq: r.seq,
                    lower: b.lower,
                    upper: b.upper,
                }
            })
            .collect();
        let findings = protoacc_absint::sanitize(
            &cell.records,
            &cell.footprints,
            instances,
            events.len() as u64,
            cell.dropped,
            &bounds,
        );
        let diagnostics = findings_to_diagnostics(&findings, &lint_cfg);
        let label = format!("sanitize n={instances}");
        if diagnostics.is_empty() {
            println!(
                "ok   [{label}] {} command(s) clean: lifecycle, aliasing, envelopes",
                cell.records.len()
            );
        } else {
            for d in &diagnostics {
                println!("{d}");
            }
            let report = LintReport {
                diagnostics,
                types: Vec::new(),
            };
            println!(
                "FAIL [{label}]: {} deny, {} warn",
                report.deny_count(),
                report.warn_count()
            );
            ok = false;
        }
    }
    if ok {
        println!("serve_sanitize OK");
    }
    ok
}

/// `--trace <out.json>`: runs one cell untraced and once with the
/// structured-event tracer attached, then checks the whole trace contract:
///
/// 1. the traced run's report is bit-identical to the untraced run (tracing
///    is a pure observer);
/// 2. the accounting audit passes: per-instance `DeserOp`/`SerOp` span sums
///    equal the `AccelStats` counters exactly, and no command span leaks;
/// 3. records, footprints, and sanitizer verdicts reconstructed *from the
///    trace alone* (`protoacc_absint::from_trace`) match the live cluster's;
/// 4. the Chrome-trace JSON export lands at `path` with the per-instance
///    stats image embedded, so `profile_report --reparse` can re-run the
///    audit offline.
fn trace_mode(path: &str) -> bool {
    let mix = fleet_mix(8);
    let cfg = config(2, 16, DispatchPolicy::Fifo);
    let events = stream(&mix, 48, 5_000.0);

    let base = isolated(&mix, &events, cfg, false);
    let run = isolated(&mix, &events, cfg, true);
    let cell = &run.outcomes()[0];
    let evs = &cell.events;
    let expected = run.expected_stats();

    let mut ok = true;
    if base.fingerprint() != run.fingerprint() {
        println!(
            "FAIL [trace]: tracing perturbed the run\n  untraced: {}\n  traced:   {}",
            base.fingerprint(),
            run.fingerprint()
        );
        ok = false;
    }

    let report = protoacc_trace::audit(evs, &expected);
    if report.ok() {
        println!(
            "ok   [trace audit] {} instance(s): traced span sums match AccelStats exactly",
            report.per_instance.len()
        );
    } else {
        for p in &report.problems {
            println!("FAIL [trace audit]: {p}");
        }
        ok = false;
    }

    // Trace-derived records must reproduce the live cluster's, down to the
    // status discriminant (the typed fault detail does not survive export).
    let (trecords, toffered, tdropped) = protoacc_absint::from_trace::records_from_trace(evs);
    if (toffered, tdropped) != (cell.offered, cell.dropped) || trecords.len() != cell.records.len()
    {
        println!(
            "FAIL [trace derive]: {}/{toffered}/{tdropped} trace-derived records/offered/dropped \
             vs live {}/{}/{}",
            trecords.len(),
            cell.records.len(),
            cell.offered,
            cell.dropped
        );
        ok = false;
    } else {
        for (t, l) in trecords.iter().zip(&cell.records) {
            let same = t.seq == l.seq
                && t.enqueue == l.enqueue
                && t.dispatch == l.dispatch
                && t.complete == l.complete
                && t.service == l.service
                && t.instance == l.instance
                && t.wire_bytes == l.wire_bytes
                && t.deser == l.deser
                && t.sharers == l.sharers
                && t.attempts == l.attempts
                && std::mem::discriminant(&t.status) == std::mem::discriminant(&l.status);
            if !same {
                println!(
                    "FAIL [trace derive]: record {} diverged: {t:?} vs {l:?}",
                    t.seq
                );
                ok = false;
            }
        }
    }
    let tfps = protoacc_absint::from_trace::footprints_from_trace(evs, cfg.instances);
    if tfps != cell.footprints {
        println!(
            "FAIL [trace derive]: {} trace-derived footprint(s) diverge from the live capture",
            tfps.len()
        );
        ok = false;
    }
    // Both sanitizer paths must agree (and be clean) on this nominal run.
    let live = protoacc_absint::sanitize(
        &cell.records,
        &cell.footprints,
        cfg.instances,
        cell.offered,
        cell.dropped,
        &[],
    );
    let derived = protoacc_absint::from_trace::sanitize_trace(evs, cfg.instances, &[]);
    if !live.is_empty() || !derived.is_empty() {
        println!(
            "FAIL [trace sanitize]: live {} finding(s), trace-derived {} finding(s)",
            live.len(),
            derived.len()
        );
        ok = false;
    }

    let json = protoacc_trace::chrome::export(evs, &expected);
    if let Err(e) = std::fs::write(path, &json) {
        println!("FAIL [trace]: writing {path}: {e}");
        return false;
    }
    if ok {
        println!(
            "serve_trace OK ({} events, {} bytes -> {path})",
            evs.len(),
            json.len()
        );
    }
    ok
}

/// Seed for fault-injection schedules (instance scripts, armed memory
/// faults, wire corruption routing).
const FAULT_SEED: u64 = 0xFA_17;

/// The fault classes the `--faults` sweep injects, one per plane rung:
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
/// (wire plane), or armed faults per offered request (memory plane).
///
/// Note the records of a faulted run are *not* fed to the absint lifecycle
/// sanitizer: commands that degraded to the CPU carry the
/// `FALLBACK_INSTANCE` sentinel and retried commands legitimately overlap
/// their own earlier attempts, so `--sanitize` stays a nominal-run gate.
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
        |staging, mem| {
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
                    let wire = reference::encode(&p.message, &mix.schema).unwrap();
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
        },
    )
}

/// `--faults`: graceful-degradation sweep. Fault classes x kill-rates on a
/// 4-instance cluster, reporting how much of the offered load was served
/// (and on which rung of the degradation ladder), the retry bill, p99
/// latency, and goodput (completed wire bytes over the makespan — rejected
/// and failed commands move zero bytes).
fn faults_full() -> ExitCode {
    let mix = fleet_mix(8);
    let instances = 4;
    let events = stream(&mix, 256, 2_000.0);
    println!(
        "Fault sweep: {} requests, {instances} instances, watchdog = absint upper bound",
        events.len()
    );
    println!(
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
    );
    let mut nominal_p99 = 0;
    let mut ok = true;
    for class in std::iter::once("none").chain(FAULT_CLASSES) {
        let rates: &[f64] = if class == "none" {
            &[0.0]
        } else {
            &[0.25, 0.5, 1.0]
        };
        for &rate in rates {
            let res = run_faulted(&mix, &events, instances, class, rate);
            let (served_ok, fallback, rejected, failed, _) = res.status_counts();
            let p99 = res.latency_percentile(99.0);
            if class == "none" {
                nominal_p99 = p99;
            }
            if failed > 0 {
                ok = false;
            }
            println!(
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
            );
        }
    }
    println!();
    println!(
        "(nominal p99 = {nominal_p99} cycles; every row above must serve 100% of admitted load —\n\
         a Failed command means the degradation ladder has a hole)"
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("serve_faults: commands failed outright");
        ExitCode::FAILURE
    }
}

/// `--smoke --faults`: the CI gate for graceful degradation. Every fault
/// class at kill-rate 0.5 runs twice on a small stream; any Failed command,
/// shed load, unrecovered hang, or replay divergence fails the process.
fn faults_smoke() -> ExitCode {
    let mix = fleet_mix(8);
    let instances = 4;
    let mut failures = 0;
    for class in FAULT_CLASSES {
        let events = stream(&mix, 48, 3_000.0);
        let a = run_faulted(&mix, &events, instances, class, 0.5);
        let b = run_faulted(&mix, &events, instances, class, 0.5);
        let label = format!("faults class={class} rate=0.5");
        let (_, _, _, failed, _) = a.status_counts();
        if failed > 0 {
            println!("FAIL [{label}]: {failed} command(s) failed outright");
            failures += 1;
        }
        if a.dropped() > 0 {
            println!(
                "FAIL [{label}]: {} request(s) shed under faults",
                a.dropped()
            );
            failures += 1;
        }
        if a.served() != a.completed() as u64 {
            println!(
                "FAIL [{label}]: served {} of {} admitted requests",
                a.served(),
                a.completed()
            );
            failures += 1;
        }
        if a.fingerprint() != b.fingerprint() {
            println!(
                "FAIL [{label}]: nondeterministic replay\n  run1: {}\n  run2: {}",
                a.fingerprint(),
                b.fingerprint()
            );
            failures += 1;
        }
        println!("ok   [{label}] {}", a.fingerprint());
    }
    if failures > 0 {
        println!("serve_faults_smoke: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("serve_faults_smoke OK");
    ExitCode::SUCCESS
}

/// Tiny CI grid: every config runs twice; invariant violations or report
/// divergence fail the process.
fn smoke() -> ExitCode {
    let mix = fleet_mix(8);
    let mut failures = 0;
    for &instances in &[1usize, 2] {
        for &policy in &[DispatchPolicy::Fifo, DispatchPolicy::RoundRobin] {
            let events = stream(&mix, 48, 5_000.0);
            let cfg = config(instances, 16, policy);
            let a = clean(&mix, &events, cfg);
            let b = clean(&mix, &events, cfg);
            let label = format!("n={instances} policy={}", policy.label());
            if let Err(e) = a.check_invariants() {
                println!("FAIL [{label}]: invariant violated: {e}");
                failures += 1;
            }
            if a.fingerprint() != b.fingerprint() {
                println!(
                    "FAIL [{label}]: nondeterministic replay\n  run1: {}\n  run2: {}",
                    a.fingerprint(),
                    b.fingerprint()
                );
                failures += 1;
            }
            if a.completed() as u64 + a.dropped() != 48 {
                println!("FAIL [{label}]: accounting leak in report");
                failures += 1;
            }
            println!("ok   [{label}] {}", a.fingerprint());
        }
    }
    if failures > 0 {
        println!("serve_smoke: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("serve_smoke OK");
    ExitCode::SUCCESS
}

fn full() -> ExitCode {
    let mix = fleet_mix(32);
    println!(
        "Serving model: fleet-mix traffic ({} prototypes, mean {:.0} wire bytes, {:.0}% deser)",
        mix.prototypes.len(),
        mix.mean_encoded_size(),
        mix.deser_fraction * 100.0
    );

    // Calibrate mean service time on an uncontended single instance.
    let calib = clean(
        &mix,
        &stream(&mix, 128, 10_000_000.0),
        config(1, 64, DispatchPolicy::Fifo),
    );
    let calib = &calib.outcomes()[0];
    let service = calib.service_cycles() as f64 / calib.records.len().max(1) as f64;
    println!("calibration: mean uncontended service = {service:.0} cycles\n");

    // --- Throughput scaling vs instance count under saturating load. ---
    let saturating_gap = service / 16.0;
    println!("Instance scaling (fifo queue, depth 64, saturating load: gap = service/16)");
    println!(
        "{:<10} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14} {:>11}",
        "instances",
        "completed",
        "dropped",
        "p50 cyc",
        "p95 cyc",
        "p99 cyc",
        "Gbits/s",
        "efficiency"
    );
    let mut single = 0.0f64;
    let mut eight = None;
    for n in [1usize, 2, 4, 8] {
        let events = stream(&mix, 512, saturating_gap);
        let res = clean(&mix, &events, config(n, 64, DispatchPolicy::Fifo));
        if let Err(e) = res.check_invariants() {
            println!("invariant violated at n={n}: {e}");
            return ExitCode::FAILURE;
        }
        let gbits = res.aggregate_gbits();
        if n == 1 {
            single = gbits;
        }
        println!(
            "{n:<10} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14.3} {:>10.0}%",
            res.completed(),
            res.dropped(),
            res.latency_percentile(50.0),
            res.latency_percentile(95.0),
            res.latency_percentile(99.0),
            gbits,
            gbits / (single * n as f64) * 100.0
        );
        eight = Some(res);
    }
    println!();

    // --- Queue-policy comparison at n = 4. ---
    println!("Dispatch policy at 4 instances (same stream, gap = service/8)");
    println!(
        "{:<14} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "policy", "completed", "dropped", "p50 cyc", "p95 cyc", "p99 cyc", "Gbits/s"
    );
    for policy in [DispatchPolicy::Fifo, DispatchPolicy::RoundRobin] {
        let events = stream(&mix, 512, service / 8.0);
        let res = clean(&mix, &events, config(4, 64, policy));
        println!(
            "{:<14} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14.3}",
            policy.label(),
            res.completed(),
            res.dropped(),
            res.latency_percentile(50.0),
            res.latency_percentile(95.0),
            res.latency_percentile(99.0),
            res.aggregate_gbits()
        );
    }
    println!();

    // --- Offered-load saturation sweep at n = 4. ---
    println!("Saturation sweep (4 instances, fifo): offered load rho = service / (gap * 4)");
    println!(
        "{:<8} {:>12} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "rho", "gap cyc", "completed", "dropped", "p50 cyc", "p95 cyc", "p99 cyc", "Gbits/s"
    );
    for rho in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let gap = service / (4.0 * rho);
        let res = clean(
            &mix,
            &stream(&mix, 512, gap),
            config(4, 64, DispatchPolicy::Fifo),
        );
        println!(
            "{rho:<8} {:>12.0} {:>10} {:>8} {:>12} {:>12} {:>12} {:>14.3}",
            gap,
            res.completed(),
            res.dropped(),
            res.latency_percentile(50.0),
            res.latency_percentile(95.0),
            res.latency_percentile(99.0),
            res.aggregate_gbits()
        );
    }
    println!();

    // --- Per-requester memory attribution from the saturated 8-way run. ---
    let eight = eight.expect("the scaling sweep ends at 8 instances");
    println!("Per-instance memory traffic (8-way saturated run)");
    println!(
        "{:<10} {:>12} {:>14} {:>10} {:>10}",
        "instance", "accesses", "bytes", "llc hits", "dram frac"
    );
    for (i, s) in eight.outcomes()[0].mem_stats.iter().enumerate() {
        println!(
            "{i:<10} {:>12} {:>14} {:>10} {:>10.4}",
            s.accesses,
            s.bytes,
            s.llc_hits,
            s.dram_fraction()
        );
    }
    println!();
    println!(
        "(sharers-aware streaming splits the outstanding-miss budget across busy\n\
         instances, so aggregate throughput scales sublinearly past the point the\n\
         shared LLC/DRAM path saturates — the serving-model analogue of Fig 13's\n\
         memory-bandwidth ceiling)"
    );
    ExitCode::SUCCESS
}

// --- Sharded engine ----------------------------------------------------

/// Number of cells in the fixed shard decomposition. The sweep is *always*
/// cut into this many independently seeded cells regardless of worker
/// count — `--shards N` only picks how many threads run them — so the
/// merged report is a pure function of the seeds, and N workers must agree
/// bit-for-bit with 1 worker (the sequential reference).
const SHARD_CELLS: usize = 8;
/// Accelerator instances per shard cell. Within a cell, the instances
/// share the cell's private LLC slice and contend exactly as the
/// sequential model does.
const SHARD_INSTANCES: usize = 2;

/// Simulates the fixed decomposition — one cell per stream of
/// `mix.shard_streams`, each on a private `1/SHARD_CELLS` LLC slice — on up
/// to `workers` threads, and merges deterministically in shard-index order.
fn run_sharded(
    mix: &TrafficMix,
    streams: &[Vec<TrafficEvent>],
    workers: usize,
    trace: bool,
) -> ShardedCluster {
    let mem = MemConfig::default().llc_slice(SHARD_CELLS);
    let cfg = config(SHARD_INSTANCES, 32, DispatchPolicy::Fifo);
    let capture = Capture {
        trace,
        ..Capture::default()
    };
    ShardedCluster::run(streams, workers, |shard, events| {
        run_cell(shard, mix, mem, cfg, capture, |staging, _| {
            (staging.requests(events), Vec::new())
        })
    })
}

/// `--shards N`: the sequential-vs-sharded equivalence gate. Runs the
/// fixed decomposition once on 1 worker (the sequential reference) and
/// once on `workers`, tracing both, and requires bit-identical
/// fingerprints, clean per-shard queue invariants, and a passing
/// accounting audit over the stitched multi-shard trace log. The
/// fingerprint is printed on its own line so CI can also diff it across
/// separate invocations (`--shards 4` vs `--shards 1`).
fn shard_smoke(workers: usize) -> bool {
    let mix = fleet_mix(8);
    let cells = mix.shard_streams(STREAM_SEED, SHARD_CELLS, 48, 3_000.0);
    let sequential = run_sharded(&mix, &cells, 1, true);
    let sharded = run_sharded(&mix, &cells, workers, true);
    let mut ok = true;
    if let Err(e) = sharded.check_invariants() {
        println!("FAIL [shards={workers}]: invariant violated: {e}");
        ok = false;
    }
    if sequential.fingerprint() != sharded.fingerprint() {
        println!(
            "FAIL [shards={workers}]: sharded run diverged from sequential\n  \
             seq:     {}\n  sharded: {}",
            sequential.fingerprint(),
            sharded.fingerprint()
        );
        ok = false;
    }
    let report = protoacc_trace::audit(&sharded.stitched_events(), &sharded.expected_stats());
    if report.ok() {
        println!(
            "ok   [shards={workers} stitched audit] {} instance(s) across {} shard(s)",
            report.per_instance.len(),
            cells.len()
        );
    } else {
        for p in &report.problems {
            println!("FAIL [shards={workers} stitched audit]: {p}");
        }
        ok = false;
    }
    println!("sharded fingerprint: {}", sharded.fingerprint());
    if ok {
        println!(
            "serve_shard_smoke OK ({} cells x {SHARD_INSTANCES} instances, {workers} worker(s))",
            cells.len()
        );
    }
    ok
}

/// `--bench-shards <out.json>`: wall-clock scaling of the sharded engine.
/// Runs the same fixed decomposition at worker counts 1/2/4/8, requires
/// every run's fingerprint to match the 1-worker reference, and writes the
/// speedup table as JSON. Fails if 4 workers are not at least as fast as
/// 1 (speedup < 1.0x).
fn bench_shards(path: &str, total_commands: usize) -> ExitCode {
    let mix = fleet_mix(16);
    let per_shard = (total_commands / SHARD_CELLS).max(1);
    let cells = mix.shard_streams(STREAM_SEED, SHARD_CELLS, per_shard, 2_000.0);
    println!(
        "Shard scaling: {} commands over {SHARD_CELLS} cells x {SHARD_INSTANCES} instances",
        per_shard * SHARD_CELLS
    );
    println!(
        "{:<8} {:>10} {:>9} {:>12} {:>12} {:>13}",
        "shards", "wall s", "speedup", "completed", "p99 cyc", "agg Gbits/s"
    );
    let mut reference: Option<String> = None;
    let mut base_wall = 0.0f64;
    let mut rows = Vec::new();
    let mut deterministic = true;
    let mut ok = true;
    for &workers in &[1usize, 2, 4, 8] {
        let t0 = Instant::now();
        let run = run_sharded(&mix, &cells, workers, false);
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        if let Err(e) = run.check_invariants() {
            println!("FAIL [shards={workers}]: invariant violated: {e}");
            ok = false;
        }
        let fp = run.fingerprint();
        match &reference {
            None => {
                reference = Some(fp);
                base_wall = wall;
            }
            Some(r) if *r != fp => {
                println!("FAIL [shards={workers}]: fingerprint diverged from the 1-worker run");
                deterministic = false;
                ok = false;
            }
            Some(_) => {}
        }
        let speedup = base_wall / wall;
        println!(
            "{workers:<8} {wall:>10.3} {speedup:>8.2}x {:>12} {:>12} {:>13.3}",
            run.completed(),
            run.latency_percentile(99.0),
            run.aggregate_gbits()
        );
        rows.push((workers, wall, speedup));
    }
    // Speedup floor: at the largest worker count the hardware can actually
    // run in parallel (capped at 4), the sharded engine must not be slower
    // than sequential — the merge and thread pool cost nothing at this
    // granularity. Worker counts past the hardware width are recorded for
    // the table but are pure oversubscription, so they are not gated.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let gate_workers = [1usize, 2, 4]
        .into_iter()
        .filter(|&w| w <= threads)
        .max()
        .unwrap_or(1);
    let gate_speedup = rows
        .iter()
        .find(|r| r.0 == gate_workers)
        .map_or(0.0, |r| r.2);
    if gate_speedup < 1.0 {
        println!(
            "FAIL [bench-shards]: speedup at {gate_workers} worker(s) regressed below 1.0x \
             ({gate_speedup:.2}x on {threads} hardware thread(s))"
        );
        ok = false;
    }
    let rows = rows.iter().map(|&(workers, wall, speedup)| {
        Json::obj([
            ("shards", workers.into()),
            ("wall_s", Json::fixed(wall, 6)),
            ("speedup", Json::fixed(speedup, 4)),
        ])
    });
    let json = json::write(&Json::obj([
        ("schema_version", 1u32.into()),
        ("bench", "serve_shard".into()),
        ("cells", SHARD_CELLS.into()),
        ("instances_per_cell", SHARD_INSTANCES.into()),
        ("commands", (per_shard * SHARD_CELLS).into()),
        ("hardware_threads", threads.into()),
        ("deterministic", deterministic.into()),
        ("rows", Json::Arr(rows.collect())),
    ]));
    if let Err(e) = std::fs::write(path, &json) {
        println!("FAIL [bench-shards]: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench-shards: wrote {path}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = Args::parse(USAGE);
    let smoke_flag = args.flag("--smoke");
    let sanitize_flag = args.flag("--sanitize");
    let faults_flag = args.flag("--faults");
    let trace_path: Option<String> = args.value("--trace");
    let shard_workers: Option<usize> = args.value("--shards");
    let commands = args.value("--commands").unwrap_or(1_000_000);
    if let Some(path) = args.value::<String>("--bench-shards") {
        return bench_shards(&path, commands);
    }
    if sanitize_flag && !sanitize_mode() {
        return ExitCode::FAILURE;
    }
    if let Some(path) = &trace_path {
        if !trace_mode(path) {
            return ExitCode::FAILURE;
        }
    }
    if faults_flag {
        return if smoke_flag {
            faults_smoke()
        } else {
            faults_full()
        };
    }
    if smoke_flag {
        let code = smoke();
        if let Some(workers) = shard_workers {
            if !shard_smoke(workers) {
                return ExitCode::FAILURE;
            }
        }
        return code;
    }
    if let Some(workers) = shard_workers {
        return if shard_smoke(workers) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if sanitize_flag || trace_path.is_some() {
        ExitCode::SUCCESS
    } else {
        full()
    }
}

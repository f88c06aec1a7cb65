//! Simulated serve-cluster workloads, reported in simulated cycles (and
//! the simulator's own host speed).
//!
//! * `sim-rpc-2x`: [`RpcServer`] in front of a 4-instance FIFO
//!   [`ServeCluster`], open-loop Poisson frames over 8 connections at twice
//!   the calibrated capacity, every request carrying a deadline of 4× its
//!   method's admission cost.
//! * `sim-sharded`: [`ShardedCluster`] over 8 cells × 2 instances, each cell
//!   with a 1/8 LLC slice and its own split-seeded stream, open loop at 70%
//!   of a cell's capacity, no deadlines, 2 workers.
//!
//! The prototype population is the fixed fleet sample (`MIX_SEED`), and the
//! capacity calibration uses a fixed stream, so a workload's offered load
//! does not depend on `--seed`; the seed draws the request stream. Latency
//! is timed from when a request was due: its scheduled frame arrival, not
//! its post-deferral enqueue.

use std::sync::Mutex;
use std::time::Instant;

use protoacc::{
    AccelConfig, AccelStats, CommandRecord, CommandStatus, DispatchPolicy, Request, RequestOp,
    ServeCluster, ServeConfig, ShardOutcome, ShardedCluster,
};
use protoacc_absint::Envelope;
use protoacc_fleet::traffic::{split_seed, TrafficEvent, TrafficMix};
use protoacc_mem::{Cycles, MemConfig, Memory};
use protoacc_rpc::{encode_frame, IncomingFrame, Method, RpcConfig, RpcHeader, RpcServer};
use protoacc_runtime::{object, reference, write_adts, BumpArena, MessageLayouts};
use protoacc_trace::{ExpectedStats, MetricsRegistry, TraceEvent, TraceLog};
use xrand::StdRng;

use crate::{machine_speed, machine_speed_on, median, percentile, ratio, Outcome};

/// Seed of the prototype population (the fixed fleet sample).
const MIX_SEED: u64 = 0xF1EE7;
/// Prototypes in the population.
const PROTOTYPES: usize = 16;
/// Seed of the sparse stream that calibrates uncontended service.
const CALIBRATION_SEED: u64 = 0x10AD;
/// Per-instance slice of guest memory for arenas (64 MiB).
const ARENA_STRIDE: u64 = 1 << 26;
const ARENA_BASE: u64 = 0x1_0000_0000;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// `sim-rpc-2x`: accelerator instances behind the server.
const RPC_INSTANCES: usize = 4;
/// `sim-rpc-2x`: connections the open-loop schedule spreads across.
const RPC_CONNS: usize = 8;
/// `sim-rpc-2x`: deadline budget as a multiple of the admission cost.
const DEADLINE_SLACK: u64 = 4;
/// `sim-rpc-2x`: per-connection credit window.
const RPC_WINDOW: usize = 16;
/// `sim-rpc-2x`: offered load as a multiple of calibrated capacity.
const RPC_RHO: f64 = 2.0;
/// `sim-rpc-2x`: requests per simulation (the simulated metrics' run).
pub const RPC_REQUESTS: usize = 20_000;
/// `sim-rpc-2x`: requests of the repeated, host-timed runs (a prefix of
/// the same stream).
pub const RPC_TIMED_REQUESTS: usize = 5_000;

/// `sim-sharded`: cells in the fixed decomposition.
pub const SHARD_CELLS: usize = 8;
/// `sim-sharded`: instances per cell.
const SHARD_INSTANCES: usize = 2;
/// `sim-sharded`: offered load per cell as a fraction of its capacity.
const SHARD_RHO: f64 = 0.7;
/// `sim-sharded`: worker threads.
pub const SHARD_WORKERS: usize = 2;
/// `sim-sharded`: requests per cell (the simulated metrics' run).
pub const SHARD_PER_CELL: usize = 25_000;
/// `sim-sharded`: requests per cell of the repeated, host-timed runs.
pub const SHARD_TIMED_PER_CELL: usize = 2_500;

/// Queue depth for both workloads: deep enough that nothing overflows
/// (admission control, not the queue bound, is what pushes back).
const QUEUE_DEPTH: usize = 256;

/// Guest addresses of one staged prototype.
#[derive(Debug, Clone, Copy)]
struct Staged {
    adt_ptr: u64,
    input_addr: u64,
    input_len: u64,
    dest_obj: u64,
    obj_ptr: u64,
    hasbits_offset: u64,
    min_field: u32,
    max_field: u32,
}

impl Staged {
    fn op(&self, deser: bool) -> RequestOp {
        if deser {
            RequestOp::Deserialize {
                adt_ptr: self.adt_ptr,
                input_addr: self.input_addr,
                input_len: self.input_len,
                dest_obj: self.dest_obj,
                min_field: self.min_field,
            }
        } else {
            RequestOp::Serialize {
                adt_ptr: self.adt_ptr,
                obj_ptr: self.obj_ptr,
                hasbits_offset: self.hasbits_offset,
                min_field: self.min_field,
                max_field: self.max_field,
            }
        }
    }
}

/// Writes ADT images, wire inputs, and object graphs for every prototype.
/// Addresses depend only on the mix, so every staging of one mix agrees.
fn stage(mix: &TrafficMix, layouts: &MessageLayouts, mem: &mut Memory) -> Vec<Staged> {
    let mut setup = BumpArena::new(0x1_0000, 1 << 26);
    let adts = write_adts(&mix.schema, layouts, &mut mem.data, &mut setup)
        .expect("ADT images fit the set-up arena");
    let mut input_cursor = 0x2000_0000u64;
    let mut objects = BumpArena::new(0x8000_0000, 1 << 30);
    mix.prototypes
        .iter()
        .map(|p| {
            let wire = reference::encode(&p.message, &mix.schema).expect("prototype encodes");
            let input_addr = input_cursor;
            mem.data.write_bytes(input_addr, &wire);
            input_cursor += wire.len() as u64 + 64;
            let obj_ptr = object::write_message(
                &mut mem.data,
                &mix.schema,
                layouts,
                &mut objects,
                &p.message,
            )
            .expect("object graph fits the object arena");
            let layout = layouts.layout(p.type_id);
            let dest_obj = objects
                .alloc(layout.object_size(), 8)
                .expect("destination fits the object arena");
            Staged {
                adt_ptr: adts.addr(p.type_id),
                input_addr,
                input_len: wire.len() as u64,
                dest_obj,
                obj_ptr,
                hasbits_offset: layout.hasbits_offset(),
                min_field: layout.min_field(),
                max_field: layout.max_field(),
            }
        })
        .collect()
}

fn serve_config(instances: usize) -> ServeConfig {
    ServeConfig {
        instances,
        queue_depth: QUEUE_DEPTH,
        policy: DispatchPolicy::Fifo,
        ..ServeConfig::default()
    }
}

fn to_requests(events: &[TrafficEvent], staged: &[Staged]) -> Vec<Request> {
    events
        .iter()
        .map(|e| Request {
            arrival: e.arrival,
            watchdog: None,
            deadline: None,
            cost: None,
            op: staged[e.prototype].op(e.deser),
        })
        .collect()
}

/// Mean uncontended service cycles of the population under `mem_cfg`: a
/// sparse fixed-seed stream through one instance.
fn calibrate(mix: &TrafficMix, layouts: &MessageLayouts, mem_cfg: MemConfig) -> f64 {
    let mut mem = Memory::new(mem_cfg);
    let staged = stage(mix, layouts, &mut mem);
    let events = mix.stream(
        &mut StdRng::seed_from_u64(CALIBRATION_SEED),
        64,
        10_000_000.0,
    );
    let mut cluster = ServeCluster::new(serve_config(1), ARENA_BASE, ARENA_STRIDE);
    cluster
        .run(&mut mem, &to_requests(&events, &staged))
        .expect("calibration stream serves");
    let records = cluster.records();
    records.iter().map(|r| r.service).sum::<u64>() as f64 / records.len().max(1) as f64
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Population, capacity calibration, request stream (and frames).
    pub traffic_s: f64,
    /// ADT images and object graphs.
    pub stage_s: f64,
    /// Absint `Envelope::deser` / `Envelope::ser` per prototype.
    pub envelope_s: f64,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Order-sensitive hash of every record field.
fn records_hash(records: &[CommandRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in records {
        for v in [
            r.seq as u64,
            r.enqueue,
            r.dispatch,
            r.complete,
            r.service,
            r.instance as u64,
            r.wire_bytes,
            u64::from(r.deser),
            r.sharers as u64,
            u64::from(r.attempts),
        ] {
            fnv(&mut h, &v.to_le_bytes());
        }
        fnv(&mut h, format!("{:?}", r.status).as_bytes());
    }
    h
}

/// Everything a simulation run reports, on both clocks.
#[derive(Debug, Default)]
pub struct SimRun {
    /// Canonical text of every simulated outcome (never host time).
    pub fingerprint: String,
    /// Requests offered.
    pub offered: u64,
    /// `(ok, fallback, rejected, failed, shed)`.
    pub status: (u64, u64, u64, u64, u64),
    /// Queue-overflow drops.
    pub dropped: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Served (ok + fallback) within the deadline budget, counted from due
    /// time; every served request where there are no deadlines.
    pub in_budget: u64,
    /// Served-request latency from due time, sorted.
    pub latency_from_due: Vec<Cycles>,
    /// Served-request queue wait (dispatch − enqueue), sorted.
    pub queue_wait: Vec<Cycles>,
    /// Served-request service cycles, sorted.
    pub service: Vec<Cycles>,
    /// Every record's deferral wait (enqueue − due), sorted.
    pub deferral_wait: Vec<Cycles>,
    /// Requests whose arrival a credit window pushed back.
    pub deferred: u64,
    /// Frame and header errors (clean traffic: must be 0).
    pub frame_errors: u64,
    /// Simulated goodput of served wire bytes, Gbit/s.
    pub gbits: f64,
    /// All instances' stats merged.
    pub stats: AccelStats,
    /// First queue-accounting invariant violation, if any.
    pub invariant_violation: Option<String>,
    /// Trace events (traced runs only).
    pub events: Vec<TraceEvent>,
    /// Per-instance expected stats for the trace audit.
    pub expected: Vec<ExpectedStats>,
    /// Host seconds of the simulation proper (staging excluded).
    pub host_s: f64,
    /// `sim-sharded`: host seconds of each cell, timed inside its closure.
    pub cell_s: Vec<f64>,
    /// `sim-sharded`: host seconds of the merge calls.
    pub merge_s: f64,
}

impl SimRun {
    /// Requests that went wrong: typed rejections, failures, and queue
    /// drops. Sheds are admission control doing its job, not failures.
    #[must_use]
    pub fn wrong(&self) -> u64 {
        self.status.2 + self.status.3 + self.dropped
    }

    /// The correctness gate: five-way accounting identity, nothing dropped
    /// or rejected on clean traffic, clean invariants, no frame errors.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        let (ok, fb, rej, failed, shed) = self.status;
        if ok + fb + rej + failed + shed + self.dropped != self.offered {
            p.push(format!(
                "accounting: {ok}+{fb}+{rej}+{failed}+{shed}+{} != {} offered",
                self.dropped, self.offered
            ));
        }
        if self.dropped > 0 {
            p.push(format!(
                "{} request(s) dropped on queue overflow",
                self.dropped
            ));
        }
        if rej + failed > 0 {
            p.push(format!("{rej} rejected / {failed} failed on clean traffic"));
        }
        if self.frame_errors > 0 {
            p.push(format!("{} frame/header error(s)", self.frame_errors));
        }
        if let Some(e) = &self.invariant_violation {
            p.push(format!("invariants: {e}"));
        }
        p
    }

    fn fold_records<'r>(
        &mut self,
        records: impl Iterator<Item = (&'r CommandRecord, Cycles, Option<Cycles>)>,
    ) {
        for (r, due, budget) in records {
            self.deferral_wait.push(r.enqueue.saturating_sub(due));
            if matches!(r.status, CommandStatus::Ok | CommandStatus::Fallback) {
                let lat = r.complete - due;
                self.latency_from_due.push(lat);
                self.queue_wait.push(r.dispatch - r.enqueue);
                self.service.push(r.service);
                if budget.is_none_or(|b| lat <= b) {
                    self.in_budget += 1;
                }
            }
        }
        self.latency_from_due.sort_unstable();
        self.queue_wait.sort_unstable();
        self.service.sort_unstable();
        self.deferral_wait.sort_unstable();
    }
}

// --- sim-rpc-2x -----------------------------------------------------------

/// Inputs of `sim-rpc-2x`.
pub struct RpcSetup {
    mix: TrafficMix,
    layouts: MessageLayouts,
    methods: Vec<Method>,
    /// The frame schedule (one frame per request, arrival-sorted).
    pub frames: Vec<IncomingFrame>,
    /// Each frame's deadline budget, cycles from its due time.
    budgets: Vec<Cycles>,
    /// Calibrated mean uncontended service cycles.
    pub service: f64,
    /// Set-up phase timings.
    pub times: SetupTimes,
}

impl RpcSetup {
    /// Builds the population, method table and `requests`-frame schedule.
    #[must_use]
    pub fn build(seed: u64, requests: usize) -> Self {
        let accel = AccelConfig::default();
        let mem_cfg = MemConfig::default();
        let t = Instant::now();
        let mix = TrafficMix::build(&mut StdRng::seed_from_u64(MIX_SEED), PROTOTYPES);
        let layouts = MessageLayouts::compute(&mix.schema);
        let mut traffic_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let envelopes: Vec<(Envelope, Envelope)> = mix
            .prototypes
            .iter()
            .map(|p| {
                (
                    Envelope::deser(&mix.schema, &layouts, p.type_id, &accel, &mem_cfg),
                    Envelope::ser(&mix.schema, &layouts, p.type_id, &accel, &mem_cfg),
                )
            })
            .collect();
        let envelope_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut mem = Memory::new(mem_cfg);
        let staged = stage(&mix, &layouts, &mut mem);
        let methods: Vec<Method> = staged
            .iter()
            .zip(&envelopes)
            .map(|(s, (de, se))| {
                Method::from_envelopes(s.op(true), s.op(false), de, se, s.input_len, s.input_len)
            })
            .collect();
        let stage_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let service = calibrate(&mix, &layouts, mem_cfg);
        let gap = service / (RPC_INSTANCES as f64 * RPC_RHO);
        let events = mix.stream(
            &mut StdRng::seed_from_u64(split_seed(seed, 1)),
            requests,
            gap,
        );
        let (frames, budgets) = events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let m = methods[e.prototype];
                let budget =
                    if e.deser { m.deser_cost } else { m.ser_cost }.saturating_mul(DEADLINE_SLACK);
                let header = RpcHeader {
                    method: e.prototype as u32,
                    deser: e.deser,
                    deadline: Some(budget),
                };
                let bytes =
                    encode_frame(false, &header.to_payload()).expect("header fits the frame");
                (
                    IncomingFrame {
                        conn: i % RPC_CONNS,
                        arrival: e.arrival,
                        bytes,
                    },
                    budget,
                )
            })
            .unzip();
        traffic_s += t.elapsed().as_secs_f64();
        RpcSetup {
            mix,
            layouts,
            methods,
            frames,
            budgets,
            service,
            times: SetupTimes {
                traffic_s,
                stage_s,
                envelope_s,
            },
        }
    }

    /// Guest bytes one simulation stages plus the frame schedule.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        staged_bytes(&self.mix, &self.layouts)
            + self.frames.iter().map(|f| f.bytes.len()).sum::<usize>()
    }
}

fn staged_bytes(mix: &TrafficMix, layouts: &MessageLayouts) -> usize {
    mix.prototypes
        .iter()
        .map(|p| {
            let obj = layouts.layout(p.type_id).object_size() as usize;
            p.encoded_size as usize + 2 * obj
        })
        .sum()
}

/// One `sim-rpc-2x` simulation on fresh memory. With `per_frame`, also
/// returns the host ns of each `RpcServer::serve` call.
///
/// # Errors
///
/// A model-level serve error (bad staging), never a traffic outcome.
pub fn run_rpc(
    setup: &RpcSetup,
    traced: bool,
    per_frame: bool,
) -> Result<(SimRun, Vec<u64>), String> {
    let mut mem = Memory::new(MemConfig::default());
    stage(&setup.mix, &setup.layouts, &mut mem);
    let mut srv = RpcServer::new(
        serve_config(RPC_INSTANCES),
        RpcConfig {
            window: RPC_WINDOW,
            ..RpcConfig::default()
        },
        setup.methods.clone(),
        ARENA_BASE,
        ARENA_STRIDE,
    );
    let log = traced.then(TraceLog::shared);
    if let Some(log) = &log {
        srv.set_tracer(Some(log.clone()));
    }
    let mut frame_ns = Vec::with_capacity(if per_frame { setup.frames.len() } else { 0 });
    let mut events = Vec::new();
    let t = Instant::now();
    for (i, f) in setup.frames.iter().enumerate() {
        let t0 = per_frame.then(Instant::now);
        srv.serve(&mut mem, std::slice::from_ref(f))
            .map_err(|e| format!("serve: {e}"))?;
        if let Some(t0) = t0 {
            frame_ns.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if let Some(log) = &log {
            // Each frame is its own cluster `run` call, whose command seq
            // starts at 0: shift it to the frame index so the whole run is
            // one log with unique seqs.
            let mut frame_events = std::mem::take(&mut log.borrow_mut().events);
            protoacc_trace::retag(
                &mut frame_events,
                protoacc_trace::ShardTags {
                    instance: 0,
                    requester: 0,
                    seq: i,
                    conn: 0,
                },
            );
            events.append(&mut frame_events);
        }
    }
    let host_s = t.elapsed().as_secs_f64();
    srv.set_tracer(None);

    let cluster = srv.cluster();
    let rpc = srv.stats();
    let instances = cluster.config().instances;
    let mut stats = AccelStats::default();
    for i in 0..instances {
        stats.merge(&cluster.instance_stats(i));
    }
    let mut run = SimRun {
        offered: cluster.offered(),
        status: cluster.status_counts(),
        dropped: cluster.dropped(),
        retries: cluster.retries(),
        deferred: rpc.deferred,
        frame_errors: rpc.frame_errors
            + rpc.header_errors
            + (setup.frames.len() as u64).saturating_sub(rpc.frames),
        gbits: cluster.throughput_gbits(),
        stats,
        invariant_violation: cluster.check_invariants().err(),
        events,
        expected: expected_stats(cluster),
        host_s,
        ..SimRun::default()
    };
    // The server offers each frame to the cluster in its own `run` call, so
    // record `i` belongs to frame `i` as long as every frame routed and
    // nothing overflowed (the gate checks both; `seq` restarts per call).
    let records = cluster.records();
    if records.len() != setup.frames.len() {
        run.frame_errors += 1;
    }
    run.fold_records(
        records
            .iter()
            .zip(setup.frames.iter().zip(&setup.budgets))
            .map(|(r, (f, &budget))| (r, f.arrival, Some(budget))),
    );
    run.fingerprint = format!(
        "status={:?} dropped={} offered={} rpc={rpc:?} stats={:?} gbits={:.6} records={:016x}",
        run.status,
        run.dropped,
        run.offered,
        run.stats,
        run.gbits,
        records_hash(cluster.records())
    );
    Ok((run, frame_ns))
}

fn expected_stats(cluster: &ServeCluster) -> Vec<ExpectedStats> {
    (0..cluster.config().instances)
        .map(|i| {
            let s = cluster.instance_stats(i);
            ExpectedStats {
                instance: i,
                deser_ops: s.deser_ops,
                deser_cycles: s.deser_cycles,
                ser_ops: s.ser_ops,
                ser_cycles: s.ser_cycles,
                saturated: s.saturated,
            }
        })
        .collect()
}

// --- sim-sharded ----------------------------------------------------------

/// One cell of the fixed decomposition.
pub struct Cell {
    shard: usize,
    /// The cell's open-loop stream.
    pub events: Vec<TrafficEvent>,
}

/// Inputs of `sim-sharded`.
pub struct ShardSetup {
    mix: TrafficMix,
    layouts: MessageLayouts,
    /// The fixed decomposition.
    pub cells: Vec<Cell>,
    /// Calibrated mean uncontended service cycles in one cell.
    pub service: f64,
    /// Set-up phase timings.
    pub times: SetupTimes,
}

fn cell_mem_config() -> MemConfig {
    MemConfig::default().llc_slice(SHARD_CELLS)
}

impl ShardSetup {
    /// Builds the population and the `SHARD_CELLS` split-seeded streams of
    /// `per_cell` requests each.
    #[must_use]
    pub fn build(seed: u64, per_cell: usize) -> Self {
        let t = Instant::now();
        let mix = TrafficMix::build(&mut StdRng::seed_from_u64(MIX_SEED), PROTOTYPES);
        let layouts = MessageLayouts::compute(&mix.schema);
        let mut traffic_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        stage(&mix, &layouts, &mut Memory::new(cell_mem_config()));
        let stage_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let service = calibrate(&mix, &layouts, cell_mem_config());
        let gap = service / (SHARD_INSTANCES as f64 * SHARD_RHO);
        let cells = mix
            .shard_streams(split_seed(seed, 2), SHARD_CELLS, per_cell, gap)
            .into_iter()
            .enumerate()
            .map(|(shard, events)| Cell { shard, events })
            .collect();
        traffic_s += t.elapsed().as_secs_f64();
        ShardSetup {
            mix,
            layouts,
            cells,
            service,
            times: SetupTimes {
                traffic_s,
                stage_s,
                envelope_s: 0.0,
            },
        }
    }

    /// Guest bytes the cells stage plus their streams.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        SHARD_CELLS * staged_bytes(&self.mix, &self.layouts)
            + self
                .cells
                .iter()
                .map(|c| c.events.len() * std::mem::size_of::<TrafficEvent>())
                .sum::<usize>()
    }
}

/// Builds and runs one cell end to end on the calling thread.
fn run_cell(setup: &ShardSetup, cell: &Cell, traced: bool) -> ShardOutcome {
    let mut mem = Memory::new(cell_mem_config());
    let staged = stage(&setup.mix, &setup.layouts, &mut mem);
    let requests = to_requests(&cell.events, &staged);
    let mut cluster = ServeCluster::new(serve_config(SHARD_INSTANCES), ARENA_BASE, ARENA_STRIDE);
    let log = traced.then(TraceLog::shared);
    if let Some(log) = &log {
        cluster.set_tracer(Some(log.clone()));
    }
    cluster
        .run(&mut mem, &requests)
        .expect("staged cell serves");
    cluster.set_tracer(None);
    let events = log.map_or_else(Vec::new, |l| std::mem::take(&mut l.borrow_mut().events));
    ShardOutcome::capture(cell.shard, &cluster, &mem, events)
}

/// Runs the decomposition on `workers` threads and merges it. The
/// fingerprint is [`ShardedCluster::fingerprint`]; traced runs carry the
/// stitched event log and its expected stats.
#[must_use]
pub fn run_sharded(setup: &ShardSetup, workers: usize, traced: bool) -> SimRun {
    let cell_s: Vec<Mutex<f64>> = setup.cells.iter().map(|_| Mutex::new(0.0)).collect();
    let t = Instant::now();
    let sharded = ShardedCluster::run(&setup.cells, workers, |i, cell| {
        let t = Instant::now();
        let out = run_cell(setup, cell, traced);
        *cell_s[i].lock().expect("cell timer poisoned") = t.elapsed().as_secs_f64();
        out
    });
    let host_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let fingerprint = sharded.fingerprint();
    let p = (
        sharded.latency_percentile(50.0),
        sharded.latency_percentile(99.0),
        sharded.aggregate_gbits(),
    );
    let merge_s = t.elapsed().as_secs_f64();
    std::hint::black_box(p);

    let (events, expected) = if traced {
        (sharded.stitched_events(), sharded.expected_stats())
    } else {
        (Vec::new(), Vec::new())
    };
    let outcomes = sharded.outcomes();
    let mut run = SimRun {
        fingerprint,
        offered: sharded.offered(),
        status: sharded.status_counts(),
        dropped: sharded.dropped(),
        retries: sharded.retries(),
        gbits: sharded.aggregate_gbits(),
        stats: sharded.merged_stats(),
        invariant_violation: sharded.check_invariants().err(),
        events,
        expected,
        host_s,
        cell_s: cell_s
            .into_iter()
            .map(|m| m.into_inner().expect("cell timer poisoned"))
            .collect(),
        merge_s,
        ..SimRun::default()
    };
    run.fold_records(outcomes.iter().flat_map(|o| {
        let events = &setup.cells[o.shard].events;
        o.records
            .iter()
            .map(move |r| (r, events.get(r.seq).map_or(r.enqueue, |e| e.arrival), None))
    }));
    run
}

// --- Metrics ----------------------------------------------------------------

fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 / AccelConfig::default().freq_ghz
}

/// End-to-end metrics of one (untraced) simulation, on `reqs_per_host_s`.
fn end_to_end(out: &mut Outcome, run: &SimRun, reqs_per_host_s: f64) {
    out.set("req_per_host_s", reqs_per_host_s);
    out.set("wire_gbits", run.gbits);
    out.set(
        "p50_ns",
        cycles_to_ns(percentile(&run.latency_from_due, 50.0)),
    );
    out.set(
        "p99_ns",
        cycles_to_ns(percentile(&run.latency_from_due, 99.0)),
    );
    out.set(
        "in_budget_share",
        ratio(run.in_budget as f64, run.offered as f64),
    );
    out.facts.push((
        "sim_p50_cycles",
        percentile(&run.latency_from_due, 50.0).to_string(),
    ));
    out.facts.push((
        "sim_p99_cycles",
        percentile(&run.latency_from_due, 99.0).to_string(),
    ));
    out.facts
        .push(("sim_fingerprint", crate::json_str(&run.fingerprint)));
}

/// Per-layer metrics of the serve cluster, accelerator and memory.
fn per_layer(out: &mut Outcome, run: &SimRun, traced: &SimRun) {
    let offered = run.offered as f64;
    out.set("serve.shed_share", ratio(run.status.4 as f64, offered));
    out.set(
        "serve.queue_wait_cycles.p50",
        percentile(&run.queue_wait, 50.0) as f64,
    );
    out.set(
        "serve.queue_wait_cycles.p99",
        percentile(&run.queue_wait, 99.0) as f64,
    );
    out.set(
        "serve.service_cycles.p50",
        percentile(&run.service, 50.0) as f64,
    );
    out.set(
        "serve.service_cycles.p99",
        percentile(&run.service, 99.0) as f64,
    );
    out.set("serve.retries", run.retries as f64);
    out.set("serve.fallback_share", ratio(run.status.1 as f64, offered));

    let s = &run.stats;
    let ops = (s.deser_ops + s.ser_ops) as f64;
    out.set("accel.fields", ratio(s.fields as f64, ops));
    out.set("accel.varints", ratio(s.varints as f64, ops));
    out.set("accel.stack_spills", ratio(s.stack_spills as f64, ops));

    let reg = MetricsRegistry::from_events(&traced.events);
    let mean_of = |base: &str| {
        let (mut sum, mut n) = (0u128, 0u64);
        for (name, h) in reg.histograms() {
            if name == base || name.strip_prefix(base).is_some_and(|r| r.starts_with('{')) {
                sum += h.sum();
                n += h.count();
            }
        }
        ratio(sum as f64, n as f64)
    };
    out.set("accel.deser_fsm_cycles", mean_of("deser_fsm_cycles"));
    out.set("accel.deser_stream_cycles", mean_of("deser_stream_cycles"));
    out.set("accel.ser_frontend_cycles", mean_of("ser_frontend_cycles"));
    out.set("accel.ser_fsu_cycles", mean_of("ser_fsu_cycles"));
    out.set(
        "accel.ser_memwriter_cycles",
        mean_of("ser_memwriter_cycles"),
    );
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (name, v) in reg.counters() {
        if name.starts_with("adt_") {
            lookups += v;
            if name.ends_with("_hits") {
                hits += v;
            }
        }
    }
    out.set("accel.adt_hit_share", ratio(hits as f64, lookups as f64));
    let lines: u64 = [
        "mem_l1_hits",
        "mem_l2_hits",
        "mem_llc_hits",
        "mem_dram_accesses",
    ]
    .iter()
    .map(|n| reg.counter(n))
    .sum();
    out.set(
        "mem.l1_hit_share",
        ratio(reg.counter("mem_l1_hits") as f64, lines as f64),
    );
    out.set(
        "mem.dram_line_share",
        ratio(reg.counter("mem_dram_accesses") as f64, lines as f64),
    );
    let commands = reg.counter("cmd_dispatched") as f64;
    out.set(
        "mem.tlb_walk_cycles",
        ratio(reg.counter("mem_tlb_walk_cycles") as f64, commands),
    );
}

/// Requests in a sim workload's traced pass. Its event log holds every
/// field, FSM step and memory access, so a full-size run would take
/// gigabytes.
pub const TRACED_REQUESTS: usize = 4_000;

/// The traced pass over a small input: `plain` runs it three times
/// untraced, then `traced` runs it with the tracer attached. Tracing must
/// leave the fingerprint unchanged, and `trace::audit` must account for
/// every stat. Returns the traced run for the event-folded metrics.
fn traced_pass(
    out: &mut Outcome,
    plain: impl Fn() -> Result<SimRun, String>,
    traced: impl Fn() -> Result<SimRun, String>,
) -> Option<SimRun> {
    let runs = || -> Result<(Vec<SimRun>, SimRun), String> {
        Ok((
            (0..3).map(|_| plain()).collect::<Result<_, _>>()?,
            traced()?,
        ))
    };
    let (plains, traced) = match runs() {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let plain_s = median(&plains.iter().map(|r| r.host_s).collect::<Vec<_>>());
    out.set(
        "bench.trace_overhead_pct",
        (traced.host_s / plain_s - 1.0) * 100.0,
    );
    let untraced = &plains[0];
    let pure = traced.fingerprint == untraced.fingerprint;
    if !pure {
        out.fail(format!(
            "tracing perturbed the run\n  untraced: {}\n  traced:   {}",
            untraced.fingerprint, traced.fingerprint
        ));
    }
    out.set("bench.trace_pure", if pure { 1.0 } else { 0.0 });
    let report = protoacc_trace::audit(&traced.events, &traced.expected);
    for p in &report.problems {
        out.fail(format!("trace audit: {p}"));
    }
    if !report.ok() && report.problems.is_empty() {
        out.fail("trace audit failed".to_string());
    }
    out.set("bench.traced_requests", traced.offered as f64);
    Some(traced)
}

fn set_setup(out: &mut Outcome, totals: &[f64], phases: &[SetupTimes]) {
    out.set("setup_s", median(totals));
    let m = |f: fn(&SetupTimes) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    out.set("setup.traffic_s", m(|p| p.traffic_s));
    out.set("setup.stage_s", m(|p| p.stage_s));
    out.set("setup.envelope_s", m(|p| p.envelope_s));
    out.set("setup.codec_compile_s", 0.0);
}

/// Builds a set-up `SETUP_REPS` times, returning the last build and the
/// timings.
fn repeated_setup<S>(
    build: impl Fn() -> S,
    times: fn(&S) -> SetupTimes,
) -> (S, Vec<f64>, Vec<SetupTimes>) {
    let (mut totals, mut phases, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let speed = machine_speed();
        let t = Instant::now();
        let s = build();
        totals.push(t.elapsed().as_secs_f64() * speed);
        let p = times(&s);
        phases.push(SetupTimes {
            traffic_s: p.traffic_s * speed,
            stage_s: p.stage_s * speed,
            envelope_s: p.envelope_s * speed,
        });
        last = Some(s);
    }
    (last.expect("set-up ran"), totals, phases)
}

/// Repeats `rep` until `seconds` pass (at least once), checking each
/// run's fingerprint against `reference`. Returns the host seconds of
/// every repetition on the nominal clock, probed on the `threads` the
/// simulation runs on (see [`machine_speed_on`]).
fn repeat(
    out: &mut Outcome,
    seconds: f64,
    threads: usize,
    reference: &SimRun,
    mut rep: impl FnMut() -> Result<SimRun, String>,
    mut each: impl FnMut(&SimRun),
) -> Vec<f64> {
    let start = Instant::now();
    let mut host = Vec::new();
    let mut speed = machine_speed_on(threads);
    while host.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match rep() {
            Ok(run) => {
                if run.fingerprint != reference.fingerprint {
                    out.fail("replay diverged from the reference run".to_string());
                }
                out.attempted += run.offered;
                out.failed += run.wrong();
                let after = machine_speed_on(threads);
                host.push(run.host_s * (speed + after) / 2.0);
                speed = after;
                each(&run);
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
    }
    host
}

/// The `sim-rpc-2x` workload.
#[must_use]
pub fn run_rpc_workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup, totals, phases) =
        repeated_setup(|| RpcSetup::build(seed, RPC_REQUESTS), |s| s.times);
    set_setup(&mut out, &totals, &phases);
    out.facts
        .push(("working_set_bytes", setup.working_set_bytes().to_string()));
    out.facts
        .push(("calibrated_service_cycles", format!("{:.3}", setup.service)));

    // The simulated metrics come from the full stream. Host speed is timed
    // on the stream's first `RPC_TIMED_REQUESTS` frames, repeated: short
    // repetitions let the machine-speed probes track the host.
    let timed = RpcSetup::build(seed, RPC_TIMED_REQUESTS);
    let runs = run_rpc(&setup, false, false)
        .and_then(|(full, _)| Ok((full, run_rpc(&timed, false, false)?.0)));
    let (reference, timed_reference) = match runs {
        Ok(pair) => pair,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    for p in reference
        .problems()
        .into_iter()
        .chain(timed_reference.problems())
    {
        out.fail(p);
    }
    if trace {
        let mut serve_ns = Vec::new();
        repeat(
            &mut out,
            seconds,
            1,
            &timed_reference,
            || {
                let (run, ns) = run_rpc(&timed, false, true)?;
                serve_ns.push(median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>()));
                Ok(run)
            },
            |_| {},
        );
        let small = RpcSetup::build(seed, TRACED_REQUESTS);
        if let Some(traced) = traced_pass(
            &mut out,
            || run_rpc(&small, false, false).map(|(r, _)| r),
            || run_rpc(&small, true, false).map(|(r, _)| r),
        ) {
            per_layer(&mut out, &reference, &traced);
        }
        out.set("rpc.serve_host_ns", median(&serve_ns));
        out.set(
            "rpc.deferred_share",
            ratio(reference.deferred as f64, reference.offered as f64),
        );
        out.set(
            "rpc.deferral_wait_cycles.p99",
            percentile(&reference.deferral_wait, 99.0) as f64,
        );
    } else {
        let host = repeat(
            &mut out,
            seconds,
            1,
            &timed_reference,
            || run_rpc(&timed, false, false).map(|(r, _)| r),
            |_| {},
        );
        let offered = timed_reference.offered as f64;
        let rates: Vec<f64> = host.iter().map(|&s| offered / s).collect();
        end_to_end(&mut out, &reference, median(&rates));
        out.facts.push(("repetitions", host.len().to_string()));
    }
    out.correct = out.problems.is_empty();
    out
}

/// The `sim-sharded` workload.
#[must_use]
pub fn run_sharded_workload(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup, totals, phases) =
        repeated_setup(|| ShardSetup::build(seed, SHARD_PER_CELL), |s| s.times);
    set_setup(&mut out, &totals, &phases);
    out.facts
        .push(("working_set_bytes", setup.working_set_bytes().to_string()));
    out.facts
        .push(("calibrated_service_cycles", format!("{:.3}", setup.service)));
    out.facts.push(("workers", SHARD_WORKERS.to_string()));

    // The simulated metrics come from the full decomposition, run once on
    // 1 worker. Host speed is timed on a shorter decomposition of the same
    // seed, repeated on the workers: short repetitions let the machine-speed
    // probes track the host. Each must equal its own 1-worker run bit for
    // bit, the sequential-vs-parallel check.
    let reference = run_sharded(&setup, 1, false);
    let timed = ShardSetup::build(seed, SHARD_TIMED_PER_CELL);
    let timed_reference = run_sharded(&timed, 1, false);
    for p in reference
        .problems()
        .into_iter()
        .chain(timed_reference.problems())
    {
        out.fail(p);
    }
    let offered = timed_reference.offered as f64;
    let mut cells = Vec::new();
    let mut merges = Vec::new();
    let mut efficiency = Vec::new();
    let host = repeat(
        &mut out,
        seconds,
        SHARD_WORKERS,
        &timed_reference,
        || Ok(run_sharded(&timed, SHARD_WORKERS, false)),
        |run| {
            let busy: f64 = run.cell_s.iter().sum();
            efficiency.push(busy / (SHARD_WORKERS as f64 * run.host_s));
            cells.extend_from_slice(&run.cell_s);
            merges.push(run.merge_s);
        },
    );
    if trace {
        let small = ShardSetup::build(seed, TRACED_REQUESTS / SHARD_CELLS);
        if let Some(traced) = traced_pass(
            &mut out,
            || Ok(run_sharded(&small, SHARD_WORKERS, false)),
            || Ok(run_sharded(&small, SHARD_WORKERS, true)),
        ) {
            per_layer(&mut out, &reference, &traced);
        }
        out.set("shard.cell_host_s.median", median(&cells));
        out.set(
            "shard.cell_host_s.max",
            cells.iter().copied().fold(0.0, f64::max),
        );
        out.set("shard.parallel_efficiency", median(&efficiency));
        out.set("shard.merge_host_s", median(&merges));
    } else {
        let rates: Vec<f64> = host.iter().map(|&s| offered / s).collect();
        end_to_end(&mut out, &reference, median(&rates));
        out.facts.push(("repetitions", host.len().to_string()));
    }
    out.correct = out.problems.is_empty();
    out
}

//! Overload study of the framed RPC serving layer (`protoacc-rpc`).
//!
//! Stages the fleet traffic mix as an RPC method table (one method per
//! prototype, admission costs from the absint envelopes), then sweeps
//! offered load through and past cluster saturation under both loop
//! disciplines:
//!
//! * **open loop** — Poisson arrivals from [`TrafficMix::stream`], spread
//!   round-robin across connections: offered load is independent of what
//!   the server does, so past saturation the backlog grows without bound
//!   unless admission control sheds it;
//! * **closed loop** — [`ClosedLoop`]: N users, each waiting for its
//!   response plus an exponential think time before issuing again, so the
//!   arrival process throttles itself as latency rises.
//!
//! Every request carries a client deadline budget (a fixed multiple of its
//! method's admission cost), so the cluster's admission controller sheds
//! doomed work *before* enqueue instead of serving it late. The report is
//! goodput vs offered load with the served / shed / rejected / failed
//! breakdown and served-only p50/p99 per cell.
//!
//! `--smoke` is the CI serving gate: a smaller grid, each cell run twice.
//! It fails (non-zero exit) when any cell leaks accounting (every offered
//! request must land in exactly one of ok / fallback / rejected / failed /
//! shed / dropped), drops a request into the void, replays
//! nondeterministically, finishes 2x overload with goodput below 80% of the
//! discipline's peak, or survives 2x open-loop overload without shedding
//! anything (the controller must actually be doing the work).
//!
//! Both modes write the sweep to `--out` (default `target/BENCH_rpc.json`).

use std::process::ExitCode;

use protoacc::serve::{CommandRecord, CommandStatus};
use protoacc::{DispatchPolicy, ServeConfig};
use protoacc_bench::cli::Args;
use protoacc_bench::serving::{Staging, ARENA_BASE, ARENA_STRIDE};
use protoacc_fleet::traffic::{ClosedLoop, TrafficMix};
use protoacc_mem::{Cycles, MemConfig, Memory};
use protoacc_rpc::{encode_frame, IncomingFrame, Method, RpcConfig, RpcHeader, RpcServer};
use protoacc_trace::json::{self, Json};
use xrand::StdRng;

/// Seed for synthesizing the prototype population.
const MIX_SEED: u64 = 0xF1EE7;
/// Seed for both arrival processes (open-loop stream, closed-loop draws).
const STREAM_SEED: u64 = 0x10AD;
/// Accelerator instances behind the server.
const INSTANCES: usize = 4;
/// Connections the open-loop schedule spreads across.
const CONNS: usize = 8;
/// Client deadline budget as a multiple of the method's admission cost:
/// generous enough that nominal queueing fits, tight enough that an
/// unbounded overload backlog blows it.
const DEADLINE_SLACK: u64 = 4;
/// Per-connection credit window. Wider than the default so the transport's
/// flow control does not itself cap the backlog: this study wants admission
/// shedding, not window deferral, to be the active overload mechanism.
const WINDOW: usize = 16;
/// Offered-load grid, as a fraction of cluster saturation.
const RHOS: [f64; 3] = [0.5, 1.0, 2.0];
/// Goodput at 2x overload must stay within this fraction of the
/// discipline's peak — the load-shedding acceptance floor.
const GOODPUT_FLOOR: f64 = 0.8;

/// Encodes one request frame for `method`, optionally carrying the
/// deadline budget (`DEADLINE_SLACK` x the direction's admission cost).
fn request_frame(methods: &[Method], method: usize, deser: bool, with_deadline: bool) -> Vec<u8> {
    let m = methods[method];
    let cost = if deser { m.deser_cost } else { m.ser_cost };
    let header = RpcHeader {
        method: method as u32,
        deser,
        deadline: with_deadline.then(|| cost.saturating_mul(DEADLINE_SLACK)),
    };
    encode_frame(false, &header.to_payload()).expect("request header fits the frame ceiling")
}

fn server(methods: Vec<Method>) -> RpcServer {
    RpcServer::new(
        ServeConfig {
            instances: INSTANCES,
            queue_depth: 256,
            policy: DispatchPolicy::Fifo,
            ..ServeConfig::default()
        },
        RpcConfig {
            window: WINDOW,
            ..RpcConfig::default()
        },
        methods,
        ARENA_BASE,
        ARENA_STRIDE,
    )
}

/// Everything one sweep cell reports. The replay gate compares cells by
/// value.
#[derive(Debug, PartialEq)]
struct Cell {
    discipline: &'static str,
    rho: f64,
    offered: u64,
    ok: u64,
    fallback: u64,
    rejected: u64,
    failed: u64,
    shed: u64,
    dropped: u64,
    frames: u64,
    frame_errors: u64,
    deferred: u64,
    goodput: f64,
    p50: Cycles,
    p99: Cycles,
}

impl Cell {
    /// Every offered request must land in exactly one terminal bucket.
    fn accounting_ok(&self) -> bool {
        self.ok + self.fallback + self.rejected + self.failed + self.shed + self.dropped
            == self.offered
    }
}

/// Latency percentile over *served* commands only (ok + fallback). Shed
/// records complete in one cycle by construction and would drag the
/// distribution toward zero exactly when shedding matters most.
fn served_percentile(records: &[CommandRecord], p: f64) -> Cycles {
    let mut latencies: Vec<Cycles> = records
        .iter()
        .filter(|r| matches!(r.status, CommandStatus::Ok | CommandStatus::Fallback))
        .map(CommandRecord::latency)
        .collect();
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[protoacc_trace::nearest_rank(p, latencies.len())]
}

fn summarize(discipline: &'static str, rho: f64, srv: &RpcServer) -> Cell {
    let (ok, fallback, rejected, failed, shed) = srv.cluster().status_counts();
    let stats = srv.stats();
    Cell {
        discipline,
        rho,
        offered: srv.cluster().offered(),
        ok,
        fallback,
        rejected,
        failed,
        shed,
        dropped: srv.cluster().dropped(),
        frames: stats.frames,
        frame_errors: stats.frame_errors,
        deferred: stats.deferred,
        goodput: srv.cluster().throughput_gbits(),
        p50: served_percentile(srv.cluster().records(), 50.0),
        p99: served_percentile(srv.cluster().records(), 99.0),
    }
}

/// Serves a Poisson frame schedule of `n_req` requests at mean gap `gap`,
/// spread round-robin across [`CONNS`] connections, and returns the server.
fn open_loop(mix: &TrafficMix, n_req: usize, gap: f64, with_deadline: bool) -> RpcServer {
    let mut mem = Memory::new(MemConfig::default());
    let methods = Staging::new(mix, &mut mem).methods(mix);
    let mut srng = StdRng::seed_from_u64(STREAM_SEED);
    let events = mix.stream(&mut srng, n_req, gap);
    let frames: Vec<IncomingFrame> = events
        .iter()
        .enumerate()
        .map(|(i, e)| IncomingFrame {
            conn: i % CONNS,
            arrival: e.arrival,
            bytes: request_frame(&methods, e.prototype, e.deser, with_deadline),
        })
        .collect();
    let mut srv = server(methods);
    srv.serve(&mut mem, &frames).expect("rpc serve succeeds");
    srv
}

/// One closed-loop cell: `users` clients (one connection each), each
/// waiting for its response plus an exponential think time (mean
/// `think`) before issuing the next request, until `total` requests have
/// been issued.
fn closed_loop_cell(mix: &TrafficMix, rho: f64, users: usize, total: usize, think: f64) -> Cell {
    let mut mem = Memory::new(MemConfig::default());
    let methods = Staging::new(mix, &mut mem).methods(mix);
    let mut srv = server(methods.clone());
    let mut clients = ClosedLoop::new(users, think);
    let mut rng = StdRng::seed_from_u64(STREAM_SEED);
    for _ in 0..total {
        let (user, at) = clients.next_issue().expect("some user is always ready");
        let (prototype, deser) = mix.sample(&mut rng);
        let frame = IncomingFrame {
            conn: user,
            arrival: at,
            bytes: request_frame(&methods, prototype, deser, true),
        };
        let before = srv.cluster().records().len();
        srv.serve(&mut mem, std::slice::from_ref(&frame))
            .expect("rpc serve succeeds");
        // The user's response lands at its command's completion time (its
        // issue instant if the request evaporated at the frame plane).
        let completion = srv
            .cluster()
            .records()
            .get(before)
            .map_or(at, |r| r.complete)
            .max(at);
        clients.complete(user, completion, &mut rng);
    }
    summarize("closed", rho, &srv)
}

fn render_json(mode: &str, service: f64, cells: &[Cell]) -> String {
    let cells = cells.iter().map(|c| {
        Json::obj([
            ("discipline", c.discipline.into()),
            ("rho", Json::Num(c.rho.to_string())),
            ("offered", c.offered.into()),
            ("ok", c.ok.into()),
            ("fallback", c.fallback.into()),
            ("rejected", c.rejected.into()),
            ("failed", c.failed.into()),
            ("shed", c.shed.into()),
            ("dropped", c.dropped.into()),
            ("frames", c.frames.into()),
            ("frame_errors", c.frame_errors.into()),
            ("deferred", c.deferred.into()),
            ("goodput_gbits", Json::fixed(c.goodput, 6)),
            ("p50_cycles", c.p50.into()),
            ("p99_cycles", c.p99.into()),
        ])
    });
    json::write(&Json::obj([
        ("schema_version", 1u32.into()),
        ("mode", mode.into()),
        ("instances", INSTANCES.into()),
        ("deadline_slack", DEADLINE_SLACK.into()),
        ("mean_service_cycles", Json::fixed(service, 3)),
        ("cells", Json::Arr(cells.collect())),
    ]))
}

/// One sweep cell's inputs. The grid is a pure function of the
/// calibration, fixed before any cell runs, so cells can simulate on
/// worker threads (`--shards N`) and still report in grid order.
struct CellSpec {
    discipline: &'static str,
    rho: f64,
    gap: f64,
    users: usize,
}

/// Runs the whole sweep on up to `shards` worker threads, gating every
/// cell. Returns the cells (in fixed grid order, independent of worker
/// scheduling) plus the failure count.
fn sweep(n_req: usize, check_determinism: bool, shards: usize) -> (f64, Vec<Cell>, usize) {
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let mix = TrafficMix::build(&mut rng, 8);

    // Calibrate uncontended mean service on a sparse deadline-free stream.
    let service = {
        let srv = open_loop(&mix, 64, 10_000_000.0, false);
        let records = srv.cluster().records();
        records.iter().map(|r| r.service).sum::<u64>() as f64 / records.len().max(1) as f64
    };

    // The grid is fixed up front; each cell stages its own memory image and
    // server, so cells share nothing and can run on worker threads. Results
    // land in grid order regardless of scheduling.
    let specs: Vec<CellSpec> = RHOS
        .iter()
        .flat_map(|&rho| {
            let gap = service / (INSTANCES as f64 * rho);
            let users = ((rho * INSTANCES as f64 * 2.0).round() as usize).max(1);
            [
                CellSpec {
                    discipline: "open",
                    rho,
                    gap,
                    users,
                },
                CellSpec {
                    discipline: "closed",
                    rho,
                    gap,
                    users,
                },
            ]
        })
        .collect();
    let run_cell = |_: usize, spec: &CellSpec| {
        if spec.discipline == "open" {
            summarize("open", spec.rho, &open_loop(&mix, n_req, spec.gap, true))
        } else {
            closed_loop_cell(&mix, spec.rho, spec.users, n_req, service)
        }
    };
    let cells = protoacc::run_indexed(&specs, shards, run_cell);

    let mut failures = 0;
    if check_determinism {
        // The 1-worker pass is the sequential reference: with --shards > 1
        // this is the sequential-vs-sharded equivalence gate, and at
        // --shards 1 it degenerates to the run-twice replay check.
        let reference = protoacc::run_indexed(&specs, 1, run_cell);
        for (cell, again) in cells.iter().zip(&reference) {
            if cell != again {
                println!(
                    "FAIL [{} rho={}]: diverged from the sequential reference\n  \
                     sharded:    {cell:?}\n  sequential: {again:?}",
                    cell.discipline, cell.rho
                );
                failures += 1;
            }
        }
    }
    for cell in &cells {
        let label = format!("{} rho={}", cell.discipline, cell.rho);
        if !cell.accounting_ok() {
            println!(
                "FAIL [{label}]: accounting leak: {} + {} + {} + {} + {} + {} != {}",
                cell.ok,
                cell.fallback,
                cell.rejected,
                cell.failed,
                cell.shed,
                cell.dropped,
                cell.offered
            );
            failures += 1;
        }
        if cell.dropped > 0 {
            println!(
                "FAIL [{label}]: {} request(s) dropped into the void \
                 (admission control must shed, not overflow)",
                cell.dropped
            );
            failures += 1;
        }
        println!("ok   [{label}] {cell:?}");
    }

    // Overload gates, per discipline: goodput at the 2x cell must hold at
    // least GOODPUT_FLOOR of the discipline's peak, and the open loop must
    // actually shed (a 2x backlog that nothing pushes back on means the
    // admission controller is asleep).
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
        if at_2x.goodput < GOODPUT_FLOOR * peak {
            println!(
                "FAIL [{discipline} rho=2]: goodput {:.6} fell below {GOODPUT_FLOOR} x peak {:.6}",
                at_2x.goodput, peak
            );
            failures += 1;
        }
        if discipline == "open" && at_2x.shed == 0 {
            println!("FAIL [open rho=2]: 2x overload shed nothing — admission control inert");
            failures += 1;
        }
    }
    (service, cells, failures)
}

fn main() -> ExitCode {
    let args = Args::parse("serve_rpc [--smoke] [--out PATH] [--shards N]");
    let smoke = args.flag("--smoke");
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| "target/BENCH_rpc.json".to_string());
    let shards = args.value("--shards").unwrap_or(1);
    let n_req = if smoke { 160 } else { 512 };

    println!(
        "RPC serving gate: {INSTANCES} instances, deadline = {DEADLINE_SLACK} x admission cost, \
         {n_req} requests per cell, {shards} worker(s)"
    );
    let (service, cells, failures) = sweep(n_req, smoke, shards);
    println!("calibration: mean uncontended service = {service:.0} cycles\n");
    println!(
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
    );
    for c in &cells {
        println!(
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
        );
    }

    let json = render_json(if smoke { "smoke" } else { "full" }, service, &cells);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("serve_rpc: {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {out_path}");

    if failures > 0 {
        println!("serve_rpc: {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    println!("serve_rpc OK");
    ExitCode::SUCCESS
}

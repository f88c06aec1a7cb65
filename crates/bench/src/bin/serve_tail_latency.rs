//! Serving-model tools that write a file rather than a study report: the
//! serving studies themselves (`serve_tail_latency`, `serve_faults`) are
//! library functions in `protoacc_bench::studies::serve`, run by
//! `run_ae_full`, and their checks are tests.
//!
//! * `--trace OUT.json` runs a small traced fleet-mix cluster (2 instances,
//!   48 requests) and writes its Chrome-trace JSON with the per-instance
//!   stats image embedded, so `profile_report --reparse OUT.json` can
//!   re-run the accounting audit offline.
//! * `--bench-shards OUT.json [--commands N]` times the sharded engine at
//!   1/2/4/8 workers over a fixed decomposition and writes the scaling
//!   table (see [`bench_shards`]).
//!
//! With neither flag it prints its usage and exits 2.

use std::process::ExitCode;
use std::time::Instant;

use protoacc::{DispatchPolicy, ShardedCluster};
use protoacc_bench::cli::Args;
use protoacc_bench::serving::{
    config, fleet_mix, isolated, run_cell, stream, Capture, STREAM_SEED,
};
use protoacc_fleet::traffic::{TrafficEvent, TrafficMix};
use protoacc_mem::MemConfig;
use protoacc_trace::json::{self, Json};

const USAGE: &str =
    "serve_tail_latency (--trace OUT.json | --bench-shards OUT.json [--commands N])";

/// `--trace <out.json>`: writes the Chrome-trace export of a traced
/// 2-instance run of 48 fleet-mix requests. `tests/trace_accounting.rs`
/// checks that this run's trace is a pure observer, passes the accounting
/// audit and reproduces the live records.
fn write_trace(path: &str) -> ExitCode {
    let mix = fleet_mix(8);
    let events = stream(&mix, 48, 5_000.0);
    let run = isolated(&mix, &events, config(2, 16, DispatchPolicy::Fifo), true);
    let evs = &run.outcomes()[0].events;
    let json = protoacc_trace::chrome::export(evs, &run.expected_stats());
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("serve_tail_latency: writing {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "serve_trace: {} events, {} bytes -> {path}",
        evs.len(),
        json.len()
    );
    ExitCode::SUCCESS
}

// --- Sharded engine ----------------------------------------------------

/// Number of cells in the fixed shard decomposition. The sweep is *always*
/// cut into this many independently seeded cells regardless of worker
/// count, so the merged report is a pure function of the seeds, and N
/// workers must agree bit-for-bit with 1 worker (the sequential
/// reference).
const SHARD_CELLS: usize = 8;
/// Accelerator instances per shard cell. Within a cell, the instances
/// share the cell's private LLC slice and contend exactly as the
/// sequential model does.
const SHARD_INSTANCES: usize = 2;

/// Simulates the fixed decomposition — one cell per stream of
/// `mix.shard_streams`, each on a private `1/SHARD_CELLS` LLC slice — on up
/// to `workers` threads, and merges deterministically in shard-index order.
fn run_sharded(mix: &TrafficMix, streams: &[Vec<TrafficEvent>], workers: usize) -> ShardedCluster {
    let mem = MemConfig::default().llc_slice(SHARD_CELLS);
    let cfg = config(SHARD_INSTANCES, 32, DispatchPolicy::Fifo);
    ShardedCluster::run(streams, workers, |shard, events| {
        run_cell(shard, mix, mem, cfg, Capture::default(), |staging, _| {
            (staging.requests(events), Vec::new())
        })
    })
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
        let run = run_sharded(&mix, &cells, workers);
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
    if let Some(path) = args.value::<String>("--trace") {
        return write_trace(&path);
    }
    if let Some(path) = args.value::<String>("--bench-shards") {
        return bench_shards(&path, args.value("--commands").unwrap_or(1_000_000));
    }
    args.fail("give --trace or --bench-shards")
}

//! Two-clock benchmark of the protoacc request path.
//!
//! Four workloads, two clocks:
//!
//! * `host-small` / `host-blob` time the host request path in wall-clock
//!   nanoseconds: frame bytes → [`FrameDecoder`](protoacc_rpc::FrameDecoder)
//!   → [`RpcHeader::decode`](protoacc_rpc::RpcHeader::decode) + route →
//!   [`FastCodec`](protoacc_fastpath::FastCodec) decode or encode →
//!   [`encode_frame`](protoacc_rpc::encode_frame) response ([`host`]);
//! * `sim-rpc-2x` / `sim-sharded` run the simulated serve cluster and report
//!   simulated cycles, plus the simulator's own host speed ([`sim`]).
//!
//! Every layer is timed from outside, around the public calls into it; the
//! program under test carries no benchmark hooks. See `README.md` beside
//! this crate for why each workload exists and which metric each layer
//! should move.

use std::time::Instant;

pub mod host;
pub mod sim;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Host request path over the dispatch-bound suites.
    HostSmall,
    /// Host request path over the zero-copy blob suites.
    HostBlob,
    /// `RpcServer` in front of the serve cluster at twice its capacity.
    SimRpc2x,
    /// The sharded engine below saturation, 8 cells on 2 workers.
    SimSharded,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::HostSmall,
        Workload::HostBlob,
        Workload::SimRpc2x,
        Workload::SimSharded,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::HostSmall => "host-small",
            Workload::HostBlob => "host-blob",
            Workload::SimRpc2x => "sim-rpc-2x",
            Workload::SimSharded => "sim-sharded",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics (untraced runs): name, unit. Every workload reports
/// every one of them; README.md names the clock each uses per workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("req_per_host_s", "1/s"),
    ("wire_gbits", "Gbit/s"),
    ("p50_ns", "ns"),
    ("p99_ns", "ns"),
    ("in_budget_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs): name, unit. A layer a workload does not
/// run reads 0 there.
pub const PER_LAYER: [(&str, &str); 48] = [
    // rpc framing and header, host clock.
    ("rpc.frame.decode_ns", "ns"),
    ("rpc.frame.encode_ns", "ns"),
    ("rpc.frame.bytes", "bytes"),
    ("rpc.header.route_ns", "ns"),
    // fastpath codec, host clock.
    ("fastpath.decode_ns", "ns"),
    ("fastpath.decode.bytes", "bytes"),
    ("fastpath.arena_bytes", "bytes"),
    ("fastpath.encode_ns", "ns"),
    ("fastpath.encode.bytes", "bytes"),
    // Shares of traced request time, host clock.
    ("rpc.frame.decode.share", "share"),
    ("rpc.frame.encode.share", "share"),
    ("rpc.header.route.share", "share"),
    ("fastpath.decode.share", "share"),
    ("fastpath.encode.share", "share"),
    ("bench.unattributed.share", "share"),
    // rpc::server, simulated cycles and host clock.
    ("rpc.deferred_share", "share"),
    ("rpc.deferral_wait_cycles.p99", "cycles"),
    ("rpc.serve_host_ns", "ns"),
    // serve cluster, simulated cycles.
    ("serve.shed_share", "share"),
    ("serve.queue_wait_cycles.p50", "cycles"),
    ("serve.queue_wait_cycles.p99", "cycles"),
    ("serve.service_cycles.p50", "cycles"),
    ("serve.service_cycles.p99", "cycles"),
    ("serve.retries", "count"),
    ("serve.fallback_share", "share"),
    // accelerator units, simulated cycles per operation.
    ("accel.deser_fsm_cycles", "cycles"),
    ("accel.deser_stream_cycles", "cycles"),
    ("accel.ser_frontend_cycles", "cycles"),
    ("accel.ser_fsu_cycles", "cycles"),
    ("accel.ser_memwriter_cycles", "cycles"),
    ("accel.adt_hit_share", "share"),
    ("accel.fields", "count"),
    ("accel.varints", "count"),
    ("accel.stack_spills", "count"),
    // memory hierarchy, simulated.
    ("mem.l1_hit_share", "share"),
    ("mem.dram_line_share", "share"),
    ("mem.tlb_walk_cycles", "cycles"),
    // sharded engine, host clock.
    ("shard.cell_host_s.median", "s"),
    ("shard.cell_host_s.max", "s"),
    ("shard.parallel_efficiency", "share"),
    ("shard.merge_host_s", "s"),
    // set-up phases, host clock.
    ("setup.traffic_s", "s"),
    ("setup.codec_compile_s", "s"),
    ("setup.stage_s", "s"),
    ("setup.envelope_s", "s"),
    // tracing cost and purity.
    ("bench.trace_overhead_pct", "%"),
    ("bench.traced_requests", "count"),
    ("bench.trace_pure", "bool"),
];

/// One run's result, printed as the benchmark's last line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations the measured phase attempted.
    pub attempted: u64,
    /// Operations that went wrong (errors, invalid accounting), never
    /// designed outcomes such as an admission shed.
    pub failed: u64,
    /// Metric name → value, in the units of [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts about this host and run (`key`, JSON-encoded value).
    pub facts: Vec<(&'static str, String)>,
    /// Human-readable gate failures.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Sets a metric (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Value of a metric, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records a gate failure.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// The result line: every metric of `table`, with its unit, in table
    /// order; a metric the run did not set reads 0.
    #[must_use]
    pub fn result_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload: set-up (repeated, median reported), the correctness
/// gate, and the measured phase of `seconds`. With `trace`, the measured
/// phase is the traced run that yields the per-layer metrics.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = match workload {
        Workload::HostSmall | Workload::HostBlob => host::run(workload, seed, seconds, trace),
        Workload::SimRpc2x => sim::run_rpc_workload(seed, seconds, trace),
        Workload::SimSharded => sim::run_sharded_workload(seed, seconds, trace),
    };
    out.set("peak_rss_mib", peak_rss_mib());
    out.facts
        .push(("peak_rss_mib", format!("{:?}", peak_rss_mib())));
    out.facts
        .push(("machine_speed_at_end", format!("{:?}", machine_speed())));
    out.facts.push(("workload", json_str(workload.name())));
    out.facts.push(("seed", seed.to_string()));
    out.facts.push(("trace", trace.to_string()));
    out.facts.push((
        "available_parallelism",
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
            .to_string(),
    ));
    out.facts.push((
        "build_profile",
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    ));
    out.facts
        .push(("git_rev", git_rev().map_or("null".into(), |r| json_str(&r))));
    out
}

/// Peak resident set (VmHWM) of this process in MiB, or 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the working directory, read from its own `.git`
/// (loose or packed ref) so nothing outside the checkout is consulted.
/// `None` when the directory is not a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(std::path::Path::new(".git").join(name)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

/// A JSON string literal (the names written here need no escapes beyond
/// quotes and backslashes).
#[must_use]
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Median of a sample set (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an already sorted sample set, under the
/// repository's shared rank rule (0 for none).
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[protoacc_trace::nearest_rank(p, sorted.len())]
}

/// Seconds one [`probe_kernel`] call takes on a machine running at the
/// nominal speed (a 2-thread x86-64 cloud VM, release build).
const NOMINAL_PROBE_S: f64 = 4.1e-4;

/// The benchmark's own reference work: varint-encodes and decodes a fixed
/// pseudo-random stream, the same branchy byte-at-a-time kind of work as
/// the codec. It never calls the program under test, so no change to the
/// program can move it.
#[must_use]
pub fn probe_kernel(seed: u64) -> u64 {
    let mut buf = [0u8; 10 * 256];
    let (mut x, mut sum) = (seed | 1, 0u64);
    for _ in 0..48 {
        let mut len = 0;
        for _ in 0..256 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut v = x >> (x & 63);
            while v >= 0x80 {
                buf[len] = (v as u8) | 0x80;
                v >>= 7;
                len += 1;
            }
            buf[len] = v as u8;
            len += 1;
        }
        let mut p = 0;
        while p < len {
            let (mut v, mut shift) = (0u64, 0);
            loop {
                let b = buf[p];
                p += 1;
                v |= u64::from(b & 0x7f) << shift;
                if b < 0x80 {
                    break;
                }
                shift += 7;
            }
            sum = sum.wrapping_add(v);
        }
    }
    sum
}

/// The machine's current speed relative to nominal (above 1: faster),
/// from the best of three [`probe_kernel`] runs (about 1 ms).
///
/// Shared cloud hosts drift by ±20% over seconds as neighbours come and
/// go. Host-clock metrics are therefore reported on the nominal clock:
/// a raw duration `d` measured while the speed reads `s` counts as
/// `d × s`. Probes are interleaved with the measured work, so a slow
/// spell scales the probe and the work alike, while a change to the
/// program moves only the work.
#[must_use]
pub fn machine_speed() -> f64 {
    let mut best = f64::MAX;
    for i in 0..3 {
        let t = Instant::now();
        std::hint::black_box(probe_kernel(std::hint::black_box(0x9E37_79B9 + i)));
        best = best.min(t.elapsed().as_secs_f64());
    }
    NOMINAL_PROBE_S / best
}

/// [`machine_speed`] probed on `threads` threads at once, averaged: the
/// speed of the machine as work spread over that many threads sees it.
#[must_use]
pub fn machine_speed_on(threads: usize) -> f64 {
    if threads <= 1 {
        return machine_speed();
    }
    let speeds: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(machine_speed)).collect();
        let mut speeds = vec![machine_speed()];
        speeds.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("speed probe thread panicked")),
        );
        speeds
    });
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

/// `a / b`, or 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

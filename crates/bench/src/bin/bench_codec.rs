//! Host-throughput benchmark for the native fast-path codec
//! (`protoacc-fastpath`) against `crates/cpu`'s instrumented codec and the
//! reference value-tree codec, over all HyperProtoBench suites plus the
//! `protos/chain` binary-descriptor corpus.
//!
//! Unlike the figure generators (which report *simulated* cycles), every
//! number here is host wall-clock GB/s — this binary answers "how fast is
//! the suite's own software protobuf engine", the baseline the paper's
//! accelerator claims are anchored to.
//!
//! Usage:
//!
//! ```text
//! bench_codec [--smoke] [--out target/BENCH_codec.json]
//!             [--count N] [--seed S]
//! ```
//!
//! `--smoke` shrinks populations and timing windows for CI, but always runs
//! the full correctness gate: byte-identical encodes vs the reference
//! encoder, value-identical round trips, and verdict-identical decodes vs
//! `crates/cpu` over clean, truncated, and seeded-mutated inputs. Every
//! truncated or mutated input that both the fast path and the reference
//! decoder accept must also re-encode to the reference encoding of the
//! reference decoder's value; such inputs may be non-canonical, which is
//! where the encoder rewrites a length prefix. Any divergence is reported
//! in the JSON and fails the process.

use std::time::Instant;

use hyperprotobench::{generate_suite, populate::populate_messages, ServiceProfile};
use protoacc_bench::cli::Args;
use protoacc_bench::mutation::{chain_schema, CHAIN};
use protoacc_bench::{geomean, Workload};
use protoacc_cpu::{CostTable, SoftwareCodec};
use protoacc_fastpath::{DecodeArena, FastCodec};
use protoacc_faults::{mutate, DiffReport, FastpathHarness};
use protoacc_mem::Memory;
use protoacc_runtime::{object, reference, BumpArena, MessageLayouts};
use protoacc_trace::json::{self, Json};
use xrand::StdRng;

/// Per-workload measured throughput (GB/s, host wall-clock).
struct Row {
    name: String,
    wire_bytes: u64,
    fast_deser: Spread,
    fast_ser: Spread,
    cpu_deser: Spread,
    cpu_ser: Spread,
    ref_deser: Spread,
    ref_ser: Spread,
}

impl Row {
    /// The six measurements in column order, with their JSON names.
    fn columns(&self) -> [(&'static str, Spread); 6] {
        [
            ("fast_deser", self.fast_deser),
            ("fast_ser", self.fast_ser),
            ("cpu_deser", self.cpu_deser),
            ("cpu_ser", self.cpu_ser),
            ("ref_deser", self.ref_deser),
            ("ref_ser", self.ref_ser),
        ]
    }
}

/// GB/s over the timed passes of one measurement: the median pass, the
/// slowest pass, and the 90th-percentile pass (nearest rank).
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    p90: f64,
}

impl Spread {
    fn of(mut gbps: Vec<f64>) -> Spread {
        gbps.sort_by(f64::total_cmp);
        let rank = |p: f64| gbps[protoacc_trace::nearest_rank(p, gbps.len())];
        Spread {
            median: rank(50.0),
            min: gbps[0],
            p90: rank(90.0),
        }
    }
}

/// Correctness-gate tally across all workloads.
#[derive(Default)]
struct Gate {
    report: DiffReport,
    encode_divergences: usize,
    roundtrip_divergences: usize,
    /// Truncated or mutated inputs both decoders accepted, re-encoded.
    reencode_trials: usize,
    /// Those whose reference encoding differs from the input.
    reencode_noncanonical: usize,
    reencode_divergences: usize,
}

fn main() {
    let args = Args::parse("bench_codec [--smoke] [--out PATH] [--count N] [--seed S]");
    let smoke = args.flag("--smoke");
    let out_path = args
        .value("--out")
        .unwrap_or_else(|| "target/BENCH_codec.json".to_string());
    let count = args.value("--count").unwrap_or(if smoke { 4 } else { 16 });
    let seed = args.value("--seed").unwrap_or(0xC0DEC);
    // Timing window per measurement; smoke mode only needs plausible numbers.
    let target_secs = if smoke { 0.02 } else { 0.25 };

    let workloads = build_workloads(count, seed);

    // Correctness gate first: the throughput of a wrong codec is irrelevant.
    let mut gate = Gate::default();
    let mutations = if smoke { 24 } else { 120 };
    for w in &workloads {
        differential_gate(w, mutations, seed, &mut gate);
    }

    let mut rows = Vec::new();
    println!("GB/s per timed pass: median (min-p90)");
    println!(
        "{:<20} {:>8} {:>20} {:>20} {:>20} {:>20} {:>20} {:>20}",
        "workload", "wire B", "fast de", "fast ser", "cpu de", "cpu ser", "ref de", "ref ser"
    );
    for w in &workloads {
        let row = measure_workload(w, target_secs);
        let mut line = format!("{:<20} {:>8}", row.name, row.wire_bytes);
        for (_, s) in row.columns() {
            line.push_str(&format!(
                " {:>20}",
                format!("{:.3} ({:.3}-{:.3})", s.median, s.min, s.p90)
            ));
        }
        println!("{line}");
        rows.push(row);
    }

    // Geomeans and the speedup floor are over the per-row medians.
    let geo = |col: usize| {
        geomean(
            &rows
                .iter()
                .map(|r| r.columns()[col].1.median)
                .collect::<Vec<_>>(),
        )
    };
    let [g_fast_de, g_fast_se, g_cpu_de, g_cpu_se, g_ref_de, g_ref_se] =
        [0, 1, 2, 3, 4, 5].map(geo);
    let deser_speedup = g_fast_de / g_cpu_de;
    println!(
        "geomean of medians: fastpath {g_fast_de:.3}/{g_fast_se:.3} GB/s, cpu codec {g_cpu_de:.3}/{g_cpu_se:.3}, \
         reference {g_ref_de:.3}/{g_ref_se:.3} (deser speedup vs cpu: {deser_speedup:.1}x)"
    );
    println!(
        "differential: {} ({} encode, {} round-trip divergences); \
         {} re-encodes of accepted faulty inputs ({} non-canonical), {} divergences",
        gate.report.summary(),
        gate.encode_divergences,
        gate.roundtrip_divergences,
        gate.reencode_trials,
        gate.reencode_noncanonical,
        gate.reencode_divergences
    );

    let json = render_json(
        if smoke { "smoke" } else { "full" },
        &rows,
        &[
            g_fast_de,
            g_fast_se,
            g_cpu_de,
            g_cpu_se,
            g_ref_de,
            g_ref_se,
            deser_speedup,
        ],
        &gate,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("bench_codec: {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");

    let divergent = !gate.report.is_clean()
        || gate.encode_divergences > 0
        || gate.roundtrip_divergences > 0
        || gate.reencode_divergences > 0;
    if divergent {
        eprintln!("bench_codec: DIVERGENCE between fastpath and its oracles — failing");
        std::process::exit(1);
    }
    if !smoke && deser_speedup < 2.0 {
        eprintln!(
            "bench_codec: fastpath deser geomean only {deser_speedup:.2}x cpu codec (< 2x floor)"
        );
        std::process::exit(1);
    }
}

/// The six HyperProtoBench suites plus every `protos/chain/*.binpb`
/// descriptor-set schema, each with a seeded population. The corpus is
/// found from any working directory; a missing or unparsable fixture
/// panics.
fn build_workloads(count: usize, seed: u64) -> Vec<Workload> {
    let mut out: Vec<Workload> = generate_suite(count, seed)
        .into_iter()
        .map(|bench| Workload {
            name: bench.profile.name.to_string(),
            ..bench.into()
        })
        .collect();
    for (i, stem) in CHAIN.into_iter().enumerate() {
        let schema = chain_schema(stem);
        let root = schema
            .default_root()
            .expect("descriptor set has at least one message");
        let shape = ServiceProfile::bench(4).shape;
        let messages = populate_messages(
            &schema,
            root,
            &shape,
            seed.wrapping_add(1000 + i as u64),
            count,
        );
        out.push(Workload {
            name: format!("chain/{stem}"),
            schema,
            type_id: root,
            messages,
        });
    }
    out
}

/// Byte-identity, round-trip, and verdict agreement for one workload.
fn differential_gate(w: &Workload, mutations: usize, seed: u64, gate: &mut Gate) {
    let mut h = FastpathHarness::new(&w.schema, w.type_id);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF_5EED);
    let mut arena = DecodeArena::new();
    let codec = h.codec().clone();
    for m in &w.messages {
        let wire = reference::encode(m, &w.schema).expect("workload encodes");
        // Decode round trip to a value-identical tree; the arena re-encode
        // must be byte-identical to the reference encoder.
        match codec.decode(w.type_id, &wire, &mut arena) {
            Ok(obj) => {
                let back = codec.to_value(w.type_id, &wire, &arena, obj);
                if !back.bits_eq(m) {
                    gate.roundtrip_divergences += 1;
                }
                if codec.encode_decoded(w.type_id, &wire, &arena, obj) != wire {
                    gate.encode_divergences += 1;
                }
            }
            Err(_) => gate.roundtrip_divergences += 1,
        }
        // Verdict agreement: clean, truncated at sampled offsets, mutated;
        // each faulty input both sides accept is re-encoded too.
        h.observe("clean", &wire, &mut gate.report);
        let stride = (wire.len() / 32).max(1);
        for cut in (0..wire.len()).step_by(stride) {
            h.observe("truncate", &wire[..cut], &mut gate.report);
            reencode_gate(w, &codec, &mut arena, &wire[..cut], gate);
        }
        for _ in 0..mutations {
            let (fault, mutated) = mutate(&wire, &mut rng);
            h.observe(fault.label(), &mutated, &mut gate.report);
            reencode_gate(w, &codec, &mut arena, &mutated, gate);
        }
    }
}

/// When both the fast path and the reference decoder accept `bytes`, the
/// fast path's re-encode must equal the reference encoding of the
/// reference decoder's value.
fn reencode_gate(
    w: &Workload,
    codec: &FastCodec,
    arena: &mut DecodeArena,
    bytes: &[u8],
    gate: &mut Gate,
) {
    let Ok(obj) = codec.decode(w.type_id, bytes, arena) else {
        return;
    };
    let Ok(value) = reference::decode(bytes, w.type_id, &w.schema) else {
        return;
    };
    gate.reencode_trials += 1;
    let Ok(expected) = reference::encode(&value, &w.schema) else {
        gate.reencode_divergences += 1;
        return;
    };
    gate.reencode_noncanonical += usize::from(expected != bytes);
    if codec.encode_decoded(w.type_id, bytes, arena, obj) != expected {
        gate.reencode_divergences += 1;
    }
}

fn measure_workload(w: &Workload, target_secs: f64) -> Row {
    let wires: Vec<Vec<u8>> = w
        .messages
        .iter()
        .map(|m| reference::encode(m, &w.schema).expect("workload encodes"))
        .collect();
    let per_pass: u64 = wires.iter().map(|b| b.len() as u64).sum();
    let codec = FastCodec::new(&w.schema);

    // Fast path, deserialize: arena decode per message.
    let mut arena = DecodeArena::new();
    let fast_deser = throughput(per_pass, target_secs, 1 << 14, || {
        let mut sink = 0u32;
        for wire in &wires {
            sink ^= codec
                .decode(w.type_id, wire, &mut arena)
                .expect("workload decodes");
        }
        std::hint::black_box(sink);
    });

    // Fast path, serialize: straight from decoded arena objects.
    let decoded: Vec<(DecodeArena, u32)> = wires
        .iter()
        .map(|wire| {
            let mut a = DecodeArena::new();
            let obj = codec
                .decode(w.type_id, wire, &mut a)
                .expect("workload decodes");
            (a, obj)
        })
        .collect();
    let fast_ser = throughput(per_pass, target_secs, 1 << 14, || {
        for (wire, (a, obj)) in wires.iter().zip(&decoded) {
            std::hint::black_box(codec.encode_decoded(w.type_id, wire, a, *obj).len());
        }
    });

    // Reference value-tree codec (host software baseline).
    let ref_deser = throughput(per_pass, target_secs, 1 << 12, || {
        for wire in &wires {
            std::hint::black_box(
                reference::decode(wire, w.type_id, &w.schema).expect("workload decodes"),
            );
        }
    });
    let ref_ser = throughput(per_pass, target_secs, 1 << 12, || {
        for m in &w.messages {
            std::hint::black_box(
                reference::encode(m, &w.schema)
                    .expect("workload encodes")
                    .len(),
            );
        }
    });

    // crates/cpu instrumented codec, host wall-clock (it decodes through
    // simulated guest memory; that cost is part of what it is).
    let (cpu_deser, cpu_ser) = measure_cpu(w, &wires, per_pass, target_secs);

    Row {
        name: w.name.clone(),
        wire_bytes: per_pass,
        fast_deser,
        fast_ser,
        cpu_deser,
        cpu_ser,
        ref_deser,
        ref_ser,
    }
}

/// Guest-memory map for the cpu-codec measurement.
const INPUT_BASE: u64 = 0x2000_0000;
const OBJECTS_BASE: u64 = 0x8000_0000;
const OUTPUT_BASE: u64 = 0x4000_0000;
const ARENA_BASE: u64 = 0x1_0000_0000;
const ARENA_LEN: u64 = 1 << 30;

fn measure_cpu(
    w: &Workload,
    wires: &[Vec<u8>],
    per_pass: u64,
    target_secs: f64,
) -> (Spread, Spread) {
    let cost = CostTable::boom();
    let layouts = MessageLayouts::compute(&w.schema);
    let mut mem = Memory::new(cost.mem);
    let codec = SoftwareCodec::new(&cost);

    let mut inputs = Vec::with_capacity(wires.len());
    let mut cursor = INPUT_BASE;
    for wire in wires {
        mem.data.write_bytes(cursor, wire);
        inputs.push((cursor, wire.len() as u64));
        cursor += wire.len() as u64 + 16;
    }
    let object_size = layouts.layout(w.type_id).object_size();
    let mut arena = BumpArena::new(ARENA_BASE, ARENA_LEN);
    let deser = throughput(per_pass, target_secs, 256, || {
        arena.reset();
        for &(addr, len) in &inputs {
            let dest = arena.alloc(object_size, 8).expect("bench arena fits");
            codec
                .deserialize(
                    &mut mem, &w.schema, &layouts, w.type_id, addr, len, dest, &mut arena,
                )
                .expect("workload deserializes");
        }
    });

    let mut obj_arena = BumpArena::new(OBJECTS_BASE, ARENA_LEN);
    let objects: Vec<u64> = w
        .messages
        .iter()
        .map(|m| {
            object::write_message(&mut mem.data, &w.schema, &layouts, &mut obj_arena, m)
                .expect("workload materializes")
        })
        .collect();
    let ser = throughput(per_pass, target_secs, 256, || {
        let mut out = OUTPUT_BASE;
        for &obj in &objects {
            let (_, len) = codec
                .serialize(&mut mem, &w.schema, &layouts, w.type_id, obj, out)
                .expect("workload serializes");
            out += len + 64;
        }
    });
    (deser, ser)
}

/// Runs `pass` once to warm up, then repeatedly until `target_secs` elapses
/// (or `max_passes`), timing each pass, and returns the spread of per-pass
/// GB/s.
fn throughput(
    bytes_per_pass: u64,
    target_secs: f64,
    max_passes: usize,
    mut pass: impl FnMut(),
) -> Spread {
    pass(); // warm-up
    let start = Instant::now();
    let mut gbps = Vec::new();
    loop {
        let t = Instant::now();
        pass();
        gbps.push(bytes_per_pass as f64 / t.elapsed().as_secs_f64() / 1e9);
        if (start.elapsed().as_secs_f64() >= target_secs && gbps.len() >= 3)
            || gbps.len() >= max_passes
        {
            return Spread::of(gbps);
        }
    }
}

fn render_json(mode: &str, rows: &[Row], geo: &[f64; 7], gate: &Gate) -> String {
    let workloads = rows.iter().map(|r| {
        let mut members = vec![
            ("name", r.name.as_str().into()),
            ("wire_bytes", r.wire_bytes.into()),
        ];
        members.extend(r.columns().map(|(name, s)| {
            let spread = [("median", s.median), ("min", s.min), ("p90", s.p90)];
            (name, Json::obj(spread.map(|(k, v)| (k, Json::fixed(v, 4)))))
        }));
        let speedup = r.fast_deser.median / r.cpu_deser.median;
        members.push(("deser_speedup_vs_cpu", Json::fixed(speedup, 2)));
        Json::obj(members)
    });
    let geomean = [
        ("fast_deser_gbps", Json::fixed(geo[0], 4)),
        ("fast_ser_gbps", Json::fixed(geo[1], 4)),
        ("cpu_deser_gbps", Json::fixed(geo[2], 4)),
        ("cpu_ser_gbps", Json::fixed(geo[3], 4)),
        ("ref_deser_gbps", Json::fixed(geo[4], 4)),
        ("ref_ser_gbps", Json::fixed(geo[5], 4)),
        ("deser_speedup_vs_cpu", Json::fixed(geo[6], 2)),
    ];
    json::write(&Json::obj([
        ("schema_version", 2u32.into()),
        ("mode", mode.into()),
        (
            "unit",
            "GB/s host wall-clock, per timed pass: median, min, p90".into(),
        ),
        ("workloads", Json::Arr(workloads.collect())),
        ("geomean_of_medians", Json::obj(geomean)),
        (
            "differential",
            Json::obj([
                ("trials", gate.report.trials.into()),
                ("accepted", gate.report.accepted.into()),
                ("rejected", gate.report.rejected.into()),
                ("verdict_mismatches", gate.report.mismatches.len().into()),
                ("encode_divergences", gate.encode_divergences.into()),
                ("roundtrip_divergences", gate.roundtrip_divergences.into()),
                ("reencode_trials", gate.reencode_trials.into()),
                ("reencode_noncanonical", gate.reencode_noncanonical.into()),
                ("reencode_divergences", gate.reencode_divergences.into()),
            ]),
        ),
    ]))
}

//! Aggregating profile reporter over the tracing layer.
//!
//! Default mode runs every HyperProtoBench service (the Fig 12/13
//! workload population) through the accelerator with tracing attached and
//! prints a per-service cycle breakdown — deser FSM vs memloader stream,
//! ser frontend vs FSU vs memwriter, ADT-cache and memory-level rollups —
//! cross-checked against [`protoacc::AccelStats`] by the accounting audit
//! (traced span sums must equal the reported counters exactly).
//!
//! `--reparse <file>` re-parses a Chrome-trace JSON written by
//! `serve_tail_latency --trace` and re-runs the accounting audit offline
//! against the embedded stats image, exercising the full export → parse →
//! audit round trip with no access to the model that produced the file.
//!
//! `--smoke` shrinks the message population for CI.

use hyperprotobench::generate_suite;
use protoacc::{AccelConfig, ProtoAccelerator};
use protoacc_bench::cli::Args;
use protoacc_bench::systems::map;
use protoacc_mem::{MemConfig, Memory};
use protoacc_runtime::{object, reference, write_adts, BumpArena, MessageLayouts};
use protoacc_schema::{MessageId, Schema};
use protoacc_trace::{audit, chrome, render_profile, ExpectedStats, TraceEvent, TraceLog};

struct ProfiledService {
    label: String,
    events: Vec<TraceEvent>,
    expected: Vec<ExpectedStats>,
}

/// Runs one hyperbench service through a traced accelerator: every message
/// deserialized then the whole population serialized back, spans laid out
/// on a per-op cumulative clock so the trace opens cleanly in Perfetto.
fn profile_service(
    label: String,
    schema: &Schema,
    type_id: MessageId,
    messages: &[protoacc_runtime::MessageValue],
) -> ProfiledService {
    let layouts = MessageLayouts::compute(schema);
    let mut mem = Memory::new(MemConfig::default());
    let mut setup_arena = BumpArena::new(0x1_0000, 1 << 24);
    let adts = write_adts(schema, &layouts, &mut mem.data, &mut setup_arena)
        .expect("ADTs fit the setup arena");
    let layout = layouts.layout(type_id);

    let log = TraceLog::shared();
    let mut accel = ProtoAccelerator::new(AccelConfig::default());
    mem.system.set_event_tracer(Some(log.clone()));
    let mut clock: u64 = 0;

    // Deserialize the staged wire encodings into fresh objects.
    let mut inputs = Vec::with_capacity(messages.len());
    let mut cursor = map::INPUT;
    for m in messages {
        let wire = reference::encode(m, schema).expect("workload encodes");
        mem.data.write_bytes(cursor, &wire);
        inputs.push((cursor, wire.len() as u64));
        cursor += wire.len() as u64 + 16;
    }
    let mut dest_arena = BumpArena::new(map::OBJECTS, map::ARENA_LEN);
    accel.deser_assign_arena(map::ARENA, map::ARENA_LEN);
    for &(addr, len) in &inputs {
        let dest = dest_arena
            .alloc(layout.object_size(), 8)
            .expect("dest fits");
        mem.system.set_trace_origin(clock);
        let run = accel
            .do_proto_deser(
                &mut mem,
                adts.addr(type_id),
                addr,
                len,
                dest,
                layout.min_field(),
            )
            .expect("workload deserializes on the accelerator");
        clock += run.cycles;
    }

    // Serialize a materialized copy of the same population.
    let mut obj_arena = BumpArena::new(map::OBJECTS + (map::ARENA_LEN / 2), map::ARENA_LEN / 2);
    let objects: Vec<u64> = messages
        .iter()
        .map(|m| {
            object::write_message(&mut mem.data, schema, &layouts, &mut obj_arena, m)
                .expect("workload materializes")
        })
        .collect();
    accel.ser_assign_arena(map::OUTPUT, map::ARENA_LEN, map::PTRS, 1 << 20);
    for &obj in &objects {
        mem.system.set_trace_origin(clock);
        let run = accel
            .do_proto_ser(
                &mut mem,
                adts.addr(type_id),
                obj,
                layout.hasbits_offset(),
                layout.min_field(),
                layout.max_field(),
            )
            .expect("workload serializes on the accelerator");
        clock += run.cycles;
    }

    mem.system.set_event_tracer(None);
    let stats = accel.stats();
    stats.debug_assert_unsaturated();
    let expected = vec![ExpectedStats {
        instance: 0,
        deser_ops: stats.deser_ops,
        deser_cycles: stats.deser_cycles,
        ser_ops: stats.ser_ops,
        ser_cycles: stats.ser_cycles,
        saturated: stats.saturated,
    }];
    let events = std::mem::take(&mut log.borrow_mut().events);
    ProfiledService {
        label,
        events,
        expected,
    }
}

/// Default mode: profile the six hyperbench services and fail if any
/// accounting audit finds a discrepancy.
fn profile_suite(messages_per_bench: usize) -> bool {
    let suite = generate_suite(messages_per_bench, 0xB0B);
    let mut ok = true;
    for bench in &suite {
        let label = format!(
            "bench{} ({}), {} messages",
            bench.profile.index,
            bench.profile.name,
            bench.messages.len()
        );
        let profiled = profile_service(label, &bench.schema, bench.type_id, &bench.messages);
        print!(
            "{}",
            render_profile(&profiled.label, &profiled.events, &profiled.expected)
        );
        let report = audit(&profiled.events, &profiled.expected);
        if !report.ok() {
            for p in &report.problems {
                println!("FAIL [{}]: {p}", profiled.label);
            }
            ok = false;
        }
    }
    ok
}

/// `--reparse` mode: load a Chrome-trace JSON (`chrome::parse` refuses
/// other schema versions) and re-run the accounting audit against the
/// embedded stats image.
fn reparse(path: &str) -> bool {
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            println!("FAIL [reparse]: cannot read {path}: {e}");
            return false;
        }
    };
    let parsed = match chrome::parse(&json) {
        Ok(p) => p,
        Err(e) => {
            println!("FAIL [reparse]: {path}: {e}");
            return false;
        }
    };
    let report = audit(&parsed.events, &parsed.expected);
    print!(
        "{}",
        render_profile(
            &format!("reparse {path} (schema v{})", parsed.schema_version),
            &parsed.events,
            &parsed.expected
        )
    );
    if report.ok() {
        println!(
            "ok   [reparse] {} events, {} instance(s): offline audit passed",
            parsed.events.len(),
            report.per_instance.len()
        );
        true
    } else {
        for p in &report.problems {
            println!("FAIL [reparse]: {p}");
        }
        false
    }
}

fn main() {
    let args = Args::parse("profile_report [--smoke] [--reparse TRACE.json]");
    let smoke = args.flag("--smoke");
    let ok = if let Some(path) = args.value::<String>("--reparse") {
        reparse(&path)
    } else {
        profile_suite(if smoke { 8 } else { 48 })
    };
    if ok {
        println!("profile_report OK");
    } else {
        println!("profile_report FAILED");
        std::process::exit(1);
    }
}
